import hashlib

import numpy as np
import pytest
from scipy.integrate import quad

from dropglm.basis import SplineBasis, design_matrix
from dropglm.errors import ConfigError, DomainError


def knot_points(b) -> np.ndarray:
    """The knots: nknots points spanning [lo, hi] in natural mode, or the
    nknots cell starts of the period [lo, hi) in cyclic mode."""
    if b.mode == "natural":
        return np.linspace(b.lo, b.hi, b.nknots)
    return b.lo + b.spacing * np.arange(b.nknots)


class TestBuildBasis:
    def test_dimension_convention(self):
        assert design_matrix(SplineBasis(0, 1, 30, "natural"), [0.5]).shape == (1, 30)
        assert design_matrix(SplineBasis(0, 24, 12, "cyclic"), [0.5]).shape == (1, 12)

    def test_too_few_knots(self):
        with pytest.raises(ConfigError):
            SplineBasis(0, 1, 3, "natural")

    @pytest.mark.parametrize("nknots", [7.9, 5.5, 6.0, "6", np.float64(6.0)])
    def test_non_integer_knot_count_raises(self, nknots):
        with pytest.raises(ConfigError, match="knot count must be an integer"):
            SplineBasis(0, 1, nknots, "natural")

    def test_numpy_integer_knot_count(self):
        assert design_matrix(SplineBasis(0, 1, np.int64(6)), [0.5]).shape == (1, 6)

    def test_partition_of_unity_at_point(self):
        b = SplineBasis(0, 1, 30, "natural")
        assert design_matrix(b, [0.37]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_cyclic_endpoints_match(self):
        b = SplineBasis(0, 24, 12, "cyclic")
        assert np.array_equal(design_matrix(b, [0.0]), design_matrix(b, [24.0]))

    def test_local_support_at_half(self):
        b = SplineBasis(0, 1, 20, "natural")
        assert np.count_nonzero(design_matrix(b, [0.5])[0]) <= 4


class TestInvariants:
    def test_partition_of_unity_random_points(self):
        b = SplineBasis(0, 1, 30, "natural")
        x = np.random.default_rng(0).random(1000)
        assert np.max(np.abs(design_matrix(b, x).sum(axis=1) - 1.0)) < 1e-12

    def test_nonnegativity(self):
        b = SplineBasis(0, 1, 17, "natural")
        x = np.random.default_rng(1).random(1000)
        assert design_matrix(b, x).min() >= 0.0

    def test_cyclic_periodicity_value_and_derivative(self):
        b = SplineBasis(0, 24, 12, "cyclic")
        for deriv, tol in ((0, 1e-10), (1, 1e-10)):
            lo = design_matrix(b, [0.0], deriv=deriv)
            hi = design_matrix(b, [24.0], deriv=deriv)
            assert np.max(np.abs(lo - hi)) < tol

    def test_local_support_span_count(self):
        # Every basis function vanishes outside at most 4 knot spans.
        b = SplineBasis(0, 1, 12, "natural")
        edges = knot_points(b)
        fine = np.linspace(0, 1, 4001)
        D = design_matrix(b, fine)
        for j in range(b.nknots):
            active = np.unique(
                np.clip(np.searchsorted(edges, fine[np.abs(D[:, j]) > 1e-14],
                                        side="right") - 1, 0, len(edges) - 2)
            )
            assert len(active) <= 4

    def test_cubic_reproduction_on_interior(self):
        # The natural space contains a spline equal to any cubic away from
        # the outermost spans, where the end conditions bite.
        b = SplineBasis(0, 1, 20, "natural")
        h = b.spacing
        grid = np.linspace(h, 1 - h, 501)
        D = design_matrix(b, grid)
        for coef in ((0.0, 0.0, 0.0, 1.0), (1.0, -2.0, 3.0, 0.5)):
            target = sum(c * grid**k for k, c in enumerate(coef))
            sol, *_ = np.linalg.lstsq(D, target, rcond=None)
            assert np.max(np.abs(D @ sol - target)) < 1e-8

    def test_natural_second_derivative_vanishes_at_ends(self):
        b = SplineBasis(0, 1, 25, "natural")
        D2 = design_matrix(b, [0.0, 1.0], deriv=2)
        assert np.max(np.abs(D2)) < 1e-10


class TestDesignMatrix:
    def test_rows_sum_to_one(self):
        b = SplineBasis(0, 1, 30, "natural")
        D = design_matrix(b, [0.1, 0.5, 0.9])
        assert D.shape == (3, 30)
        assert np.max(np.abs(D.sum(axis=1) - 1.0)) < 1e-12

    def test_cyclic_wrap(self):
        b = SplineBasis(0, 24, 12, "cyclic")
        assert np.array_equal(design_matrix(b, [24.5]), design_matrix(b, [0.5]))

    def test_out_of_domain_raises_in_natural_mode(self):
        b = SplineBasis(0, 1, 10, "natural")
        with pytest.raises(DomainError):
            design_matrix(b, [1.2])

    @pytest.mark.parametrize("mode", ["natural", "cyclic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_raise(self, mode, bad):
        b = SplineBasis(0, 1, 10, mode)
        with pytest.raises(DomainError):
            design_matrix(b, [0.5, bad])

    def test_column_sums_match_quadrature(self):
        # Riemann column sums over the 501-point grid approximate the basis
        # masses computed by adaptive quadrature.
        b = SplineBasis(0, 1, 12, "natural")
        grid = np.linspace(0, 1, 501)
        sums = design_matrix(b, grid).sum(axis=0) / 501.0
        for j in range(b.nknots):
            mass, _ = quad(lambda t: design_matrix(b, [t])[0, j], 0, 1, limit=200)
            assert sums[j] == pytest.approx(mass, abs=2e-3)


class TestEvaluateEffect:
    def test_zero_coefficients(self):
        b = SplineBasis(0, 1, 10, "natural")
        assert np.all(design_matrix(b, [0.2, 0.8]) @ np.zeros(10) == 0.0)

    def test_constant_function(self):
        b = SplineBasis(0, 1, 10, "natural")
        vals = design_matrix(b, np.linspace(0, 1, 77)) @ np.ones(10)
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_least_squares_fit_of_smooth_function(self):
        # f1 is smooth and well inside the span of 30 natural splines.
        from dropglm.simlab import f1

        b = SplineBasis(0, 1, 30, "natural")
        grid = np.linspace(0, 1, 501)
        D = design_matrix(b, grid)
        coef, *_ = np.linalg.lstsq(D, f1(grid), rcond=None)
        assert np.max(np.abs(D @ coef - f1(grid))) < 0.05


# sha256 of design_matrix(basis, x, deriv).tobytes() for the points of
# _pin_points: lo, hi, every knot, the knot midpoints and 20 uniform draws,
# plus, in cyclic mode, points past the period and below lo.
DESIGN_PINS = {
    ((-1.5, 2.0, 9, "natural"), 0):
        "9bbab8ee502f4d0492e089934cb1d9a51dd65f89dedb7d65b68853b0d5afdf1c",
    ((-1.5, 2.0, 9, "natural"), 1):
        "9acd419fe5dd0923ce9e738df84414471c350808acad37d57318449e3feab90c",
    ((-1.5, 2.0, 9, "natural"), 2):
        "d900407bef7f265d4416a3b2799f4b22758b57aacf9b042d5645b70134c63568",
    ((0.0, 1.0, 30, "natural"), 0):
        "7c8549eb9bffb357ad99fa1235a5b41fdc99cab43719a89b57331e9dc2de418d",
    ((0.0, 1.0, 30, "natural"), 1):
        "31ad48e7f4cd720d882b9217890447176b67013eec697a1dde50800dc85e9638",
    ((0.0, 1.0, 30, "natural"), 2):
        "372fecf4980862da89f8d2a73ed7b1cb379a24a0caee07c0862fad50de5b001c",
    ((0.0, 24.0, 12, "cyclic"), 0):
        "dc2583ced152a5958807c7f4d5fca260e01bc46ab8475bb5cfc241c48c2d6121",
    ((0.0, 24.0, 12, "cyclic"), 1):
        "2b9e4920fdca0dceb211f35556c34b45b51513deedcad0ae5d1cb1fbc1222525",
    ((0.0, 24.0, 12, "cyclic"), 2):
        "4db51413a24f5eef816f82e13a7451f84db0f370093e69cd553ab54bcbff5766",
    ((-1.0, 1.0, 7, "cyclic"), 0):
        "13b52295876468ce6c43c17096ea06c1c70c7aa73204dbf64bc1e767984de0cc",
    ((-1.0, 1.0, 7, "cyclic"), 1):
        "0aa5d21894a76b529dd10a6e5d0b3acd88d6a43cae87a18561ff8f1ab1b8df5c",
    ((-1.0, 1.0, 7, "cyclic"), 2):
        "9baca6dc38d81649869b5d425fc1eb9d3de021befe723cd8f91e5c4eb6819443",
}


def _pin_points(b) -> np.ndarray:
    h, knots = b.spacing, knot_points(b)
    points = [b.lo, b.hi, *knots, *((knots[:-1] + knots[1:]) / 2),
              *np.random.default_rng(0).uniform(b.lo, b.hi, 20)]
    if b.mode == "cyclic":
        points += [b.hi + 0.3 * h, b.hi + b.period + 2.5 * h, b.lo - 0.3 * h,
                   b.lo - b.period - 1.5 * h, b.lo - 1e-13]
    return np.array(points)


@pytest.mark.parametrize("args,deriv", list(DESIGN_PINS))
def test_design_matrix_is_pinned_bit_for_bit(args, deriv):
    b = SplineBasis(*args)
    x = _pin_points(b)
    D = design_matrix(b, x, deriv=deriv)
    assert D.shape == (len(x), b.nknots) and D.dtype == np.float64
    assert hashlib.sha256(D.tobytes()).hexdigest() == DESIGN_PINS[args, deriv]
