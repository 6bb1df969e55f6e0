import numpy as np
import pytest
from scipy.integrate import quad

from dropglm.basis import build_basis, design_matrix
from dropglm.errors import ConfigError, DomainError


class TestBuildBasis:
    def test_dimension_convention(self):
        assert build_basis(0, 1, 30, "natural").dim == 30
        assert build_basis(0, 24, 12, "cyclic").dim == 12

    def test_too_few_knots(self):
        with pytest.raises(ConfigError):
            build_basis(0, 1, 3, "natural")

    def test_partition_of_unity_at_point(self):
        b = build_basis(0, 1, 30, "natural")
        assert design_matrix(b, [0.37]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_cyclic_endpoints_match(self):
        b = build_basis(0, 24, 12, "cyclic")
        assert np.array_equal(design_matrix(b, [0.0]), design_matrix(b, [24.0]))

    def test_local_support_at_half(self):
        b = build_basis(0, 1, 20, "natural")
        assert np.count_nonzero(design_matrix(b, [0.5])[0]) <= 4


class TestInvariants:
    def test_partition_of_unity_random_points(self):
        b = build_basis(0, 1, 30, "natural")
        x = np.random.default_rng(0).random(1000)
        assert np.max(np.abs(design_matrix(b, x).sum(axis=1) - 1.0)) < 1e-12

    def test_nonnegativity(self):
        b = build_basis(0, 1, 17, "natural")
        x = np.random.default_rng(1).random(1000)
        assert design_matrix(b, x).min() >= 0.0

    def test_cyclic_periodicity_value_and_derivative(self):
        b = build_basis(0, 24, 12, "cyclic")
        for deriv, tol in ((0, 1e-10), (1, 1e-10)):
            lo = design_matrix(b, [0.0], deriv=deriv)
            hi = design_matrix(b, [24.0], deriv=deriv)
            assert np.max(np.abs(lo - hi)) < tol

    def test_local_support_span_count(self):
        # Every basis function vanishes outside at most 4 knot spans.
        b = build_basis(0, 1, 12, "natural")
        edges = b.knots
        fine = np.linspace(0, 1, 4001)
        D = design_matrix(b, fine)
        for j in range(b.dim):
            active = np.unique(
                np.clip(np.searchsorted(edges, fine[np.abs(D[:, j]) > 1e-14],
                                        side="right") - 1, 0, len(edges) - 2)
            )
            assert len(active) <= 4

    def test_cubic_reproduction_on_interior(self):
        # The natural space contains a spline equal to any cubic away from
        # the outermost spans, where the end conditions bite.
        b = build_basis(0, 1, 20, "natural")
        h = b.spacing
        grid = np.linspace(h, 1 - h, 501)
        D = design_matrix(b, grid)
        for coef in ((0.0, 0.0, 0.0, 1.0), (1.0, -2.0, 3.0, 0.5)):
            target = sum(c * grid**k for k, c in enumerate(coef))
            sol, *_ = np.linalg.lstsq(D, target, rcond=None)
            assert np.max(np.abs(D @ sol - target)) < 1e-8

    def test_natural_second_derivative_vanishes_at_ends(self):
        b = build_basis(0, 1, 25, "natural")
        D2 = design_matrix(b, [0.0, 1.0], deriv=2)
        assert np.max(np.abs(D2)) < 1e-10


class TestDesignMatrix:
    def test_rows_sum_to_one(self):
        b = build_basis(0, 1, 30, "natural")
        D = design_matrix(b, [0.1, 0.5, 0.9])
        assert D.shape == (3, 30)
        assert np.max(np.abs(D.sum(axis=1) - 1.0)) < 1e-12

    def test_cyclic_wrap(self):
        b = build_basis(0, 24, 12, "cyclic")
        assert np.array_equal(design_matrix(b, [24.5]), design_matrix(b, [0.5]))

    def test_out_of_domain_raises_in_natural_mode(self):
        b = build_basis(0, 1, 10, "natural")
        with pytest.raises(DomainError):
            design_matrix(b, [1.2])

    @pytest.mark.parametrize("mode", ["natural", "cyclic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_raise(self, mode, bad):
        b = build_basis(0, 1, 10, mode)
        with pytest.raises(DomainError):
            design_matrix(b, [0.5, bad])

    def test_column_sums_match_quadrature(self):
        # Riemann column sums over the 501-point grid approximate the basis
        # masses computed by adaptive quadrature.
        b = build_basis(0, 1, 12, "natural")
        grid = np.linspace(0, 1, 501)
        sums = design_matrix(b, grid).sum(axis=0) / 501.0
        for j in range(b.dim):
            mass, _ = quad(lambda t: design_matrix(b, [t])[0, j], 0, 1, limit=200)
            assert sums[j] == pytest.approx(mass, abs=2e-3)


class TestEvaluateEffect:
    def test_zero_coefficients(self):
        b = build_basis(0, 1, 10, "natural")
        assert np.all(design_matrix(b, [0.2, 0.8]) @ np.zeros(10) == 0.0)

    def test_constant_function(self):
        b = build_basis(0, 1, 10, "natural")
        vals = design_matrix(b, np.linspace(0, 1, 77)) @ np.ones(10)
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_least_squares_fit_of_smooth_function(self):
        # f1 is smooth and well inside the span of 30 natural splines.
        from dropglm.simlab import f1

        b = build_basis(0, 1, 30, "natural")
        grid = np.linspace(0, 1, 501)
        D = design_matrix(b, grid)
        coef, *_ = np.linalg.lstsq(D, f1(grid), rcond=None)
        assert np.max(np.abs(D @ coef - f1(grid))) < 0.05
