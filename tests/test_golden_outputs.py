"""Every output CSV of small CLI runs keeps its pinned sha256 digest.

The runs cover ``simulate`` and ``scenario`` for each family, ``cv`` and
``fit`` for the PMLE method, and ``traffic`` on a tiny snapshot written
here.

Manifests in the exact form this version writes them (``WRITTEN``) must
rerun to the same pinned outputs and write their config back unchanged.
Manifests that hold a retired key (the stationarity-stop keys, ADADELTA's
``rho``/``eps``, the scenario's ``mean_index``/``kappa``/``phi``) are refused
instead (``tests/test_cli.py``).

A refactor must leave these digests unchanged.  A deliberate change of
outputs re-pins them and records the change in CHANGES.md (README
"Reproducibility").  The digests hold for one numpy/BLAS build; a different
build may round differently.
"""

import json
from pathlib import Path

import pytest

from dropglm.cli import main
from dropglm.runio import load_json_config, sha256_file

OPTIM = {"batch_size": 20, "max_iters": 300, "avg_window": 100}
FAMILIES = ("gaussian", "dpoisson", "dbinomial")

GOLDEN = {
    "cv-pmle/cv.csv":
        "4820869a40a54b0275893fc6a1f3e802814f6a019218b5656560c0d77d0bbc65",
    "fit-pmle/coefficients.csv":
        "06cc70448564774287242fd7ee622031ef5ee310bdb6c36b00223d0cf64fcdbd",
    "fit-pmle/curve.csv":
        "d4faf0733e6220b6ada7e8b6824baa9ae17c814593262919e3ec7c8bed21e7a9",
    "scenario-dbinomial/cv_bernoulli.csv":
        "067f70943bc63c366690995764f3dfb42f53e720fde444e836156ddb6439d8f1",
    "scenario-dbinomial/cv_gaussian.csv":
        "94fafdaa169ba4aad3a20e6dcf577dfbebf9393cbd7015c9d5c5a34812dfa75e",
    "scenario-dbinomial/cv_pmle.csv":
        "ae72d0220d8456f0027ae390f64d337c6e9de2d2da9dd3b62e4c6b18ce0a2047",
    "scenario-dbinomial/results.csv":
        "099404952feef9f76382ab350b6edd3c89c9fb3ca94862c1cbdc6a86aa740282",
    "scenario-dbinomial/summary.csv":
        "c2720eb7d91b9e8b73709165935594b05877f87aaeac886b43fb6f57d62292c4",
    "scenario-dbinomial/truth.csv":
        "30bbf02d9d55e2fa227e926107c5c781fe00c388d773d96630b020a0f2193373",
    "scenario-dpoisson/cv_bernoulli.csv":
        "8ade727d4b1f30fc3cd87427c237904c8bb3e572b05109c551e67f76857a23da",
    "scenario-dpoisson/cv_gaussian.csv":
        "6b14dbec8eb04fc0cc541a30fec83ee2f5d0c5c840c3a71cc702a1b93e389b66",
    "scenario-dpoisson/cv_pmle.csv":
        "f7658ce2d76981975594bca169b4e5826ca98b311a190ffd7e0d8dbfdc142e60",
    "scenario-dpoisson/results.csv":
        "083b81cb17264763952b4d7430a283ee5a3ee6cefb77540c9b53d7fe679208f2",
    "scenario-dpoisson/summary.csv":
        "88f3f7bbd5e78a42670abd69d36f3e425a9d3af84f27d24dcf2e9821976fb973",
    "scenario-dpoisson/truth.csv":
        "30bbf02d9d55e2fa227e926107c5c781fe00c388d773d96630b020a0f2193373",
    "scenario-gaussian/cv_bernoulli.csv":
        "42a24a8e25b8ad7fd230f9c50de31dc7dab0243c162bd0deb257803e3cd23461",
    "scenario-gaussian/cv_gaussian.csv":
        "27681da226e4a14f67f3b9b5d3932275d4b2e882feb77918e8009ec3279fcdb1",
    "scenario-gaussian/cv_pmle.csv":
        "1373bf12f18c3750365675feb6c7380a61c71d92ce562b4a2ff8614c03bfe641",
    "scenario-gaussian/results.csv":
        "941817c2643cbb923a624f5123f435cb5e24de34f27024834e522324186c8216",
    "scenario-gaussian/summary.csv":
        "49d90f43cefe7a7ca9da399ca4fd0bd93afebce06f6f6715da6827934f134c34",
    "scenario-gaussian/truth.csv":
        "d3d0f614e779dc1a270e483509ac5ea29b4d8ff7e66cf4b742d2cc1934420d24",
    "simulate-dbinomial/data.csv":
        "43c71bb9023794da6398747864fd8e3061aa30d28fe3ef7007f2b62f2446802d",
    "simulate-dpoisson/data.csv":
        "c6c9a20fb39c8902ffd7c6487ca9e47c7345a9badf15589bde977bda825186e3",
    "simulate-gaussian/data.csv":
        "805219192adbeeb751966e3a5e58600c48e561c32234fe7f7aae06b8bd02896e",
    "traffic/cv.csv":
        "968111217cffedd6dfd523834ad24ede6260d87e43768764c9562c387317b7c4",
    "traffic/fitted.csv":
        "2e7d108935cdfe57f8c93ac30dd6fa1d9ed5b4f5546d8a75027e83683e423da0",
}

# Manifest configs of the golden runs as this version writes them, with the
# input paths relative to the golden root.
WRITTEN_OPTIM = {"avg_window": 100, "batch_size": 20, "max_iters": 300}
WRITTEN_SCENARIO = {"cv_folds": 2, "cv_samples": 2, "disp_index": 2, "disp_knots": 20,
                    "family": "dbinomial", "mean_knots": 30, "n": 60,
                    "optim": WRITTEN_OPTIM, "replicates": 1, "seed": 11, "trials": 70}
WRITTEN_MODEL = {"boundary": "natural", "disp_knots": 5, "family": "gaussian",
                 "hi": 1.0, "lo": 0.0, "mean_knots": 8, "optim": WRITTEN_OPTIM,
                 "phi": 1.0, "rect": None, "trials": 70}
GAUSSIAN_DATA = {"data": "simulate-gaussian/data.csv",
                 "data_sha256": GOLDEN["simulate-gaussian/data.csv"]}
WRITTEN = {
    "simulate-dbinomial": ("simulate", 11, {"replicate": 1,
                                            "scenario": WRITTEN_SCENARIO}),
    "scenario-dbinomial": ("scenario", 11, {"methods": ["bernoulli", "gaussian", "pmle"],
                                            "scenario": WRITTEN_SCENARIO}),
    "cv-pmle": ("cv", 3, GAUSSIAN_DATA | {"folds": 2, "method": "pmle",
                                          "model": WRITTEN_MODEL, "samples": 2,
                                          "seed": 3}),
    "fit-pmle": ("fit", 3, GAUSSIAN_DATA | {"method": "pmle", "model": WRITTEN_MODEL,
                                            "params": [3000.0, 1000.0], "seed": 3}),
    "traffic": ("traffic", 5, {
        "data": "traffic.csv",
        "data_sha256": "2b61e7628e3359b0d61f946c706c329c6b2492782d3576ddaa9915342edecc99",
        "direction": "inbound", "disp_knots": 4, "folds": 2, "mean_knots": 6,
        "noise": "bernoulli", "optim": WRITTEN_OPTIM, "samples": 2, "seed": 5,
        "sensor": "W1", "summer_2019": True}),
}


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def write_traffic_snapshot(path: Path) -> str:
    """Ten summer-2019 days of deterministic hourly counts for W1/inbound,
    plus rows that the summer filter drops and one malformed row."""
    lines = ["sensor,direction,date,hour,count"]
    for day in range(10):
        for hour in range(24):
            peak = 300 if hour in (8, 17) else 200 if hour in (7, 9, 16, 18) else 60
            lines.append(f"W1,inbound,2019-07-{day + 1:02d},{hour},"
                         f"{peak + (day * 37 + hour * 11) % 23}")
    lines += ["W1,inbound,2018-07-01,8,250", "W1,inbound,2019-07-01,x,5"]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden")
    for family in FAMILIES:
        cfg = write_json(root / f"{family}.json",
                         {"family": family, "disp_index": 2, "n": 60,
                          "replicates": 1, "cv_samples": 2, "cv_folds": 2,
                          "seed": 11, "optim": OPTIM})
        run("simulate", "--config", cfg, "--replicate", 1,
            "--out", root / f"simulate-{family}")
        run("scenario", "--config", cfg, "--methods", "bernoulli,gaussian,pmle",
            "--out", root / f"scenario-{family}")

    data = root / "simulate-gaussian" / "data.csv"
    model = write_json(root / "model.json", {"family": "gaussian", "mean_knots": 8,
                                             "disp_knots": 5, "optim": OPTIM})
    run("cv", "--data", data, "--config", model, "--method", "pmle",
        "--samples", 2, "--folds", 2, "--seed", 3, "--out", root / "cv-pmle")
    run("fit", "--data", data, "--config", model, "--method", "pmle",
        "--params", "3000,1000", "--seed", 3, "--out", root / "fit-pmle")

    snapshot = write_traffic_snapshot(root / "traffic.csv")
    run("traffic", "--data", snapshot, "--sensor", "W1", "--direction", "inbound",
        "--summer-2019", "--samples", 2, "--folds", 2, "--seed", 5,
        "--mean-knots", 6, "--disp-knots", 4,
        "--config", write_json(root / "traffic.json", {"optim": OPTIM}),
        "--out", root / "traffic")
    return root


def test_every_output_csv_is_pinned(outputs):
    written = {p.relative_to(outputs).as_posix() for p in outputs.glob("*/*.csv")}
    assert written == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert sha256_file(outputs / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_manifest_reruns_to_pinned_outputs(outputs, tmp_path, name):
    command, seed, config = WRITTEN[name]
    if "data" in config:
        config = config | {"data": str(outputs / config["data"])}
    manifest = write_json(tmp_path / "manifest.json",
                          {"command": command, "config": config, "seed": seed})
    again = tmp_path / "again"
    run("rerun", manifest, "--out", again)
    pinned = {key.split("/")[1]: digest for key, digest in GOLDEN.items()
              if key.startswith(f"{name}/")}
    assert {p.name: sha256_file(p) for p in again.glob("*.csv")} == pinned
    assert load_json_config(again / "manifest.json")["config"] == config
