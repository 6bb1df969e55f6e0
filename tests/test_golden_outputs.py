"""Every output CSV of small CLI runs keeps its pinned sha256 digest.

The runs cover ``simulate`` and ``scenario`` for each family, ``cv`` and
``fit`` for the PMLE method, and ``traffic`` on a tiny snapshot written
here.  The optimiser settings let the stationarity stop fire, so the SGD
trace values, not only the iterates, reach the outputs.

Manifests in the exact form earlier versions wrote them (``WRITTEN``) must
rerun to the same pinned outputs and write their config back unchanged.

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

OPTIM = {"batch_size": 20, "max_iters": 300, "window": 20, "trace_every": 10,
         "tol": 3e-4, "avg_window": 100}
FAMILIES = ("gaussian", "dpoisson", "dbinomial")

GOLDEN = {
    "cv-pmle/cv.csv":
        "3782b9f485504620c02d2d8f14afb40d65391634d63b6e3acf10e5d4e2f0b7e7",
    "fit-pmle/coefficients.csv":
        "6a3b413a3a1881b43ee518aa866e918a0fb22d054478c3f1f834412e153e24c4",
    "fit-pmle/curve.csv":
        "110e57bccbefdb929bb7dcedef3ae9b46892ac4932e88dc6806ea772369e1f50",
    "scenario-dbinomial/cv_bernoulli.csv":
        "3fd4bfba16dc8b1efa6accf09f7c8c2676a344e4357325a809e17167e2c1f00d",
    "scenario-dbinomial/cv_gaussian.csv":
        "03c9d18870dd9cd04ea42369ea448c2078866a6b997634b1575f29a5713f9de2",
    "scenario-dbinomial/cv_pmle.csv":
        "bcba416418cad358fb90d896f06f6d4f3ed8ead056f725ca60f9a4b9dce8f3f3",
    "scenario-dbinomial/results.csv":
        "230917aefa5b321b27870434379248662eef82deb0a7747c5526b58a67020d24",
    "scenario-dbinomial/summary.csv":
        "eda881ebc92a6c6ea1ebf07fd635e9e8f456a00a25946a91e6e7e024487349d9",
    "scenario-dbinomial/truth.csv":
        "30bbf02d9d55e2fa227e926107c5c781fe00c388d773d96630b020a0f2193373",
    "scenario-dpoisson/cv_bernoulli.csv":
        "e8e7e9ff24966e0200eb9cfcb63445b765465ce6747d1f779e7bec8fd6a96630",
    "scenario-dpoisson/cv_gaussian.csv":
        "263434946e8d74a6020d45f6b7e85bc94b6daa13380d2db4021a9c4ff8fd49b6",
    "scenario-dpoisson/cv_pmle.csv":
        "672e2102e364f9939bded269534392086f264b5b07bc5760d4ccb2aa5c628a52",
    "scenario-dpoisson/results.csv":
        "6dcf60bd77d8580fa84eda26c90c58bad3f0082d9bf3c1046c846bae15e621c7",
    "scenario-dpoisson/summary.csv":
        "9de3e43753a1963f014cf7351cdfd1c58f94f11f0d28fb8db4132effb00cf6f3",
    "scenario-dpoisson/truth.csv":
        "30bbf02d9d55e2fa227e926107c5c781fe00c388d773d96630b020a0f2193373",
    "scenario-gaussian/cv_bernoulli.csv":
        "6ca570724a2e5f6efeb752a2d730380dfadab74a6f939edbe6741991ac53926b",
    "scenario-gaussian/cv_gaussian.csv":
        "7608ccfd470d6a5c4f74e370a4d0888df36a16ec89b5c0478461d608c475a1b2",
    "scenario-gaussian/cv_pmle.csv":
        "a50362b708d21324f8ff0517500acccaca2ed0956a931fe30f5378ec25e0d194",
    "scenario-gaussian/results.csv":
        "7be1148213f77926cac459319f667c4a6e20f4cdc4de5e071700cd77319d7b1a",
    "scenario-gaussian/summary.csv":
        "44f37a6e0571197bce082b4e14f51af724e7e4ecf530c2317f1bc846f4d9d6d5",
    "scenario-gaussian/truth.csv":
        "d3d0f614e779dc1a270e483509ac5ea29b4d8ff7e66cf4b742d2cc1934420d24",
    "simulate-dbinomial/data.csv":
        "43c71bb9023794da6398747864fd8e3061aa30d28fe3ef7007f2b62f2446802d",
    "simulate-dpoisson/data.csv":
        "c6c9a20fb39c8902ffd7c6487ca9e47c7345a9badf15589bde977bda825186e3",
    "simulate-gaussian/data.csv":
        "805219192adbeeb751966e3a5e58600c48e561c32234fe7f7aae06b8bd02896e",
    "traffic/cv.csv":
        "ef1614b660a912dface0520627aa552202d7c4caf596cc4e625d0d3d87b970a3",
    "traffic/fitted.csv":
        "6091bc4b29b4902de3a16858b971a492e0ac4570f80d808ef0ee91c1613feae5",
}

# Manifest configs of the golden runs as earlier versions wrote them, with
# the input paths relative to the golden root.
WRITTEN_OPTIM = {"avg_window": 100, "batch_size": 20, "eps": 1e-06, "max_iters": 300,
                 "rho": 0.95, "tol": 0.0003, "trace_every": 10, "window": 20}
WRITTEN_SCENARIO = {"cv_folds": 2, "cv_samples": 2, "disp_index": 2, "disp_knots": 20,
                    "family": "dbinomial", "kappa": 500, "mean_index": 2,
                    "mean_knots": 30, "n": 60, "optim": WRITTEN_OPTIM, "phi": 1.0,
                    "replicates": 1, "seed": 11, "trials": 70}
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
