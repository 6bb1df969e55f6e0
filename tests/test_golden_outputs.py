"""Every output CSV of small CLI runs keeps its pinned sha256 digest.

The runs cover ``simulate`` and ``scenario`` for each family, ``cv`` and
``fit`` for the PMLE method, and ``traffic`` on a tiny snapshot written
here.

Manifests in the exact form this version writes them (``WRITTEN``) must
rerun to the same pinned outputs and write their config back unchanged.
Manifests whose ``optim`` holds the retired stationarity-stop keys are
refused instead (``tests/test_cli.py``).

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
        "e752135dc264b0c1c9f03abe328857c599f57939e87dab03a47ed1fe570329a3",
    "scenario-dbinomial/cv_gaussian.csv":
        "b24c325817fab9e5be7d6fec6cc401502732431bb0ff6e932b659244f96d68a2",
    "scenario-dbinomial/cv_pmle.csv":
        "ae72d0220d8456f0027ae390f64d337c6e9de2d2da9dd3b62e4c6b18ce0a2047",
    "scenario-dbinomial/results.csv":
        "419cf244a293ebf3b3884c4b5ca6d9560672f5a8a91bcde68a5a32a33da137d3",
    "scenario-dbinomial/summary.csv":
        "13efe9ff3c0323c723c5b68fc76309693bd9dd546941c0c7802c57df4b66c16a",
    "scenario-dbinomial/truth.csv":
        "30bbf02d9d55e2fa227e926107c5c781fe00c388d773d96630b020a0f2193373",
    "scenario-dpoisson/cv_bernoulli.csv":
        "86517ec59b5bfa2d76e9238881b781003b19ac91b09464c3f9b0fde777eceb91",
    "scenario-dpoisson/cv_gaussian.csv":
        "3d3cdc57dcd8a330c99667d259212fe6b564c5b0216340d082217b75f5de357c",
    "scenario-dpoisson/cv_pmle.csv":
        "f7658ce2d76981975594bca169b4e5826ca98b311a190ffd7e0d8dbfdc142e60",
    "scenario-dpoisson/results.csv":
        "c924bb1e2e279db606610b31772eff37bbf5c306e7735202ed35e4784a424ec7",
    "scenario-dpoisson/summary.csv":
        "dbcbdb8ca6d803556c5bc99f7ee19b8732b221ed30fdd3723390aed1cf27b26f",
    "scenario-dpoisson/truth.csv":
        "30bbf02d9d55e2fa227e926107c5c781fe00c388d773d96630b020a0f2193373",
    "scenario-gaussian/cv_bernoulli.csv":
        "505ac48cb80a1c78125919aa6bb5cca16b6ebf8851f19f810af674eb2db04e49",
    "scenario-gaussian/cv_gaussian.csv":
        "e5f872e981a160e2c3414b7ebd7beeb99f9f518dad090daff858cc7d01ca0563",
    "scenario-gaussian/cv_pmle.csv":
        "1373bf12f18c3750365675feb6c7380a61c71d92ce562b4a2ff8614c03bfe641",
    "scenario-gaussian/results.csv":
        "2e3c2b70eca4acdc61d71119987c29f6cdae5d1b87ff8bc73f479b129693e1ea",
    "scenario-gaussian/summary.csv":
        "aa9030177ef2063ca9dcea2c829204a602db8b15bfabc890fd3a5cca23c4dea2",
    "scenario-gaussian/truth.csv":
        "d3d0f614e779dc1a270e483509ac5ea29b4d8ff7e66cf4b742d2cc1934420d24",
    "simulate-dbinomial/data.csv":
        "43c71bb9023794da6398747864fd8e3061aa30d28fe3ef7007f2b62f2446802d",
    "simulate-dpoisson/data.csv":
        "c6c9a20fb39c8902ffd7c6487ca9e47c7345a9badf15589bde977bda825186e3",
    "simulate-gaussian/data.csv":
        "805219192adbeeb751966e3a5e58600c48e561c32234fe7f7aae06b8bd02896e",
    "traffic/cv.csv":
        "97c65436f72109791256ca4d155f6451e09c539943a6313c659e42b184c5ef47",
    "traffic/fitted.csv":
        "9f490ed0c60f5b2d00acbb7387edf93ebe6a1097d500ec78b5852f1765238bba",
}

# Manifest configs of the golden runs as this version writes them, with the
# input paths relative to the golden root.
WRITTEN_OPTIM = {"avg_window": 100, "batch_size": 20, "eps": 1e-06, "max_iters": 300,
                 "rho": 0.95}
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
