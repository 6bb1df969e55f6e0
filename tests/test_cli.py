import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dropglm import families as fam
from dropglm.cli import main
from dropglm.runio import read_rows, write_csv


LEAN_OPTIM = {"batch_size": 20, "max_iters": 400, "avg_window": 200}


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


def write_xy(path: Path, x) -> str:
    """An x,y data CSV with y = sin(2 pi x), and y = 0 where x is not finite."""
    y = np.sin(2 * np.pi * np.nan_to_num(x))
    write_csv(path, ["x", "y"], np.column_stack([x, y]))
    return str(path)


def read_table(path) -> tuple:
    """(header, rows) of an output CSV, rows as lists of strings."""
    header, *rows = read_rows(path)
    return header, rows


def small_model(tmp_path: Path) -> str:
    return write_config(tmp_path / "model.json",
                        {"family": "gaussian", "mean_knots": 5, "disp_knots": 4,
                         "optim": LEAN_OPTIM})


# A fit manifest's config without its input file (the test adds "data").
FIT_CONFIG = {"model": {"family": "gaussian", "mean_knots": 5, "disp_knots": 4,
                        "optim": LEAN_OPTIM},
              "method": "bernoulli", "params": [0.1, 0.1], "seed": 0}
# The same for a cv manifest.
CV_CONFIG = {"model": FIT_CONFIG["model"], "method": "bernoulli", "samples": 2,
             "folds": 2, "seed": 0}


def scenario_payload(**overrides):
    payload = {"family": "gaussian", "disp_index": 1, "n": 60, "replicates": 2,
               "cv_samples": 2, "cv_folds": 2, "seed": 7, "optim": LEAN_OPTIM}
    payload.update(overrides)
    return payload


class TestSimulate:
    def test_writes_rows_and_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload(n=250))
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "a")) == 0
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "b")) == 0
        a = (tmp_path / "a" / "data.csv").read_bytes()
        b = (tmp_path / "b" / "data.csv").read_bytes()
        assert a == b
        with (tmp_path / "a" / "data.csv").open(encoding="utf-8") as handle:
            assert handle.readline() == "# manifest: manifest.json\n"
        header, rows = read_table(tmp_path / "a" / "data.csv")
        assert header == ["x", "y"]
        assert len(rows) == 250

    def test_binomial_values_in_range(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           scenario_payload(family="dbinomial", n=100))
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        _, rows = read_table(tmp_path / "o" / "data.csv")
        y = np.array([float(r[1]) for r in rows])
        assert np.all((y >= 0) & (y <= 70))

    def test_invalid_family_exits_2_and_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload(family="weibull"))
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "family" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload(bogus=1))
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "family": "gaussian",\n}\n')
        assert run_cli("simulate", "--config", str(bad), "--out",
                       str(tmp_path / "o")) == 2
        assert "line" in capsys.readouterr().err

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload(n=50))
        run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "a"))
        run_cli("simulate", "--config", cfg, "--seed", "99", "--out",
                str(tmp_path / "b"))
        a = (tmp_path / "a" / "data.csv").read_bytes()
        b = (tmp_path / "b" / "data.csv").read_bytes()
        assert a != b


class TestScenario:
    def test_file_contract_and_rerun(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload())
        out = tmp_path / "run"
        assert run_cli("scenario", "--config", cfg, "--methods", "bernoulli,pmle",
                       "--out", str(out)) == 0
        for name in ("results.csv", "summary.csv", "truth.csv", "cv_bernoulli.csv",
                     "cv_pmle.csv", "manifest.json"):
            assert (out / name).exists()

        rerun_dir = tmp_path / "rerun"
        assert run_cli("rerun", str(out / "manifest.json"), "--out",
                       str(rerun_dir)) == 0
        for name in ("results.csv", "summary.csv", "truth.csv", "cv_bernoulli.csv"):
            assert (out / name).read_bytes() == (rerun_dir / name).read_bytes()

    def test_summary_recomputable_from_results(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload(replicates=4))
        out = tmp_path / "run"
        run_cli("scenario", "--config", cfg, "--methods", "bernoulli", "--out",
                str(out))
        rhead, rrows = read_table(out / "results.csv")
        shead, srows = read_table(out / "summary.csv")
        vals = np.array([float(r[rhead.index("rmse_disp")]) for r in rrows
                         if r[rhead.index("diverged")] == "0"])
        row = [r for r in srows if r[2] == "rmse_disp"][0]
        assert float(row[shead.index("median")]) == pytest.approx(
            float(np.quantile(vals, 0.5)), rel=1e-12)
        assert float(row[shead.index("q95")]) == pytest.approx(
            float(np.quantile(vals, 0.95)), rel=1e-12)

    def test_unknown_method_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload())
        assert run_cli("scenario", "--config", cfg, "--methods", "lasso",
                       "--out", str(tmp_path / "o")) == 2


class TestCvAndFit:
    def _make_data(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", scenario_payload(n=80))
        run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "data"))
        return str(tmp_path / "data" / "data.csv")

    def _model_cfg(self, tmp_path, **overrides):
        payload = {"family": "gaussian", "phi": 0.64, "mean_knots": 8,
                   "disp_knots": 5, "optim": LEAN_OPTIM}
        payload.update(overrides)
        return write_config(tmp_path / "model.json", payload)

    def test_cv_single_sample(self, tmp_path):
        data = self._make_data(tmp_path)
        model = self._model_cfg(tmp_path)
        out = tmp_path / "cv"
        assert run_cli("cv", "--data", data, "--config", model, "--method",
                       "bernoulli", "--samples", "1", "--folds", "2",
                       "--seed", "3", "--out", str(out)) == 0
        header, rows = read_table(out / "cv.csv")
        assert len(rows) == 1
        assert rows[0][header.index("selected_flag")] == "1"

    def test_fit_writes_curves_and_coefficients(self, tmp_path):
        data = self._make_data(tmp_path)
        model = self._model_cfg(tmp_path)
        out = tmp_path / "fit"
        assert run_cli("fit", "--data", data, "--config", model, "--method",
                       "pmle", "--params", "10,10", "--seed", "3",
                       "--out", str(out)) == 0
        header, rows = read_table(out / "curve.csv")
        assert header == ["x", "mean", "dispersion"]
        assert len(rows) == 501
        disp = np.array([float(r[2]) for r in rows])
        assert np.all(disp > 0)
        _, coef_rows = read_table(out / "coefficients.csv")
        assert len(coef_rows) == 8 + 5

    def test_fit_rerun_reproduces_bytes(self, tmp_path):
        data = self._make_data(tmp_path)
        model = self._model_cfg(tmp_path)
        out = tmp_path / "fit"
        run_cli("fit", "--data", data, "--config", model, "--method", "bernoulli",
                "--params", "0.2,0.3", "--seed", "5", "--out", str(out))
        rerun = tmp_path / "fit2"
        assert run_cli("rerun", str(out / "manifest.json"), "--out", str(rerun)) == 0
        assert (out / "curve.csv").read_bytes() == (rerun / "curve.csv").read_bytes()

    def test_rerun_detects_modified_input(self, tmp_path, capsys):
        data = self._make_data(tmp_path)
        model = self._model_cfg(tmp_path)
        out = tmp_path / "fit"
        run_cli("fit", "--data", data, "--config", model, "--method", "bernoulli",
                "--params", "0.2,0.3", "--seed", "5", "--out", str(out))
        Path(data).write_text(Path(data).read_text().replace("0.", "1.", 1))
        assert run_cli("rerun", str(out / "manifest.json"), "--out",
                       str(tmp_path / "r")) == 3


def make_traffic_csv(path: Path, days=40, wrap_hour=False):
    """Synthetic double-Poisson counts: bimodal mean with a morning
    overdispersion dip; returns the truth peak hours."""
    rng = np.random.default_rng(1234)
    kernel = fam.PoissonKernel()
    hours = np.tile(np.arange(24, dtype=float), days)
    mean = (150.0 + 400.0 * np.exp(-((hours - 8.0) ** 2) / (2 * 1.5**2))
            + 350.0 * np.exp(-((hours - 17.5) ** 2) / (2 * 1.5**2)))
    gamma = np.exp(-0.9 * np.exp(-((hours - 6.0) ** 2) / (2 * 2.0**2)))
    counts = fam.def_sample_each(kernel, np.log(mean), gamma, rng)
    lines = ["sensor,direction,date,hour,count"]
    day = 0
    for i, (h, c) in enumerate(zip(hours, counts)):
        if i and h == 0:
            day += 1
        hour = int(h)
        if wrap_hour and hour == 0:
            hour = 24  # exercised: 24 must wrap to 0
        lines.append(f"W1,inbound,2019-{6 + day // 30:02d}-{day % 30 + 1:02d},"
                     f"{hour},{int(c)}")
    path.write_text("\n".join(lines) + "\n")
    return 8.0, 17.5


def write_input(path: Path, command: str) -> Path:
    """A small input file for ``command``: a traffic snapshot or x,y data."""
    if command == "traffic":
        make_traffic_csv(path, days=3)
    else:
        write_xy(path, np.linspace(0, 1, 40))
    return path


def csv_outputs(tmp_path: Path, command: str, data: Path, name: str) -> dict:
    """Run ``cv``, ``fit`` or ``traffic`` on ``data`` with small settings into
    ``tmp_path / name``; {file name: bytes} of its output CSVs."""
    if command == "traffic":
        rest = ["--sensor", "W1", "--direction", "inbound", "--samples", "1",
                "--folds", "2", "--config",
                write_config(tmp_path / "optim.json", {"optim": LEAN_OPTIM})]
    else:
        rest = ["--config", small_model(tmp_path), "--method", "bernoulli",
                *(["--samples", "2", "--folds", "2"] if command == "cv"
                  else ["--params", "0.1,0.1"])]
    out = tmp_path / name
    assert run_cli(command, "--data", str(data), *rest, "--out", str(out)) == 0
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def local_maxima(grid, values):
    peaks = []
    n = len(values)
    for i in range(n):
        prev = values[(i - 1) % n]
        nxt = values[(i + 1) % n]
        if values[i] > prev and values[i] >= nxt:
            peaks.append((values[i], grid[i]))
    peaks.sort(reverse=True)
    return [h for _, h in peaks]


class TestTraffic:
    def test_recovers_bimodal_peaks(self, tmp_path):
        csv_path = tmp_path / "traffic.csv"
        p1, p2 = make_traffic_csv(csv_path)
        optim_cfg = write_config(tmp_path / "optim.json",
                                 {"optim": {"max_iters": 3000, "avg_window": 1000}})
        out = tmp_path / "run"
        assert run_cli("traffic", "--data", str(csv_path), "--sensor", "W1",
                       "--direction", "inbound", "--noise", "bernoulli",
                       "--samples", "4", "--folds", "3", "--seed", "11",
                       "--config", optim_cfg, "--out", str(out)) == 0
        header, rows = read_table(out / "fitted.csv")
        assert header == ["hour", "mean", "dispersion"]
        assert len(rows) == 241
        grid = np.array([float(r[0]) for r in rows])
        mean = np.array([float(r[1]) for r in rows])
        peaks = local_maxima(grid, mean)[:2]
        assert min(abs(h - p1) for h in peaks) <= 1.0
        assert min(abs(h % 24 - p2) for h in peaks) <= 1.0

    def test_hour_24_wraps(self, tmp_path):
        plain = tmp_path / "a.csv"
        wrapped = tmp_path / "b.csv"
        make_traffic_csv(plain, days=8)
        make_traffic_csv(wrapped, days=8, wrap_hour=True)
        optim_cfg = write_config(tmp_path / "optim.json", {"optim": LEAN_OPTIM})
        for name, path in (("a", plain), ("b", wrapped)):
            assert run_cli("traffic", "--data", str(path), "--sensor", "W1",
                           "--direction", "inbound", "--samples", "1",
                           "--folds", "2", "--seed", "4", "--config", optim_cfg,
                           "--out", str(tmp_path / name / "out")) == 0
        a = (tmp_path / "a" / "out" / "fitted.csv").read_bytes()
        b = (tmp_path / "b" / "out" / "fitted.csv").read_bytes()
        assert a == b
        # --samples 1 degenerates CV to a single evaluated pair.
        _, cv_rows = read_table(tmp_path / "a" / "out" / "cv.csv")
        assert len(cv_rows) == 1

    def test_reader_is_pinned_on_an_adversarial_snapshot(self, tmp_path):
        # Byte-order mark, CRLF endings, comment and blank lines after the
        # header, a repeated column name (its last occurrence is read), extra
        # and missing fields, bad dates, hours and counts, hour 24 and
        # duplicate keys: the parsed records and the reject count are pinned.
        import hashlib

        from dropglm.traffic import read_traffic_csv

        lines = [
            "sensor,hour,direction,note,date,count,hour",
            "# a comment after the header",
            "",
            "W1,99,inbound,ok,2019-06-01,10,0",
            "W1,99,inbound,ok,2019-06-01,11,1",
            " W2 ,x, Outbound ,,2019-06-01,12,24",
            "W2,x,outbound,,2019-06-01,13,0",
            "",
            "# another comment",
            "W1,0,inbound,dup,2019-06-01,14,1",
            "W1,0,inbound",
            "W1,0,inbound,short,2019-06-02,5",
            "W1,0,inbound,x,2019-06-31,5,3",
            "W1,0,inbound,x,2019/06/02,5,3",
            "W1,0,inbound,x,2019-06-02,5,25",
            "W1,0,inbound,x,2019-06-02,5,-1",
            "W1,0,inbound,x,2019-06-02,5,3.5",
            "W1,0,inbound,x,2019-06-02,-5,3",
            "W1,0,inbound,x,2019-06-02,five,3",
            "W1,0,inbound,x,2019-06-02, 7 ,4",
            "W1,0,sideways,x,2019-06-02,5,5",
            'W1,0,inbound,"quoted, note",2019-06-02,8,6,extra,fields',
            "W1,0,inbound,x,2019-06-02,9,24",
            "W1,0,inbound,x,2019-06-02,9,0",
        ]
        path = tmp_path / "snapshot.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n")
        data = read_traffic_csv(path)
        assert (len(data.records), data.rejected) == (6, 13)
        digest = hashlib.sha256(repr((data.records, data.rejected)).encode()).hexdigest()
        assert digest == "5e7c3c060e5016877f842c0603f10f4b25d02c130e39f290e71841db7d1cbf4c"


class TestExitCodes:
    def test_numeric_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        from dropglm import cli as cli_mod
        from dropglm.errors import NumericError

        def boom(run):
            raise NumericError("synthetic numeric failure")

        monkeypatch.setattr(cli_mod.SimulateRun, "tables", boom)
        cfg = write_config(tmp_path / "cfg.json", scenario_payload())
        out = tmp_path / "new" / "o"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 4
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        # An --out that existed before the failed run is left as it was.
        out.mkdir(parents=True)
        (out / "keep.txt").write_text("kept")
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 4
        assert (out / "keep.txt").read_text() == "kept"

    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_out_that_cannot_be_created_exits_2(self, tmp_path, capsys, monkeypatch,
                                                target):
        from dropglm import cli as cli_mod

        def never(run):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(cli_mod.SimulateRun, "tables", never)
        (tmp_path / "file").write_text("not a directory")
        cfg = write_config(tmp_path / "cfg.json", scenario_payload())
        assert run_cli("simulate", "--config", cfg,
                       "--out", str(tmp_path / target)) == 2
        assert "--out" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "not a directory"

    def test_unknown_sensor_exits_3_with_available_keys(self, tmp_path, capsys):
        csv_path = tmp_path / "traffic.csv"
        make_traffic_csv(csv_path, days=3)
        assert run_cli("traffic", "--data", str(csv_path), "--sensor", "NOPE",
                       "--direction", "inbound", "--samples", "1", "--folds", "2",
                       "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "W1" in err and "inbound" in err

    @pytest.mark.parametrize("command", ["cv", "fit", "traffic"])
    def test_missing_data_file_exits_3(self, tmp_path, capsys, command):
        model = small_model(tmp_path)
        rest = {"cv": ["--config", model, "--method", "bernoulli"],
                "fit": ["--config", model, "--method", "bernoulli",
                        "--params", "0.1,0.1"],
                "traffic": ["--sensor", "W1", "--direction", "inbound"]}[command]
        assert run_cli(command, "--data", str(tmp_path / "absent.csv"), *rest,
                       "--out", str(tmp_path / "o")) == 3
        assert "absent.csv" in capsys.readouterr().err

    def test_rerun_of_missing_manifest_exits_2(self, tmp_path):
        assert run_cli("rerun", str(tmp_path / "manifest.json"), "--out",
                       str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("command", ["traffic", "rerun"])
    def test_non_object_json_exits_2(self, tmp_path, command):
        listing = write_config(tmp_path / "list.json", [1])
        argv = (["rerun", listing] if command == "rerun" else
                ["traffic", "--data", str(tmp_path / "t.csv"), "--sensor", "W1",
                 "--direction", "inbound", "--config", listing])
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2

    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal of more than 4,300 digits, and a RecursionError for
    # arrays nested too deep.
    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "[" * 100_000])
    @pytest.mark.parametrize("command", ["simulate", "rerun"])
    def test_json_past_the_parser_limits_exits_2(self, tmp_path, capsys, command,
                                                 value):
        if command == "simulate":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(scenario_payload(n="N")).replace('"N"', value))
            argv = ["simulate", "--config", str(path)]
        else:
            path = tmp_path / "manifest.json"
            path.write_text(f'{{"command": "simulate", "config": {{"replicate": {value}}}}}')
            argv = ["rerun", str(path)]
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_with_vanished_input_exits_3(self, tmp_path):
        data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
        model = small_model(tmp_path)
        out = tmp_path / "fit"
        assert run_cli("fit", "--data", data, "--config", model, "--method",
                       "bernoulli", "--params", "0.1,0.1", "--out", str(out)) == 0
        Path(data).unlink()
        assert run_cli("rerun", str(out / "manifest.json"), "--out",
                       str(tmp_path / "r")) == 3

    def test_rerun_of_manifest_with_retired_stop_keys_exits_2(self, tmp_path, capsys):
        # Manifests of versions with a stationarity stop list its three keys
        # in 'optim'; their outputs cannot be reproduced without the stop.
        data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
        out = tmp_path / "fit"
        assert run_cli("fit", "--data", data, "--config", small_model(tmp_path),
                       "--method", "bernoulli", "--params", "0.1,0.1",
                       "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["model"]["optim"] |= {"window": 200, "tol": 1e-6,
                                                 "trace_every": 100}
        path = write_config(tmp_path / "old.json", manifest)
        again = tmp_path / "again"
        assert run_cli("rerun", path, "--out", str(again)) == 2
        assert "unknown keys ['tol', 'trace_every', 'window']" in capsys.readouterr().err
        assert not again.exists()

    @pytest.mark.parametrize("command", ["cv", "fit", "traffic"])
    def test_digestless_rerun_with_missing_input_exits_3(self, tmp_path, capsys,
                                                          command):
        # A manifest without a data_sha256 reads its input unchecked, so the
        # reader itself must report the missing file.
        data = str(tmp_path / "absent.csv")
        config = {"cv": CV_CONFIG, "fit": FIT_CONFIG,
                  "traffic": {"sensor": "W1", "direction": "inbound",
                              "noise": "bernoulli", "samples": 1, "folds": 2,
                              "seed": 0, "optim": LEAN_OPTIM}}[command]
        path = write_config(tmp_path / "manifest.json",
                            {"command": command, "config": config | {"data": data}})
        out = tmp_path / "o"
        assert run_cli("rerun", path, "--out", str(out)) == 3
        assert data in capsys.readouterr().err
        assert not out.exists()

    # The last three have a header but a malformed row.
    @pytest.mark.parametrize("text", ["", "# only a comment\n", "x,y\n0.5\n",
                                      "x,y\n0.5,abc\n", "x,y\n0.5,1.0,999\n"])
    def test_data_without_header_exits_3(self, tmp_path, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        model = small_model(tmp_path)
        assert run_cli("fit", "--data", str(data), "--config", model, "--method",
                       "bernoulli", "--params", "0.1,0.1",
                       "--out", str(tmp_path / "o")) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cells", ["0.5,1_0", "0_5,1.0"])
    def test_underscore_in_a_number_exits_3(self, tmp_path, capsys, cells):
        # float() reads 1_0 as 10.0; an x,y cell holds a plain number.
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.25,1.0\n" + cells + "\n")
        assert run_cli("fit", "--data", str(data), "--config", small_model(tmp_path),
                       "--method", "bernoulli", "--params", "0.1,0.1",
                       "--out", str(tmp_path / "o")) == 3
        assert "_" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cells,bad", [("0.1,\u0663", "\u0663"),
                                           ("\uff10.\uff15,1.0", "\uff10.\uff15"),
                                           ("0.1,\uff11\uff12", "\uff11\uff12")])
    def test_non_ascii_digits_exit_3(self, tmp_path, capsys, cells, bad):
        # float() reads the Arabic-Indic three as 3.0 and full-width digits as
        # their ASCII twins; an x,y cell holds a plain ASCII number.
        data = Path(write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40)))
        data.write_text(data.read_text() + cells + "\n")
        assert run_cli("fit", "--data", str(data), "--config", small_model(tmp_path),
                       "--method", "bernoulli", "--params", "0.1,0.1",
                       "--out", str(tmp_path / "o")) == 3
        assert repr(bad) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_plain_ascii_numbers_still_read(self, tmp_path):
        from dropglm.cli import _read_xy

        data = tmp_path / "data.csv"
        data.write_text("x,y\n1e-3, -2.5 \n+0.5,1.0\n")
        x, y = _read_xy(data)
        assert x.tolist() == [0.001, 0.5] and y.tolist() == [-2.5, 1.0]

    @pytest.mark.parametrize("command", ["cv", "fit"])
    def test_non_finite_x_exits_3(self, tmp_path, capsys, command):
        x = np.linspace(0, 1, 40)
        x[7] = np.nan
        data = write_xy(tmp_path / "data.csv", x)
        model = small_model(tmp_path)
        rest = (["--samples", "2", "--folds", "2"] if command == "cv"
                else ["--params", "0.1,0.1"])
        assert run_cli(command, "--data", data, "--config", model, "--method",
                       "bernoulli", *rest, "--out", str(tmp_path / "o")) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_traffic_final_fit_divergence_exits_4(self, tmp_path, capsys, monkeypatch):
        from dropglm import traffic
        from dropglm.optim import FitResult

        def diverged(spec, y, method, params, config, rng):
            return FitResult(beta=np.full(spec.X.shape[1], np.nan),
                             alpha=np.zeros(spec.Z.shape[1]), n_iter=1,
                             termination="max-iter")

        # The CV fits go through tuning's own binding, so only the final fit
        # diverges.
        monkeypatch.setattr(traffic, "fit_method", diverged)
        data = write_input(tmp_path / "traffic.csv", "traffic")
        out = tmp_path / "o"
        assert run_cli("traffic", "--data", str(data), "--sensor", "W1", "--direction",
                       "inbound", "--samples", "1", "--folds", "2", "--config",
                       write_config(tmp_path / "optim.json", {"optim": LEAN_OPTIM}),
                       "--out", str(out)) == 4
        assert "final fit diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_cv_without_finite_sample_exits_4(self, tmp_path, capsys, monkeypatch):
        from dropglm import tuning
        from dropglm.optim import FitResult

        def diverged(spec, y, method, params, config, rngs, rows):
            # One diverged result per fit of the lockstep group.
            return [FitResult(beta=np.full(spec.X.shape[1], np.nan),
                              alpha=np.zeros(spec.Z.shape[1]), n_iter=1,
                              termination="max-iter")
                    for _ in rows]

        monkeypatch.setattr(tuning, "fit_method", diverged)
        data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
        model = small_model(tmp_path)
        assert run_cli("cv", "--data", data, "--config", model, "--method",
                       "bernoulli", "--samples", "2", "--folds", "2",
                       "--out", str(tmp_path / "o")) == 4
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("method,params", [("gaussian", "nan,0"),
                                               ("gaussian", "inf,0"),
                                               ("pmle", "nan,0")])
    def test_non_finite_params_exit_2(self, tmp_path, capsys, method, params):
        data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
        model = small_model(tmp_path)
        assert run_cli("fit", "--data", data, "--config", model, "--method", method,
                       "--params", params, "--out", str(tmp_path / "o")) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_huge_pmle_weight_exits_4(self, tmp_path, capsys):
        # The penalty gradient is finite but its square overflows, so no
        # step can be taken: the fit diverges instead of returning its start.
        data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 60))
        model = small_model(tmp_path)
        assert run_cli("fit", "--data", data, "--config", model, "--method", "pmle",
                       "--params", "1e308,0", "--out", str(tmp_path / "o")) == 4
        assert "diverged" in capsys.readouterr().err

    def test_non_finite_rect_exits_2(self, tmp_path, capsys):
        data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
        model = write_config(tmp_path / "model.json",
                             {"family": "gaussian", "mean_knots": 5, "disp_knots": 4,
                              "rect": [[0, float("nan")], [0, 1]],
                              "optim": LEAN_OPTIM})
        assert "NaN" in Path(model).read_text()
        assert run_cli("cv", "--data", data, "--config", model, "--method",
                       "gaussian", "--samples", "2", "--folds", "2",
                       "--out", str(tmp_path / "o")) == 2
        assert "rectangle" in capsys.readouterr().err

    @pytest.mark.parametrize("rect", [[["0", "0.5"], [True, "1"]],
                                      [[0, "0.5"], [0, 1]], [[0, 0.5], [True, 1]]])
    def test_string_or_bool_rect_exits_2(self, tmp_path, capsys, rect):
        data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
        model = write_config(tmp_path / "model.json",
                             {"family": "gaussian", "mean_knots": 5, "disp_knots": 4,
                              "rect": rect, "optim": LEAN_OPTIM})
        out = tmp_path / "o"
        assert run_cli("cv", "--data", data, "--config", model, "--method",
                       "gaussian", "--samples", "2", "--folds", "2",
                       "--out", str(out)) == 2
        assert "'rect' entries must be JSON numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("manifest,named", [
        ({"command": "fit", "config": {}}, "'model'"),
        ({"command": "traffic", "config": {}}, "'data'"),
        ({"command": "fit"}, "config"),
        ({"command": "fit", "config": FIT_CONFIG | {"params": ["a", 0]}}, "'params'"),
        ({"command": "fit", "config": FIT_CONFIG | {"params": 5}}, "'params'"),
        ({"command": "fit", "config": FIT_CONFIG | {"seed": "x"}}, "'seed'"),
        # Text only the type error prints: the unknown-key message also names
        # 'samples', among the allowed keys.
        pytest.param({"command": "cv", "config": CV_CONFIG | {"samples": "many"}},
                     "'samples' must be a JSON int", id="manifest6-'samples'"),
        # Manifests written while OptimConfig had a seed field carry it as null.
        ({"command": "fit", "config": FIT_CONFIG | {"model": FIT_CONFIG["model"] | {
            "optim": LEAN_OPTIM | {"seed": None}}}}, "'seed'")])
    def test_rerun_of_malformed_config_exits_2(self, tmp_path, capsys, manifest,
                                               named):
        if "model" in manifest.get("config", {}):
            data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
            manifest = dict(manifest, config=dict(manifest["config"], data=data))
        path = write_config(tmp_path / "manifest.json", manifest)
        assert run_cli("rerun", path, "--out", str(tmp_path / "o")) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "replicate", 1.5), ("simulate", "replicate", True),
        ("simulate", "replicate", -1),
        ("scenario", "methods", []), ("scenario", "methods", ["lasso"]),
        ("scenario", "methods", ["bernoulli", "bernoulli"]),
        ("cv", "samples", 2.5), ("cv", "folds", "2"), ("fit", "seed", True),
        ("traffic", "summer_2019", "false"), ("traffic", "sensor", 5),
        ("traffic", "direction", 5), ("traffic", "seed", 1.5),
        ("traffic", "mean_knots", 6.5), ("traffic", "disp_knots", "4"),
        ("cv", "method", "lasso"), ("fit", "method", "lasso"),
        ("traffic", "direction", "sideways"), ("traffic", "direction", "Inbound"),
        ("traffic", "noise", "laplace")])
    def test_rerun_of_mistyped_value_exits_2(self, tmp_path, capsys, command, key,
                                             value):
        data = tmp_path / "data.csv"
        if command == "simulate":
            config = {"scenario": scenario_payload(), "replicate": 0}
        elif command == "scenario":
            config = {"scenario": scenario_payload(), "methods": ["bernoulli"]}
        elif command == "traffic":
            make_traffic_csv(data, days=3)
            config = {"data": str(data), "sensor": "W1", "direction": "inbound",
                      "noise": "bernoulli", "samples": 1, "folds": 2, "seed": 0,
                      "summer_2019": False, "mean_knots": 6, "disp_knots": 4,
                      "optim": LEAN_OPTIM}
        else:
            config = FIT_CONFIG | {"data": write_xy(data, np.linspace(0, 1, 40))}
            if command == "cv":
                del config["params"]
                config |= {"samples": 2, "folds": 2}
        path = write_config(tmp_path / "manifest.json",
                            {"command": command, "config": config | {key: value}})
        assert run_cli("rerun", path, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "unknown keys" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "traffic"])
    @pytest.mark.parametrize("kind", ["not-utf8", "huge-field"])
    def test_undecodable_or_oversized_data_exits_3(self, tmp_path, capsys, command,
                                                   kind):
        header, row = {"fit": (b"x,y\n", b"0.5,"),
                       "traffic": (b"sensor,direction,date,hour,count\n",
                                   b"W1,inbound,2019-06-01,3,")}[command]
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xff\xfe" + header if kind == "not-utf8"
                         else header + row + b"1" * 200_000 + b"\n")
        rest = (["--config", small_model(tmp_path), "--method", "bernoulli",
                 "--params", "0.1,0.1"] if command == "fit"
                else ["--sensor", "W1", "--direction", "inbound"])
        assert run_cli(command, "--data", str(data), *rest,
                       "--out", str(tmp_path / "o")) == 3
        assert "data.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cv", "fit", "traffic"])
    def test_byte_order_mark_is_read_past(self, tmp_path, command):
        # Spreadsheet tools save UTF-8 CSVs with a byte-order mark; the data
        # reads as it does without one, to the same outputs.
        plain = write_input(tmp_path / "plain.csv", command)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert (csv_outputs(tmp_path, command, marked, "marked")
                == csv_outputs(tmp_path, command, plain, "plain"))

    @pytest.mark.parametrize("command", ["fit", "simulate", "rerun"])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_bytes(b'\xff\xfe{"family": "gaussian"}')
        argv = {"fit": ["fit", "--data", write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40)),
                        "--config", str(config), "--method", "bernoulli",
                        "--params", "0.1,0.1"],
                "simulate": ["simulate", "--config", str(config)],
                "rerun": ["rerun", str(config)]}[command]
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
        assert "UTF-8" in capsys.readouterr().err

    @staticmethod
    def assert_config_exits_2(tmp_path, capsys, command, overrides, named):
        """A first run whose config carries ``overrides`` exits 2 naming
        ``named`` and leaves no output directory."""
        if command == "fit":
            model = write_config(tmp_path / "model.json",
                                 {"family": "gaussian", "mean_knots": 5,
                                  "disp_knots": 4, "optim": LEAN_OPTIM} | overrides)
            argv = ["fit", "--data", write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40)),
                    "--config", model, "--method", "bernoulli", "--params", "0.1,0.1"]
        else:
            argv = ["simulate", "--config",
                    write_config(tmp_path / "cfg.json", scenario_payload(**overrides))]
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,overrides,named", [
        ("fit", {"phi": np.inf}, "phi"),
        ("fit", {"phi": np.nan}, "phi"),
        ("fit", {"hi": np.inf}, "hi"),
        # rho, eps, a scenario's phi and kappa are retired keys, unknown
        # whatever their value (test_retired_key_exits_2).
        ("fit", {"optim": LEAN_OPTIM | {"rho": np.nan}}, "rho"),
        ("fit", {"optim": LEAN_OPTIM | {"eps": np.inf}}, "eps"),
        ("simulate", {"family": "dpoisson", "phi": np.inf}, "phi"),
        ("simulate", {"family": "dbinomial", "trials": np.inf}, "trials"),
        ("simulate", {"family": "dbinomial", "trials": np.nan}, "trials"),
        ("fit", {"mean_knots": np.inf}, "'mean_knots'"),
        ("fit", {"optim": LEAN_OPTIM | {"avg_window": np.nan}}, "'avg_window'"),
        ("fit", {"optim": LEAN_OPTIM | {"max_iters": np.inf}}, "'max_iters'"),
        ("simulate", {"kappa": np.inf}, "'kappa'")])
    def test_non_finite_config_number_exits_2(self, tmp_path, capsys, command,
                                              overrides, named):
        self.assert_config_exits_2(tmp_path, capsys, command, overrides, named)

    @pytest.mark.parametrize("command,overrides,named", [
        ("fit", {"mean_knots": 5.5}, "'mean_knots'"),
        ("fit", {"optim": LEAN_OPTIM | {"max_iters": 2.5}}, "'max_iters'"),
        ("fit", {"optim": LEAN_OPTIM | {"batch_size": 2.5}}, "'batch_size'"),
        ("fit", {"optim": LEAN_OPTIM | {"avg_window": 1.5}}, "'avg_window'"),
        ("fit", {"optim": LEAN_OPTIM | {"rho": "0.9"}}, "'rho'"),  # retired key
        ("fit", {"boundary": 1}, "'boundary'"),
        ("simulate", {"disp_index": True}, "'disp_index'"),
        ("simulate", {"n": 40.5}, "'n'"),
        ("simulate", {"mean_knots": 5.5}, "'mean_knots'"),
        ("simulate", {"seed": -5}, "seed"),
        ("fit", {"rect": [[0, 1], [0, 1], [5, 6]]}, "'rect'"),
        ("fit", {"rect": [[0, 1]]}, "'rect'")])
    def test_mistyped_or_negative_config_value_exits_2(self, tmp_path, capsys, command,
                                                       overrides, named):
        self.assert_config_exits_2(tmp_path, capsys, command, overrides, named)

    def test_binomial_trials_under_the_mean_peak_exits_2(self, tmp_path, capsys):
        # 60 trials lie under f2's peak of about 68.56: refused whatever x is
        # drawn, also when no draw of a 50-row dataset lands near the peak.
        overrides = {"family": "dbinomial", "trials": 60, "n": 50, "seed": 0}
        self.assert_config_exits_2(tmp_path, capsys, "simulate", overrides, "trials")

    @pytest.mark.parametrize("source", ["config", "rerun"])
    @pytest.mark.parametrize("key,value", [("rho", 0.95), ("eps", 1e-6),
                                           ("mean_index", 2), ("kappa", 500),
                                           ("phi", 1.0)])
    def test_retired_key_exits_2(self, tmp_path, capsys, source, key, value):
        # Constants since: ADADELTA's rho and eps, the scenario's mean test
        # function, grid size and scale.  A config or manifest naming one,
        # even at its constant's value, is refused and the key named.
        scenario = scenario_payload(family="dpoisson")
        if key in ("rho", "eps"):
            scenario["optim"] = LEAN_OPTIM | {key: value}
        else:
            scenario[key] = value
        if source == "config":
            argv = ["simulate", "--config", write_config(tmp_path / "cfg.json", scenario)]
        else:
            argv = ["rerun", write_config(tmp_path / "manifest.json", {
                "command": "simulate", "config": {"scenario": scenario, "replicate": 0}})]
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,named", [
        ("simulate", ["--seed", "-1"], "seed"),
        ("simulate", ["--replicate", "-1"], "'replicate'"),
        ("scenario", ["--methods", "bernoulli,bernoulli"], "'methods'"),
        ("scenario", ["--methods", ","], "'methods'"),
        ("cv", ["--seed", "-2"], "'seed'"),
        ("fit", ["--seed", "-1"], "'seed'"),
        ("traffic", ["--seed", "-1"], "'seed'"),
        # A traffic --config takes only an 'optim' section.
        ("traffic", ["--config", "cfg.json"], "'family'")])
    def test_bad_flag_exits_2_before_output(self, tmp_path, capsys, monkeypatch,
                                            command, flags, named):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", scenario_payload())
        if command == "traffic":
            make_traffic_csv(tmp_path / "data.csv", days=3)
        else:
            write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
        data = ["--data", str(tmp_path / "data.csv")]
        argv = {"simulate": ["--config", cfg],
                "scenario": ["--config", cfg],
                "cv": data + ["--config", small_model(tmp_path), "--method", "bernoulli",
                              "--samples", "2", "--folds", "2"],
                "fit": data + ["--config", small_model(tmp_path), "--method", "bernoulli",
                               "--params", "0.1,0.1"],
                "traffic": data + ["--sensor", "W1", "--direction", "inbound",
                                   "--samples", "1", "--folds", "2"]}[command]
        out = tmp_path / "o"
        assert run_cli(command, *argv, *flags, "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_every_loaded_config_field_is_type_checked(self):
        # A field the loader cannot check by its annotation must be checked by
        # its class's __post_init__ and listed here.
        from dropglm import cli
        from dropglm.optim import OptimConfig
        from dropglm.runio import _JSON_TYPES, field_types
        from dropglm.simlab import ScenarioConfig

        checked_in_post_init = {"rect", "params"}
        loaded = (OptimConfig, ScenarioConfig, cli.ModelConfig, cli.SimulateRun,
                  cli.ScenarioRun, cli.CvRun, cli.FitRun, cli.TrafficRun)
        assert set(cli.COMMANDS.values()) <= set(loaded)
        for cls in loaded:
            for f in dataclasses.fields(cls):
                kind = field_types(cls)[f.name]
                assert (kind in _JSON_TYPES or dataclasses.is_dataclass(kind)
                        or f.name in checked_in_post_init), (cls.__name__, f.name, kind)

    @pytest.mark.parametrize("command", ["simulate", "scenario"])
    def test_single_cv_fold_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload(cv_folds=1))
        methods = ["--methods", "bernoulli"] if command == "scenario" else []
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, *methods, "--out", str(out)) == 2
        assert "cv_folds" in capsys.readouterr().err
        assert not out.exists()

    def test_cells_outside_the_schema_are_rejected(self, tmp_path):
        # Python's int() and date.fromisoformat() read more than the schema
        # allows (and fromisoformat more from 3.11 on): underscores, signs
        # and non-ASCII digits in hour and count, basic and week dates.
        # Surrounding whitespace is still allowed.
        from dropglm.traffic import read_traffic_csv

        good = ["W1,inbound,2019-06-01, 7 ,5", "W1,inbound, 2019-06-01 ,8,\t12 "]
        bad = ["W1,inbound,2019-06-01,1_0,5", "W1,inbound,2019-06-01,9,1_2",
               "W1,inbound,2019-06-01,\u0663,5", "W1,inbound,2019-06-01,9,\u0663",
               "W1,inbound,2019-06-01,\uff11,5", "W1,inbound,2019-06-01,\u00b2,5",
               "W1,inbound,2019-06-01,+9,5", "W1,inbound,2019-06-01,9,+5",
               "W1,inbound,2019-06-01,,5", "W1,inbound,20190702,9,5",
               "W1,inbound,2019-W27-3,9,5", "W1,inbound,2019W273,9,5",
               "W1,inbound,2019-6-01,9,5", "W1,inbound,\u0662019-06-01,9,5"]
        path = tmp_path / "traffic.csv"
        path.write_text("\n".join(["sensor,direction,date,hour,count", *good, *bad])
                        + "\n", encoding="utf-8")
        data = read_traffic_csv(path)
        assert data.rejected == len(bad)
        assert [(r.date.isoformat(), r.hour, r.count) for r in data.records] == [
            ("2019-06-01", 7, 5), ("2019-06-01", 8, 12)]

    def test_malformed_rows_rejected_with_count(self, tmp_path):
        csv_path = tmp_path / "traffic.csv"
        make_traffic_csv(csv_path, days=3)
        with csv_path.open("a") as handle:
            handle.write("W1,inbound,2019-06-01,notanhour,5\n")
            handle.write("W1,sideways,2019-06-02,3,5\n")
            handle.write("W1,inbound,2019-06-01,3,-2\n")
            # Rows short of the required columns.
            handle.write("W1\n")
            handle.write("W1,inbound\n")
            handle.write("W1,inbound,2019-06-01,3\n")
        from dropglm.traffic import read_traffic_csv

        data = read_traffic_csv(csv_path)
        assert data.rejected == 6
        assert len(data.records) == 3 * 24

    @pytest.mark.parametrize("days,code", [(3, 0), (0, 3)])
    def test_short_row_is_rejected_not_a_crash(self, tmp_path, capsys, days, code):
        csv_path = tmp_path / "traffic.csv"
        make_traffic_csv(csv_path, days=days)
        with csv_path.open("a") as handle:
            handle.write("W1,inbound\n")
        optim_cfg = write_config(tmp_path / "optim.json", {"optim": LEAN_OPTIM})
        assert run_cli("traffic", "--data", str(csv_path), "--sensor", "W1",
                       "--direction", "inbound", "--samples", "1", "--folds", "2",
                       "--config", optim_cfg, "--out", str(tmp_path / "o")) == code
        if code:
            assert "no data for sensor" in capsys.readouterr().err


class TestCsvRoundTrip:
    def test_parse_serialize_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload(n=40))
        run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        source = tmp_path / "o" / "data.csv"
        header, rows = read_table(source)
        copy = tmp_path / "copy.csv"
        write_csv(copy, header, rows)
        assert source.read_bytes() == copy.read_bytes()

    def test_manifest_lists_outputs_with_digests(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario_payload(n=40))
        run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"][0]["path"] == "data.csv"
        from dropglm.runio import sha256_file

        assert manifest["outputs"][0]["sha256"] == sha256_file(
            tmp_path / "o" / "data.csv")

    def test_manifest_records_its_environment(self, tmp_path):
        # Reruns reproduce outputs to the bit only on the same builds.
        import platform

        import scipy

        data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
        assert run_cli("fit", "--data", data, "--config", small_model(tmp_path),
                       "--method", "bernoulli", "--params", "0.1,0.1",
                       "--out", str(tmp_path / "o")) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["environment"] == {"python": platform.python_version(),
                                           "numpy": np.__version__,
                                           "scipy": scipy.__version__}

    @pytest.mark.parametrize("value,text", [
        (3, "3"), (-2**63, "-9223372036854775808"), (np.int64(-7), "-7"),
        (np.uint8(255), "255"), (True, "1"), (False, "0"), (np.bool_(True), "1"),
        (np.bool_(False), "0"), (0.1, "0.1"), (2.0, "2.0"),
        (np.float64(1e-300), "1e-300"), (np.float64(-np.inf), "-inf"), ("W1", "W1")])
    def test_cell_text(self, value, text):
        from dropglm.runio import format_cell

        assert format_cell(value) == text

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    @pytest.mark.parametrize("seed", [999, "banana"])
    def test_rerun_records_the_seed_of_its_config(self, tmp_path, command, seed):
        if command == "simulate":
            config = {"scenario": scenario_payload(), "replicate": 0}
            expected = scenario_payload()["seed"]
        else:
            data = write_xy(tmp_path / "data.csv", np.linspace(0, 1, 40))
            config, expected = FIT_CONFIG | {"data": data}, FIT_CONFIG["seed"]
        path = write_config(tmp_path / "manifest.json",
                            {"command": command, "config": config, "seed": seed})
        assert run_cli("rerun", path, "--out", str(tmp_path / "o")) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == expected


class TestCsvInput:
    """Every CSV input is read by ``runio.read_rows``: comment and blank lines
    are left out wherever they stand, and line endings do not matter."""

    @pytest.mark.parametrize("variant", ["trailing-blank", "comment-after-header",
                                         "crlf", "blank-and-comment-before-header"])
    @pytest.mark.parametrize("command", ["cv", "fit", "traffic"])
    def test_layout_does_not_change_outputs(self, tmp_path, command, variant):
        clean = write_input(tmp_path / "clean.csv", command)
        text = clean.read_bytes()
        lines = text.splitlines(keepends=True)
        cut = next(i for i, line in enumerate(lines) if not line.startswith(b"#")) + 1
        head, body = b"".join(lines[:cut]), b"".join(lines[cut:])
        data = tmp_path / "data.csv"
        data.write_bytes({"trailing-blank": text + b"\n",
                          "comment-after-header": head + b"# a note\n" + body,
                          "crlf": text.replace(b"\n", b"\r\n"),
                          "blank-and-comment-before-header": b"\n# source\n\n" + text,
                          }[variant])
        assert (csv_outputs(tmp_path, command, data, "laid-out")
                == csv_outputs(tmp_path, command, clean, "clean"))

    def test_only_runio_imports_csv(self):
        import ast

        import dropglm

        importers = set()
        for path in Path(dropglm.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module]
                else:
                    continue
                if "csv" in names:
                    importers.add(path.stem)
        assert importers == {"runio"}
