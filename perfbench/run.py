"""dropglm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads (see workloads.py and
NOTES.md) make closed-loop calls to the public entry point
``dropglm.cli.main`` in this process, one call after another, for about
``--seconds`` seconds, and check every call's outputs.

``--trace 0`` prints the end-to-end metrics, with call times corrected for
the host's speed (hostspeed.py).  ``--trace 1`` repeats every call right
after it ran, with each layer wrapped by the span tracer (tracer.py), and
prints the per-layer metrics.  The last stdout line is the result object;
the two lines before it give the machine and a report with the workload's
quality figures.
"""

import os
import sys

# Cap BLAS threads at 1 (<= nproc) before numpy is loaded here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import tracer
from hostspeed import HostSpeed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SETUP_CODE = ("import numpy, scipy, dropglm.cli as cli; cli.build_parser(); "
              "print('ready', flush=True)")
# Host-speed reference for set-up: the third-party imports alone, whose
# median time on the 2-core host used for the bounds is REFERENCE_NOMINAL_S.
REFERENCE_CODE = "import numpy, scipy.special; print('ready', flush=True)"
REFERENCE_NOMINAL_S = 0.45

# Layers predicted to do work (calls > 0) on each workload; every other
# traced layer is predicted to stay at zero calls.
BUSY_LAYERS = {
    "desk-gaussian": {
        "cli", "optim.fit", "optim.adadelta_step", "dropout.NoiseSpec.draw",
        "pmle.DiffPenalty.gradient", "pmle.pmle_fit", "families.def_sample_each",
        "simlab.generate_dataset", "simlab.run_scenario", "tuning.random_search_cv",
        "tuning.fit_method", "model.loglik", "basis.design_matrix",
        "runio.write_csv", "runio.write_manifest", "runio.sha256_file"},
    "simulate-counts": {
        "cli", "families.def_sample_each", "simlab.generate_dataset",
        "runio.write_csv", "runio.write_manifest", "runio.sha256_file"},
    "traffic-summer": {
        "cli", "optim.fit", "optim.adadelta_step", "dropout.NoiseSpec.draw",
        "tuning.random_search_cv", "tuning.fit_method", "model.loglik",
        "basis.design_matrix", "traffic.read_traffic_csv", "traffic.select_series",
        "traffic.fit_traffic_model", "runio.write_csv", "runio.write_manifest",
        "runio.sha256_file"},
}

# Binding sites (module.name) whose wrapper must fire on each workload.
COMMON_SITES = {"cli.main", "cli.write_csv", "cli.write_manifest", "runio.sha256_file"}
FIT_SITES = {"tuning.fit", "tuning.fit_method", "optim.adadelta_step",
             "dropout.NoiseSpec.draw", "tuning.loglik"}
EXPECTED_SITES = {
    "desk-gaussian": COMMON_SITES | FIT_SITES | {
        "cli.run_scenario", "simlab.generate_dataset", "families.def_sample_each",
        "simlab.random_search_cv", "simlab.fit_method", "simlab.design_matrix",
        "tuning.pmle_fit", "pmle.fit", "pmle.DiffPenalty.gradient"},
    "simulate-counts": COMMON_SITES | {"cli.generate_dataset",
                                       "families.def_sample_each"},
    "traffic-summer": COMMON_SITES | FIT_SITES | {
        "cli.sha256_file", "cli.read_traffic_csv", "cli.select_series",
        "cli.fit_traffic_model", "traffic.design_matrix", "traffic.random_search_cv",
        "traffic.fit_method"},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUSY_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail_latency(walls) -> dict:
    """The highest of p99/p95/p90 call latency with >= 10 calls beyond it."""
    for q in (99, 95, 90):
        if len(walls) * (100 - q) >= 1000:
            cut = statistics.quantiles(walls, n=100, method="inclusive")[q - 1]
            return {f"call_s_p{q}": cut}
    return {}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def time_child(code: str, env: dict) -> float:
    """Wall time from starting a fresh interpreter on ``code`` until it
    prints ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed with code {proc.returncode}")
    return elapsed


def measure_setup() -> tuple:
    """Set-up time of SETUP_REPEATS fresh interpreters, each timed between
    two reference interpreters.  Returns (each set-up time scaled by
    REFERENCE_NOMINAL_S over the mean of its two references, raw set-up
    times, reference times)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    refs = [time_child(REFERENCE_CODE, env)]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(time_child(SETUP_CODE, env))
        refs.append(time_child(REFERENCE_CODE, env))
    scaled = [t * 2 * REFERENCE_NOMINAL_S / (refs[k] + refs[k + 1])
              for k, t in enumerate(raw)]
    return scaled, raw, refs


def manifest_problems(out: Path) -> list:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    listed = set()
    for entry in manifest["outputs"]:
        listed.add(entry["path"])
        if sha256(out / entry["path"]) != entry["sha256"]:
            problems.append(f"{entry['path']}: digest differs from the manifest")
    unlisted = {p.name for p in out.glob("*.csv")} - listed
    if unlisted:
        problems.append(f"outputs not listed in the manifest: {sorted(unlisted)}")
    return problems


def run_call(cli, workload, i, out: Path, tracer=None) -> dict:
    """One CLI call, timed, then checked outside the timed interval.  With a
    tracer, the layers are wrapped for the call only."""
    argv = workload.argv(i, out)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed call, not a failed benchmark
        traceback.print_exc()
        code = "exception"
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    call = {"i": i, "start": start, "end": end, "wall": end - start, "problems": [],
            "units": 0, "divergent": 0, "digest": None}
    if code != 0:
        call["problems"].append(f"exit code {code}")
    else:
        try:
            call["problems"] += manifest_problems(out)
            if tracer is None:  # a traced repeat need only reproduce the digests
                found, call["units"], call["divergent"] = workload.check(i, out)
                call["problems"] += found
            call["digest"] = hashlib.sha256("".join(
                p.name + sha256(p) for p in sorted(out.glob("*.csv"))).encode()).hexdigest()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            call["problems"].append(f"unreadable output: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return call


def closed_loop(cli, workload, seconds, scratch: Path, tracer=None):
    """Calls i = 0, 1, ... until the next call would end mostly past the
    deadline; at least one call.  With a tracer, each call is repeated traced
    right after it ran untraced, so both see the same host conditions.
    Returns (untraced calls, traced calls)."""
    calls, traced = [], []
    start = time.perf_counter()
    while True:
        i = len(calls)
        calls.append(run_call(cli, workload, i, scratch / f"u{i}"))
        last = calls[-1]["wall"]
        if tracer is not None:
            traced.append(run_call(cli, workload, i, scratch / f"t{i}", tracer))
            if traced[-1]["digest"] != calls[-1]["digest"]:
                traced[-1]["problems"].append("traced repeat changed the output digests")
            last += traced[-1]["wall"]
        if time.perf_counter() - start + last / 2 >= seconds:
            return calls, traced


def code_digest() -> str:
    """sha256 over the program's sources and the workload definitions, which
    together fix every call's inputs and outputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dropglm").rglob("*.py")) + [Path(__file__).with_name(
            "workloads.py")]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_ledger(workload, seed, calls) -> None:
    """Record the digest of each call's CSVs per (code, workload, seed, call);
    a call whose digest differs from an earlier run of the same code with the
    same seed fails.  Runs of different code are never compared."""
    path = WORK / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    code = code_digest()[:16]
    for call in calls:
        if call["digest"] is None:
            continue
        key = f"{code}/{workload}/{seed}/{call['i']}"
        if ledger.setdefault(key, call["digest"]) != call["digest"]:
            call["problems"].append("output digests differ from an earlier run "
                                    "with the same seed")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True))
    os.replace(tmp, path)


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dropglm" / "__init__.py").is_file():
        print(f"dropglm sources not found under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup, setup_raw, setup_refs = ([], [], []) if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import dropglm.cli as cli

    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        problems = list(getattr(workload, "setup_problems", []))
        if args.trace:
            tr = tracer.Tracer()
            calls, traced = closed_loop(cli, workload, args.seconds, scratch, tr)
        else:
            host = HostSpeed()
            with host:
                calls, traced = closed_loop(cli, workload, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_ledger(args.workload, args.seed, calls + traced)

    everything = calls + traced
    failed = sum(bool(c["problems"]) for c in everything)
    for c in everything:
        for p in c["problems"]:
            print(f"call {c['i']}: {p}", file=sys.stderr)
    walls = [c["wall"] for c in calls]
    units = sum(c["units"] for c in calls)
    report = {
        "workload": args.workload, "unit": workload.unit, "calls": len(calls),
        "units": units, "failed_frac": failed / len(everything),
        "divergent_frac": sum(c["divergent"] for c in calls) / units if units else 0.0,
        "call_s_p50": statistics.median(walls),
        **tail_latency(walls),
        **workload.report(),
    }
    if args.trace:
        metrics = tr.metrics()
        metrics["trace.overhead_frac"] = (sum(c["wall"] for c in traced) / sum(walls)
                                          - 1.0)
        bad_layers = [layer for layer, _, _ in tracer.LAYERS
                      if (tr.calls(layer) > 0) != (layer in BUSY_LAYERS[args.workload])]
        unfired = tr.unfired(EXPECTED_SITES[args.workload])
        report["layers_against_prediction"] = bad_layers
        report["unfired_sites"] = unfired
        for layer in bad_layers:
            problems.append(f"layer {layer} has {tr.calls(layer)} calls, "
                            "against the prediction")
        for site in unfired:
            problems.append(f"wrapper at {site} is missing or never fired")
        listed = spec["per_layer"]
    else:
        corrected = [host.corrected(c["start"], c["end"]) for c in calls]
        report["setup_s_each"] = setup
        report["setup_s_raw_each"] = setup_raw
        report["setup_reference_s_each"] = setup_refs
        report["call_s_p50_corrected"] = statistics.median(corrected)
        report["host_speed_samples"] = len(host.samples)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(corrected),
            "items_per_s": units / sum(corrected),
            "peak_rss_mb": peak_rss_mb,
        }
        listed = spec["end_to_end"]
    for p in problems:
        print(f"run: {p}", file=sys.stderr)
    result = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
              for m in listed}
    info = machine()
    info["loadavg_start"] = load_start
    info["loadavg_end"] = os.getloadavg()
    print(json.dumps({"machine": info}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(everything), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
