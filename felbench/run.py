"""Benchmark of the fel command line.

Usage (from the repository root):

    python3 felbench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 felbench/run.py --workload all --seed 1 --seconds 30

A workload is a closed loop: this one process runs fel commands through
``fel.cli.main``, one after another, in whole rounds, as many as fit in
``--seconds`` (at least one).  The outputs are then checked against
computations made apart from fel (``checks.py``).  With ``--trace 0`` the last line of the
output is a JSON object with the end-to-end metrics; with ``--trace 1``
rounds with the layer functions wrapped (``tracing.py``) alternate with
plain rounds, which measure the tracing overhead, and the last line holds
the per-layer metrics.  The exit code is 0 only when every command
succeeded and every check passed.

The end-to-end times are scaled to a reference CPU speed (``speed.py``):
the host's speed drifts by more than the bounds from one run to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# one client on one core: no BLAS or OpenMP worker threads beside it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".felbench")
SETUP_REPEATS = 5

# a fresh interpreter imports the CLI and loads the shipped reference tables
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fel.cli\n"
    "from fel import tables\n"
    "tables.lower_reference(); tables.upper_reference()\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Result:
    op: object
    returncode: object   # None when the command raised
    seconds: float       # as measured
    ref_seconds: float   # at the reference CPU speed (speed.py)
    stdout: str
    calls: dict          # traced runs: calls of each layer made by this command


@dataclass
class Round:
    results: list
    seconds: float


def _require_sources():
    if not os.path.isfile(os.path.join(SRC, "fel", "cli.py")):
        raise SystemExit("felbench: no fel sources under %s" % SRC)


def _import_fel():
    _require_sources()
    sys.path.insert(0, SRC)
    import fel.cli

    if not os.path.abspath(fel.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("felbench: imported fel from %s, not from %s" % (fel.cli.__file__, SRC))
    return fel.cli


def measure_setup(probe):
    """Seconds of each fresh-process set-up: as measured, at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        mark = probe.begin(timer=False)  # the child runs alone
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], capture_output=True,
                              text=True, timeout=120, cwd=ROOT, check=True)
        times.append(probe.end(mark, float(proc.stdout.strip().splitlines()[-1])))
    return times


def run_round(cli, ops, tracer=None, probe=None):
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        before = dict(tracer.calls) if tracer else {}
        mark = probe.begin() if probe else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except SystemExit as e:  # argparse exits on a bad command line
            rc = e.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        seconds, ref_seconds = probe.end(mark, seconds) if probe else (seconds, seconds)
        if rc != 0:
            sys.stderr.write("felbench: %s exited %s\n%s" % (op.label, rc, err.getvalue()))
        calls = {k: v - before.get(k, 0) for k, v in tracer.calls.items()} if tracer else {}
        results.append(Result(op, rc, seconds, ref_seconds, out.getvalue(), calls))
    return Round(results, sum(r.seconds for r in results))


def _digest(result):
    h = hashlib.sha256(result.op.label.encode() + b"\0" + result.stdout.encode())
    for path in sorted(result.op.files.values()):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_rounds(workload, rounds, seed):
    """Failed operations and round-level errors; identical outputs are checked once."""
    import numpy as np

    import checks

    rng = np.random.default_rng(seed)
    verdicts = {}
    failed = 0
    errors = []
    for rnd in rounds:
        for res in rnd.results:
            if res.returncode != 0:
                failed += 1
                continue
            try:
                key = _digest(res)
                if key not in verdicts:
                    verdicts[key] = workload.check(res.op, res, checks, rng)
                errs = verdicts[key]
            except (OSError, ValueError, KeyError) as e:
                errs = ["%s: unreadable output: %s" % (res.op.label, e)]
            if errs:
                failed += 1
                errors += ["%s: %s" % (res.op.label, e) for e in errs]
        errors += workload.check_round(rnd, checks)
    return failed, errors


def run_workload(name, seed, seconds, traced):
    from speed import REF_S, SpeedProbe
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    cli = _import_fel()
    workload = WORKLOADS[name](seed)
    workdir = os.path.join(OUT_DIR, "%s-%d-%d" % (name, seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    probe = None if traced else SpeedProbe()
    try:
        setups = None if traced else measure_setup(probe)
        tracer = Tracer() if traced else None
        rounds, untraced = [], []
        t_start = time.perf_counter()
        # whole rounds while the next one, as long as the last, ends in time;
        # traced runs alternate traced and untraced rounds, traced first
        while True:
            ops = workload.ops(workdir, len(rounds) + len(untraced))
            t_round = time.perf_counter()
            if traced and len(untraced) < len(rounds):
                untraced.append(run_round(cli, ops))
            else:
                if traced:
                    tracer.install()
                try:
                    rounds.append(run_round(cli, ops, tracer, probe))
                finally:
                    if traced:
                        tracer.uninstall()
            now = time.perf_counter()
            if not (traced and not untraced) and now - t_start + (now - t_round) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_rounds = rounds + untraced
        failed, errors = check_rounds(workload, all_rounds, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.results) for r in all_rounds)
    for e in errors:
        print("CHECK FAILED %s" % e)
    correct = failed == 0 and not errors
    if not traced:
        setup_s = statistics.median(ref for _, ref in setups)
        print("%-8s set-up (s, measured) %s" % (name, " ".join("%.3f" % t for t, _ in setups)))
        print("%-8s speed: kernel median %.3f ms over %d samples, reference %.3f ms"
              % (name, statistics.median(probe.samples) * 1e3, len(probe.samples), REF_S * 1e3))
        e2e, report = workload.metrics(rounds)
        metrics = {"setup_s": (setup_s, "s"), **{k: (v, "s") for k, v in e2e.items()},
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        report.update(setup_s=(setup_s, "s"), peak_rss_mb=(peak_rss_mb, "MB"))
        for metric, (value, unit) in report.items():
            print("%-8s %-20s %18.12g %s" % (name, metric, value, unit))
    else:
        metrics = layer_metrics(tracer, len(rounds))
        evals = [r for rnd in rounds for r in rnd.results if r.op.kind == "lower-eval"]
        l1_calls = sum(r.calls.get("lower.l1_norm", 0) for r in evals)
        metrics["lower.l1_norm_per_lower_eval"] = (l1_calls / len(evals) if evals else 0.0, "count")
        overhead = statistics.median(r.seconds for r in rounds) - statistics.median(r.seconds for r in untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        if tracer.absent:
            print("absent layers (reported as 0): %s" % ", ".join(tracer.absent))
        path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (name, seed))
        tracer.dump(path, {"workload": name, "seed": seed, "rounds": len(rounds),
                           "untraced_round_s": [r.seconds for r in untraced],
                           "traced_round_s": [r.seconds for r in rounds]})
        print("trace written to %s" % os.path.relpath(path, ROOT))
    print("%-8s rounds (s, measured) %s" % (name, " ".join("%.3f" % r.seconds for r in all_rounds)))
    print("%-8s attempted %d, failed %d" % (name, attempted, failed))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# the end-to-end figures of each workload, under the names used in its README
REPORT_METRICS = (
    ("setup_s", "table"), ("table_s", "table"), ("lower_eval_s", "table"), ("upper_eval_s", "table"),
    ("search_upper_s", "search"), ("search_lower_s", "search"),
    ("search_upper_bound", "search"), ("search_lower_bound", "search"),
    ("scan_records_per_s", "scan"), ("prime_sum_s", "scan"), ("peak_rss_mb", None),
)
REPORT_NAMES = {metric for metric, _ in REPORT_METRICS}


def run_all(args):
    """Each workload in its own process; one summary of all three."""
    from workloads import WORKLOADS

    results = {}
    reports = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        reports[name] = {}
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[0] == name and parts[1] in REPORT_NAMES:
                reports[name][parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    if args.trace:
        metrics = {"%s/%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = {}
        for metric, workload in REPORT_METRICS:
            if workload is None:
                found = [reports[w][metric] for w in reports if metric in reports[w]]
                if found:
                    metrics[metric] = max(found, key=lambda m: m["value"])
            elif metric in reports.get(workload, {}):
                metrics[metric] = reports[workload][metric]
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", "table", "search", "scan"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="how long the rounds run")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    _require_sources()
    if args.workload == "all":
        out = run_all(args)
    else:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
