"""The three workloads: the command lines of one round, their checks and
their end-to-end figures.

Every round of a workload runs the same fel commands; only the files a
command writes are named per round.  The seed fixes the order of the
commands and the records the scan checks sample.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from dataclasses import dataclass, field

DIGITS = "40"
PENALTIES = ("1/4", "1/3", "1/2", "1", "3")
BOUNDS_ORDERS = (2, 5, 10)
SEARCH_PENALTY = "1"
SEARCH_SEED = "0"            # the seed of acceptance criterion 9
UPPER_BUDGET = "15000"
LOWER_BUDGET = "3000"
LOWER_TERMS = "8"
QNR_RANGE = (11, 1_000_000)  # fel's default floors: 11 for qnr
AP_RANGE = (4, 500)          # and 4 for ap
PRIME_SUM_M = 100_000_000
CHECK_SAMPLE = 200           # scan records checked by brute force per output


@dataclass
class Op:
    """One fel command: a label, its arguments and the files it writes."""

    label: str
    kind: str
    argv: list
    files: dict = field(default_factory=dict)
    key: str = ""


def _op_medians(rounds):
    """Median reference-speed time of each command of the round over the
    rounds of a run, by label, and the kind of each label."""
    times, kinds = {}, {}
    for rnd in rounds:
        for r in rnd.results:
            times.setdefault(r.op.label, []).append(r.ref_seconds)
            kinds[r.op.label] = r.op.kind
    return {label: statistics.median(ts) for label, ts in times.items()}, kinds


def _of_kinds(medians, kinds, wanted):
    return [t for label, t in medians.items() if kinds[label] in wanted]


def _mean(xs):
    return sum(xs) / len(xs)


class Table:
    name = "table"

    def __init__(self, seed):
        self.order = list(PENALTIES)
        random.Random(seed).shuffle(self.order)

    def ops(self, workdir, r):
        out = []
        for key in self.order:
            out.append(Op("lower-eval %s" % key, "lower-eval", ["lower-eval", "--A", key, "--digits", DIGITS], key=key))
            out.append(Op("upper-eval %s" % key, "upper-eval", ["upper-eval", "--A", key, "--digits", DIGITS], key=key))
        orders = ",".join(str(o) for o in BOUNDS_ORDERS)
        out.append(Op("bounds", "bounds", ["bounds", "--orders", orders, "--digits", DIGITS]))
        return out

    def check(self, op, result, checks, rng):
        payload = json.loads(result.stdout)
        if op.kind == "lower-eval":
            return checks.check_table_lower(payload, op.key)
        if op.kind == "upper-eval":
            return checks.check_table_upper(payload, op.key)
        return checks.check_bounds(payload, list(BOUNDS_ORDERS))

    def check_round(self, rnd, checks):
        by = {(r.op.kind, r.op.key): json.loads(r.stdout) for r in rnd.results if r.returncode == 0}
        errs = []
        for key in PENALTIES:
            lo, hi = by.get(("lower-eval", key)), by.get(("upper-eval", key))
            if lo is not None and hi is not None:
                errs += checks.check_sandwich(lo, hi, key)
        return errs

    def metrics(self, rounds):
        med, kinds = _op_medians(rounds)
        part_a = _mean(_of_kinds(med, kinds, ("lower-eval",)))
        part_b = _mean(_of_kinds(med, kinds, ("upper-eval",)))
        round_s = sum(med.values())
        report = {"table_s": (round_s, "s"), "lower_eval_s": (part_a, "s"), "upper_eval_s": (part_b, "s")}
        return {"round_s": round_s, "part_a_s": part_a, "part_b_s": part_b}, report


class Search:
    name = "search"

    def __init__(self, seed):
        self.upper_first = random.Random(seed).random() < 0.5

    def ops(self, workdir, r):
        common = ["--A", SEARCH_PENALTY, "--seed", SEARCH_SEED, "--digits", DIGITS]
        up_log = os.path.join(workdir, "upper-%d.jsonl" % r)
        lo_log = os.path.join(workdir, "lower-%d.jsonl" % r)
        up = Op("search upper", "search-upper",
                ["search", "--problem", "upper", *common, "--budget", UPPER_BUDGET, "--transcript", up_log],
                files={"transcript": up_log})
        lo = Op("search lower", "search-lower",
                ["search", "--problem", "lower", *common, "--N", LOWER_TERMS, "--budget", LOWER_BUDGET,
                 "--transcript", lo_log],
                files={"transcript": lo_log})
        return [up, lo] if self.upper_first else [lo, up]

    def check(self, op, result, checks, rng):
        payload = json.loads(result.stdout)
        with open(op.files["transcript"]) as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        if op.kind == "search-upper":
            return checks.check_search_upper(payload, rows)
        return checks.check_search_lower(payload, rows)

    def check_round(self, rnd, checks):
        return []

    def metrics(self, rounds):
        med, kinds = _op_medians(rounds)
        part_a = sum(_of_kinds(med, kinds, ("search-upper",)))
        part_b = sum(_of_kinds(med, kinds, ("search-lower",)))
        round_s = sum(med.values())
        last = {r.op.kind: json.loads(r.stdout) for r in rounds[-1].results if r.returncode == 0}
        report = {"search_upper_s": (part_a, "s"), "search_lower_s": (part_b, "s")}
        if "search-upper" in last:
            up = last["search-upper"]
            report["search_upper_bound"] = (float(up["value"]) + float(up["err"]), "1")
        if "search-lower" in last:
            report["search_lower_bound"] = (float(last["search-lower"]["certified_lower_bound"]), "1")
        return {"round_s": round_s, "part_a_s": part_a, "part_b_s": part_b}, report


class Scan:
    name = "scan"

    def __init__(self, seed):
        self.order = ["qnr", "ap", "prime-sum"]
        random.Random(seed).shuffle(self.order)

    def ops(self, workdir, r):
        out = []
        for kind in self.order:
            if kind == "qnr":
                path = os.path.join(workdir, "qnr-%d.csv" % r)
                out.append(Op("nt qnr", "qnr", ["nt", "--kind", "qnr", "--min-p", str(QNR_RANGE[0]),
                                                "--max-p", str(QNR_RANGE[1]), "--out", path],
                              files={"records": path}))
            elif kind == "ap":
                path = os.path.join(workdir, "ap-%d.csv" % r)
                out.append(Op("nt ap", "ap", ["nt", "--kind", "ap", "--min-q", str(AP_RANGE[0]),
                                              "--max-q", str(AP_RANGE[1]), "--out", path],
                              files={"records": path}))
            else:
                out.append(Op("nt prime-sum", "prime-sum", ["nt", "--kind", "prime-sum", "--m", str(PRIME_SUM_M)]))
        return out

    def check(self, op, result, checks, rng):
        payload = json.loads(result.stdout)
        if op.kind == "prime-sum":
            return checks.check_prime_sum(payload, PRIME_SUM_M)
        records = checks.read_records(op.files["records"])
        if op.kind == "qnr":
            return checks.check_qnr_records(records, payload, *QNR_RANGE, rng, CHECK_SAMPLE)
        return checks.check_ap_records(records, payload, *AP_RANGE, rng, CHECK_SAMPLE)

    def check_round(self, rnd, checks):
        return []

    def metrics(self, rounds):
        med, kinds = _op_medians(rounds)
        part_a = sum(_of_kinds(med, kinds, ("qnr", "ap")))
        part_b = sum(_of_kinds(med, kinds, ("prime-sum",)))
        round_s = sum(med.values())
        done = [r for r in rounds[-1].results if r.op.kind in ("qnr", "ap") and r.returncode == 0]
        records = sum(json.loads(r.stdout)["count"] for r in done)
        rate = records / part_a if len(done) == 2 else 0.0
        report = {"scan_records_per_s": (rate, "records/s"), "prime_sum_s": (part_b, "s")}
        return {"round_s": round_s, "part_a_s": part_a, "part_b_s": part_b}, report


WORKLOADS = {w.name: w for w in (Table, Search, Scan)}
