"""Self-test of the benchmark's checks: each checker accepts a genuine fel
output and rejects the same output with a planted wrong answer.

Usage (from the repository root, about ten seconds):

    python3 felbench/selftest.py

Exits 0 when every genuine output passes and every planted fault is caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

import numpy as np
import sympy

import checks
from run import OUT_DIR, _import_fel


def fel_json(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit("fel %s exited %s" % (" ".join(argv), rc))
    return json.loads(out.getvalue())


def main():
    cli = _import_fel()
    workdir = os.path.join(OUT_DIR, "selftest-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    def rng():
        return np.random.default_rng(0)

    cases = []  # (name, errors, planted)
    try:
        up = fel_json(cli, ["upper-eval", "--A", "1", "--digits", "40"])
        cases.append(("upper-eval 1", checks.check_table_upper(up, "1"), False))
        shifted = copy.deepcopy(up)
        knots = shifted["params"]["T"]
        knots[2] = "%.7f" % (float(knots[2]) + 0.002)
        cases.append(("upper-eval 1, knot 3 shifted by 0.002", checks.check_table_upper(shifted, "1"), True))

        lo = fel_json(cli, ["lower-eval", "--A", "1/2", "--digits", "40"])
        cases.append(("lower-eval 1/2", checks.check_table_lower(lo, "1/2"), False))
        wrong = copy.deepcopy(lo)
        wrong["params"]["b"][0] = repr(float(wrong["params"]["b"][0]) * 1.001)
        cases.append(("lower-eval 1/2, coefficient b_1 scaled by 1.001",
                      checks.check_table_lower(wrong, "1/2"), True))

        p_lo, p_hi = 11, 3000
        path = os.path.join(workdir, "qnr.csv")
        summary = fel_json(cli, ["nt", "--kind", "qnr", "--min-p", str(p_lo), "--max-p", str(p_hi), "--out", path])
        records = checks.read_records(path)
        cases.append(("qnr to %d" % p_hi, checks.check_qnr_records(records, summary, p_lo, p_hi, rng(), len(records)),
                      False))
        i = next(i for i, (_, n, _) in enumerate(records) if n == 3)
        key, n, ratio = records[i]
        p = int(key)
        later = next(m for m in range(n + 1, p) if checks.is_qnr(m, p))
        planted = records[:i] + [(key, later, ratio)] + records[i + 1:]
        cases.append(("qnr, least non-residue mod %d replaced by %d" % (p, later),
                      checks.check_qnr_records(planted, summary, p_lo, p_hi, rng(), len(planted)), True))

        q_lo, q_hi = 4, 40
        path = os.path.join(workdir, "ap.csv")
        summary = fel_json(cli, ["nt", "--kind", "ap", "--min-q", str(q_lo), "--max-q", str(q_hi), "--out", path])
        records = checks.read_records(path)
        cases.append(("ap to %d" % q_hi, checks.check_ap_records(records, summary, q_lo, q_hi, rng(), len(records)),
                      False))
        key, p, ratio = records[7]
        q = int(key.split(" mod ")[1])
        nxt = next(m for m in range(p + q, 100 * p * q, q) if sympy.isprime(m))
        planted = records[:7] + [(key, nxt, ratio)] + records[8:]
        cases.append(("ap, least prime %s replaced by %d" % (key, nxt),
                      checks.check_ap_records(planted, summary, q_lo, q_hi, rng(), len(planted)), True))

        ps = fel_json(cli, ["nt", "--kind", "prime-sum", "--m", "1000000"])
        cases.append(("prime-sum 1e6", checks.check_prime_sum(ps, 10**6), False))
        bad = dict(ps, psi_m=ps["psi_m"] * 0.99)
        cases.append(("prime-sum, psi(m) 1% low", checks.check_prime_sum(bad, 10**6), True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = True
    for name, errs, planted in cases:
        good = bool(errs) == planted
        ok &= good
        verdict = ("rejected" if errs else "accepted")
        print("%s  %-55s %s%s" % ("ok  " if good else "FAIL", name, verdict,
                                  (": " + errs[0]) if errs else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
