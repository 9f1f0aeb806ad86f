#!/usr/bin/env python3
"""Run the desk-scale number-theory consistency scans and print summaries.

The comparator constants bound limsups, so these scans are consistency
checks, not proofs: they report the observed maxima and the margins to the
asymptotic constants.  The default ranges start just past the smallest
keys, which trivially exceed the constants.

Usage:
    python scripts/nt_scans.py [--max-p 1000000] [--max-q 500] [--quick]
"""

import argparse
import json
import math
import time

from fel import nt


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-p", type=int, default=10**6)
    ap.add_argument("--max-q", type=int, default=500)
    ap.add_argument("--quick", action="store_true", help="shrink every range 100x")
    args = ap.parse_args()
    max_p = max(args.max_p // (100 if args.quick else 1), 100)
    max_q = max(args.max_q // (10 if args.quick else 1), 10)

    for kind, hi in (("qnr", max_p), ("prime-qr", max_p), ("ap", max_q)):
        lo = nt.DEFAULT_SCAN_FLOORS[kind]
        t0 = time.time()
        s = nt.summarize(nt.scan(kind, lo, hi), kind)
        print(f"{kind} scan [{lo}, {hi}] in {time.time()-t0:.1f}s:")
        print("  " + json.dumps(s.to_json()))

    for m in (10**4, 10**6) + (() if args.quick else (10**8,)):
        cut = math.log(m) / (2 * math.pi)
        g = nt.raised_cosine_bump(0.05 * cut, 0.95 * cut)
        t0 = time.time()
        rep = nt.prime_sum_check(m, g)
        print(f"prime-sum identity at m={m} ({time.time()-t0:.1f}s): "
              f"normalized residual {rep.normalized_truncated:+.2e}, "
              f"psi(m)-m = {rep.psi_m - m:+.1f} (window {rep.psi_window:.0f})")


if __name__ == "__main__":
    main()
