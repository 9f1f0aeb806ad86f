#!/usr/bin/env python3
"""Reproduce the headline bound table from the shipped reference parameters.

For every penalty value this certifies the lower-family reward and the
upper-family sup-norm, and prints the sandwich ``value - err`` rounded down
and ``value + err`` rounded up, the implied asymptotic constants computed
from those two numbers, and the published five-digit values.  It exits
non-zero when a lower end exceeds its upper end or a lower-family L^1 norm
is not within 1e-3 of 1.

Usage:
    python scripts/reproduce_bounds.py [--digits 40]
"""

import argparse
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath as mp

from fel import tables
from fel.cli import outward_bound
from fel.closed_form import closed_lower_bound, implied_constant
from fel.lower import reward
from fel.precision import PrecisionContext
from fel.upper import sup_norm


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--digits", type=int, default=40)
    args = ap.parse_args()
    ctx = PrecisionContext(args.digits)

    lower_ref = tables.lower_reference()
    upper_ref = tables.upper_reference()
    print(f"working precision: {ctx.digits} digits\n")
    print(f"{'pen':>4} {'published':>20} {'lower: value - err':>27} {'upper: value + err':>27} "
          f"{'implied':>10} {'limit':>10} {'time':>6}")
    for key in tables.PENALTIES:
        lo_pub, hi_pub = tables.interval(key)
        t0 = time.time()
        lo = reward(lower_ref[key][1], key, ctx)
        hi = sup_norm(upper_ref[key][1], ctx)
        elapsed = time.time() - t0
        lo_end, hi_end = outward_bound(lo, up=False), outward_bound(hi, up=True)
        with ctx.workprec():
            print(f"{key:>4} {str(lo_pub):>9} {str(hi_pub):>10} {lo_end:>27} {hi_end:>27} "
                  f"{mp.nstr(implied_constant(lo_end, ctx), 6):>10} "
                  f"{mp.nstr(implied_constant(hi_end, ctx), 6):>10} "
                  f"{elapsed:5.1f}s")
        if not Decimal(lo_end) <= Decimal(hi_end):
            sys.exit(f"penalty {key}: the lower end {lo_end} exceeds the upper end {hi_end}")
        if not abs(lo.meta["l1"].value - 1) < 1e-3:
            sys.exit(f"penalty {key}: the L^1 norm {mp.nstr(lo.meta['l1'].value, 10)} is not within 1e-3 of 1")
    print("\ngeneric closed-form lower bounds (tent profile):")
    for key in ("1/4", "1/3", "1/2"):
        A = Fraction(key)
        with ctx.workprec():
            v = closed_lower_bound(mp.mpf(A.numerator) / A.denominator, ctx)
            print(f"  pen {key}: {mp.nstr(v, 10)}")


if __name__ == "__main__":
    main()
