"""Command-line surface: bound evaluation, searches, constant tables, figure
data, and number-theory scans.

Exit codes are stable across subcommands: 0 when the computation completed
and is certified, 2 on domain or configuration errors, 3 when a numeric
kernel failed to converge, and 141 (:data:`EXIT_PIPE`, the status a shell
gives a writer that SIGPIPE ended) when the reader of stdout went away
early, as in ``fel nt --kind qnr | head -2``; that ends with nothing on
stderr.  Numeric inputs are parsed from decimal/rational strings exactly;
flag values override config-file values, whose keys must be options of the
subcommand; FEL_DIGITS sets the default working precision.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, InvalidOperation
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import to_rational

from . import closed_form, lower, tables, upper
from .precision import PrecisionContext, Unconverged, as_penalty

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_UNCONVERGED = 3
EXIT_PIPE = 141

_MAX_DIGITS = 100
_DEFAULT_SAMPLES = 2000  # plot-data curve samples


class _CliError(ValueError):
    pass


def _context(ns) -> PrecisionContext:
    digits = ns.get("digits")
    if digits is None:
        digits = int(os.environ.get("FEL_DIGITS", "40"))
    digits = int(digits)
    if not 30 <= digits <= _MAX_DIGITS:
        raise _CliError("digits must be between 30 and %d" % _MAX_DIGITS)
    return PrecisionContext(digits)


def _emit(ns, text):
    """Write the report text to --out or stdout."""
    out = ns.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _load_json_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _CliError("cannot read %s: %s" % (path, e))


def _config_defaults(ns) -> dict:
    """The --config settings; each key must be an option that the command reads."""
    cfg = _load_json_file(ns["config"])
    if not isinstance(cfg, dict):
        raise _CliError("%s: expected a JSON object" % ns["config"])
    known = set(ns) - {"command", "config"}  # the options of this command's parser
    unread = [k for k in cfg if k.replace("-", "_") not in known]
    if unread:
        raise _CliError("%s: %s does not read %s" % (ns["config"], ns["command"], ", ".join(unread)))
    return {k.replace("-", "_"): v for k, v in cfg.items()}


def _int_option(ns, key, default: int) -> int:
    """The integer option ``key``, or ``default`` when it is not set (an
    explicit 0 is kept, so the command can refuse it)."""
    value = ns.get(key)
    return default if value is None else int(value)


def _lower_params(ns) -> lower.LowerParams:
    if ns.get("params"):
        return lower.LowerParams.from_json(_load_json_file(ns["params"]))
    key = ns.get("A")
    ref = tables.lower_reference()
    if key in ref:
        return ref[key][1]
    raise _CliError("no --params file and no shipped reference for penalty %r" % key)


def _upper_params(ns) -> upper.UpperParams:
    key = ns.get("A")
    if ns.get("params"):
        up = upper.UpperParams.from_json(_load_json_file(ns["params"]))
        if key is not None and as_penalty(key) != up.penalty:
            raise _CliError("--A %s disagrees with the penalty %s of %s" % (key, up.penalty, ns["params"]))
        return up
    ref = tables.upper_reference()
    if key in ref:
        return ref[key][1]
    if key is not None and as_penalty(key) == 0:
        return upper.UpperParams(penalty=0, knots=())
    raise _CliError("no --params file and no shipped reference for penalty %r" % key)


def outward_bound(bound, up: bool) -> str:
    """``value + err`` rounded up (``up``) or ``value - err`` rounded down.

    The sum is exact, of the two binary numbers at their own precision, and
    its decimal rounding to 25 significant digits is directed, so the
    printed end is as certified as ``bound`` itself.
    """
    end, err = (Fraction(*to_rational(x._mpf_)) for x in (bound.value, bound.err))
    end += err if up else -err
    rounding = Context(prec=25, rounding=ROUND_CEILING if up else ROUND_FLOOR)
    return str(rounding.divide(Decimal(end.numerator), end.denominator))


def _lower_keys(bound, ctx) -> dict:
    """The value, radius and certified lower bound of a lower-family reward."""
    with ctx.workprec():
        return {
            "value": mp.nstr(bound.value, 25),
            "err": mp.nstr(bound.err, 6),
            "certified_lower_bound": outward_bound(bound, up=False),
        }


def _upper_keys(bound) -> dict:
    """The value, radius and certificate inputs of a certified sup-norm.

    ``sup_norm`` raises rather than return an uncertified bound, so every
    report written says ``"certified": true``.
    """
    return {
        "value": mp.nstr(bound.value, 25),  # at the value's own precision
        "err": mp.nstr(mp.mpf(bound.err), 8),
        "certified_upper_bound": outward_bound(bound, up=True),
        "certified": True,
        "meta": bound.meta,  # floats, ints and strings only
    }


def cmd_lower_eval(ns) -> int:
    ctx = _context(ns)
    if ns.get("A") is None:
        raise _CliError("--A is required")
    penalty = as_penalty(ns["A"])
    p = _lower_params(ns)
    value = lower.reward(p, penalty, ctx)
    l1 = value.meta["l1"]
    payload = {
        "penalty": ns["A"],
        **_lower_keys(value, ctx),
        "l1_norm": mp.nstr(l1.value, 15),
        "l1_err": mp.nstr(l1.err, 6),
        "params": p.to_json(),
        "digits": ctx.digits,
    }
    _emit(ns, _json(payload))
    return EXIT_OK


def cmd_upper_eval(ns) -> int:
    ctx = _context(ns)
    up = _upper_params(ns)
    res = upper.sup_norm(up, ctx)
    payload = {"penalty": str(up.penalty), **_upper_keys(res), "params": up.to_json(), "digits": ctx.digits}
    _emit(ns, _json(payload))
    return EXIT_OK


def cmd_search(ns) -> int:
    from . import search  # imported here: it loads numpy (about 0.1 s), which lower-eval never needs

    ctx = _context(ns)
    problem = ns.get("problem")
    if problem not in ("lower", "upper"):
        raise _CliError("--problem must be lower or upper")
    if ns.get("A") is None:
        raise _CliError("--A is required")
    penalty = as_penalty(ns["A"])
    cfg = search.SearchConfig(
        seed=_int_option(ns, "seed", 0),
        n_max=_int_option(ns, "N", 8),
        restarts=_int_option(ns, "restarts", 8),
        budget=_int_option(ns, "budget", 100_000),
    )
    if problem == "lower":
        n_terms = _int_option(ns, "N", 1 if penalty is lower.INF else 8)
        params, bound = search.optimize_lower(penalty, n_terms, cfg, ctx,
                                              transcript_path=ns.get("transcript"))
        payload = {
            "problem": "lower",
            "penalty": ns["A"],
            **_lower_keys(bound, ctx),
            "params": params.to_json(),
            "seed": cfg.seed,
        }
    else:
        params, bound = search.optimize_upper(penalty, cfg, ctx,
                                              transcript_path=ns.get("transcript"))
        payload = {
            "problem": "upper",
            "penalty": ns["A"],
            **_upper_keys(bound),
            "params": params.to_json(),
            "seed": cfg.seed,
        }
    _emit(ns, _json(payload))
    return EXIT_OK


def cmd_bounds(ns) -> int:
    ctx = _context(ns)
    rows = []
    for key in tables.PENALTIES:
        lo, hi = tables.interval(key)
        A = Fraction(key)
        formula = None
        if 0 < A < 1:
            formula = mp.nstr(closed_form.closed_lower_bound(key, ctx), 10)
        rows.append({
            "penalty": key,
            "formula_lower": formula,
            "table_lower": str(lo),
            "table_upper": str(hi),
            "implied_constant": mp.nstr(closed_form.implied_constant(str(lo), ctx), 10),
            "method_limit": mp.nstr(closed_form.implied_constant(str(hi), ctx), 10),
        })
    orders = ns.get("orders")
    if orders:
        for ell in (int(x) for x in str(orders).split(",")):
            if ell in tables.ORDER_TO_PENALTY:
                key = tables.ORDER_TO_PENALTY[ell]
                lo, hi = tables.interval(key)
                rows.append({
                    "order": ell,
                    "penalty": key,
                    "implied_constant": mp.nstr(closed_form.implied_constant(str(lo), ctx), 10),
                    "method_limit": mp.nstr(closed_form.implied_constant(str(hi), ctx), 10),
                })
            else:
                rows.append({
                    "order": ell,
                    "implied_constant": mp.nstr(closed_form.large_order_constant(ell, ctx), 10),
                    "simple_variant": mp.nstr(closed_form.large_order_constant(ell, ctx, simple=True), 10),
                })
    fmt = ns.get("format") or "json"
    if fmt == "json":
        _emit(ns, _json({"rows": rows, "digits": ctx.digits}))
    elif fmt == "csv":
        header = ["penalty", "order", "formula_lower", "table_lower", "table_upper",
                  "implied_constant", "method_limit", "simple_variant"]
        _emit(ns, _csv(header, [[row.get(h, "") for h in header] for row in rows]))
    else:
        raise _CliError("unknown format %r" % fmt)
    return EXIT_OK


def cmd_plot_data(ns) -> int:
    figure = ns.get("figure")
    samples = _int_option(ns, "samples", _DEFAULT_SAMPLES)
    if samples < 1:
        raise _CliError("--samples must be >= 1")
    rng = [float(x) for x in ns.get("range") or []]
    if not all(map(math.isfinite, rng)):
        raise _CliError("--range ends must be finite")
    rows = []
    if figure == "upper":
        up = _upper_params(ns)
        lo, hi = rng if len(rng) == 2 else (0.0, 15.0)
        header = ["t", "re", "abs"]
        rows = upper.curve_samples(up, lo, hi, samples)
    elif figure == "lower-family":
        lo, hi = rng if len(rng) == 2 else (-1.5, 0.5)
        header = ["t"] + ["penalty_" + k.replace("/", "_") for k in tables.PENALTIES]
        ref = tables.lower_reference()
        columns = [lower.curve_samples(ref[k][1], lo, hi, samples) for k in tables.PENALTIES]
        for i in range(samples):
            rows.append([columns[0][i][0]] + [col[i][1] for col in columns])
    else:
        raise _CliError("--figure must be 'upper' or 'lower-family'")
    _emit(ns, _csv(header, rows))
    return EXIT_OK


def cmd_nt(ns) -> int:
    from . import nt  # imported here, as search is in cmd_search

    kind = ns.get("kind")
    out = ns.get("out")
    if kind in ("qnr", "prime-qr"):
        lo = _int_option(ns, "min_p", nt.DEFAULT_SCAN_FLOORS[kind])
        hi = _int_option(ns, "max_p", 10**6)
        records = nt.scan(kind, lo, hi)
    elif kind == "ap":
        lo = _int_option(ns, "min_q", nt.DEFAULT_SCAN_FLOORS["ap"])
        hi = _int_option(ns, "max_q", 500)
        records = nt.scan("ap", lo, hi)
    elif kind == "prime-sum":
        m = _int_option(ns, "m", 10**6)
        if m < 3:
            raise _CliError("--m must be >= 3")  # the bump below needs log m > 0
        cut = mp.log(m) / (2 * mp.pi)
        g = nt.raised_cosine_bump(0.05 * float(cut), 0.95 * float(cut))
        report = nt.prime_sum_check(m, g)
        _emit(ns, _json(report.to_json()))
        return EXIT_OK
    else:
        raise _CliError("--kind must be qnr, prime-qr, ap, or prime-sum")
    if out:
        with open(out, "w") as fh:
            summary = nt.summarize(records, kind, fh)
    else:
        summary = nt.summarize(records, kind)
    print(_json(summary.to_json()))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built at the first :func:`main` call and
    then reused: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="fel",
        description="Certified bounds for a family of Fourier-extremal constants.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, digits=True):
        if digits:
            p.add_argument("--digits", type=int, default=None,
                           help="working precision in decimal digits (default: FEL_DIGITS or 40)")
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--config", default=None, help="JSON config file; flags override it")

    p = sub.add_parser("lower-eval", help="evaluate the lower-family reward")
    p.add_argument("--A", default=None, help="penalty as a rational string, or 'inf'")
    p.add_argument("--params", default=None, help="JSON parameter file (defaults to the shipped reference)")
    common(p)

    p = sub.add_parser("upper-eval", help="certified sup-norm of an upper test function")
    p.add_argument("--A", default=None)
    p.add_argument("--params", default=None)
    common(p)

    p = sub.add_parser("search", help="derivative-free search for better test functions")
    p.add_argument("--problem", choices=("lower", "upper"), required=True)
    p.add_argument("--A", default=None)
    p.add_argument("--N", type=int, default=None, help="coefficient count (lower) / max knots (upper)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--transcript", default=None, help="JSON-lines incumbent log")
    common(p)

    p = sub.add_parser("bounds", help="table of bounds and implied constants")
    p.add_argument("--orders", default=None, help="comma-separated character orders to include")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    common(p)

    p = sub.add_parser("plot-data", help="CSV curve data for the figures")
    p.add_argument("--figure", choices=("upper", "lower-family"), required=True)
    p.add_argument("--A", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--range", nargs=2, metavar=("LO", "HI"), default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="number of curve samples (default: %d)" % _DEFAULT_SAMPLES)
    common(p, digits=False)

    p = sub.add_parser("nt", help="number-theory scans and the prime-sum check")
    p.add_argument("--kind", choices=("qnr", "prime-qr", "ap", "prime-sum"), required=True)
    p.add_argument("--min-p", dest="min_p", type=int, default=None)
    p.add_argument("--max-p", dest="max_p", type=int, default=None)
    p.add_argument("--min-q", dest="min_q", type=int, default=None)
    p.add_argument("--max-q", dest="max_q", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    common(p, digits=False)

    return ap


_COMMANDS = {
    "lower-eval": cmd_lower_eval,
    "upper-eval": cmd_upper_eval,
    "search": cmd_search,
    "bounds": cmd_bounds,
    "plot-data": cmd_plot_data,
    "nt": cmd_nt,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    ns = vars(args)
    if ns.get("config"):
        try:
            defaults = _config_defaults(ns)
        except _CliError as e:
            print("error: %s" % e, file=sys.stderr)
            return EXIT_DOMAIN
        for k, v in defaults.items():
            if ns.get(k) is None:
                ns[k] = v
    try:
        code = _COMMANDS[args.command](ns)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit: send that to devnull (the
        # recipe of the signal module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except Unconverged as e:
        print("unconverged: %s" % e, file=sys.stderr)
        return EXIT_UNCONVERGED
    except (_CliError, ValueError, InvalidOperation, LookupError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
