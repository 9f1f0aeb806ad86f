"""Checks of the fel outputs against computations made apart from fel.

Nothing here imports ``fel``: the residual transform is evaluated with numpy
from its closed form, the reward and the L1 norm are integrated with
``scipy.integrate.quad`` from the profile formula, and the number-theory
records are checked by brute force and with ``sympy``.  Every check returns
a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize

# The paper's five-row table (published five-digit lower and upper bounds).
PAPER_TABLE = {
    "1/4": (1.31706, 1.33509),
    "1/3": (1.27722, 1.28781),
    "1/2": (1.22112, 1.23080),
    "1": (1.14600, 1.14731),
    "3": (1.06082, 1.06240),
}
# character order -> penalty 1/(order - 1), for the orders the table covers
ORDER_PENALTY = {2: "1", 3: "1/2", 4: "1/3", 5: "1/4"}

CRITERION_9_UPPER = 1.1480    # the cold upper search must certify at most this
FLOAT_SLACK = 1e-12           # float64 rounding allowed in the grid comparisons
REWARD_TOL = 1e-10            # float quadrature vs the exact reward
L1_RTOL = 1e-10               # float quadrature vs the certified L1 norm
UNIT_L1_TOL = 1e-3            # shipped lower parameters are normalised to L1 = 1


# ---------------------------------------------------------------------------
# upper family: |residual(t)| on a dense grid


def _upper_terms(params):
    A = float(Fraction(params["A"]))
    knots = np.array([0.0] + [float(k) for k in params["T"]])
    coef = np.array([A if n % 2 == 0 else -1.0 for n in range(len(knots) - 1)])
    return knots, coef


def residual_abs(params, t):
    """|residual(t)| = |2/(1-2it)| * |1 - sum_n c_n (E(T_n+1) - E(T_n))|,
    E(T) = exp((pi - 2 pi i t) T), from the definition of the upper family."""
    knots, coef = _upper_terms(params)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    E = np.exp(np.outer(np.pi - 2j * np.pi * t, knots))
    inner = 1.0 - (E[:, 1:] - E[:, :-1]) @ coef
    return np.abs(2.0 * inner / (1.0 - 2j * t))


def grid_sup(params, floor, step=2e-4):
    """Max of |residual| over t >= 0, and where it is.

    Beyond t_end the trivial majorant C/|1-2it| (C = 2 + sum 2|c_n|(e^{pi
    T_n+1} + e^{pi T_n})) is below ``floor``, so the grid covers [0, t_end]
    and the best local maxima are refined with a bounded scalar search.
    """
    knots, coef = _upper_terms(params)
    C = 2.0 + 2.0 * float(np.abs(coef) @ (np.exp(np.pi * knots[1:]) + np.exp(np.pi * knots[:-1])))
    t_end = math.sqrt(max((C / floor) ** 2 - 1.0, 0.0)) / 2.0
    ts = np.arange(0.0, t_end + step, step)
    vals = np.concatenate([residual_abs(params, ts[i:i + 50_000]) for i in range(0, ts.size, 50_000)])
    peaks = [0] + [int(i) + 1 for i in np.nonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0]]
    peaks = sorted(peaks, key=lambda i: -vals[i])[:8]
    best_v, best_t = float(vals.max()), float(ts[int(vals.argmax())])
    for i in peaks:
        lo, hi = max(ts[i] - step, 0.0), ts[i] + step
        res = optimize.minimize_scalar(lambda x: -residual_abs(params, x)[0], bounds=(lo, hi),
                                       method="bounded", options={"xatol": 1e-13})
        if -res.fun > best_v:
            best_v, best_t = float(-res.fun), float(res.x)
    return best_v, best_t


def check_upper_result(payload):
    """A certified sup: the dense grid's max lies in [value, value + err]."""
    errs = []
    value, err = float(payload["value"]), float(payload["err"])
    if payload.get("certified") is not True:
        errs.append("upper result is not certified")
    sup, at = grid_sup(payload["params"], floor=value * (1 - 1e-6))
    if sup > value + err + FLOAT_SLACK:
        errs.append("grid max %.15f at t=%.6f exceeds value + err %.15f" % (sup, at, value + err))
    if sup < value - FLOAT_SLACK:
        errs.append("grid max %.15f at t=%.6f is below the claimed value %.15f" % (sup, at, value))
    return errs


# ---------------------------------------------------------------------------
# lower family: reward and L1 norm by scipy quadrature


def _lower_terms(params):
    a, c = float(params["a"]), float(params["c"])
    b = np.array([float(x) for x in params["b"]])
    # g(u) = e^u * sum_n b_n u^(2n-1) / (2n-1)!
    powers = np.array([2 * n - 1 for n in range(1, b.size + 1)])
    coeffs = b / np.array([math.factorial(int(p)) for p in powers])
    return a, c, b, powers, coeffs


def _odd_poly(coeffs, powers, u):
    return float(np.sum(coeffs * u ** powers))


def independent_l1(params):
    """||f||_1 with f(x) = (a/pi) e^{2icx} sum_n -b_n (1 + 2iax)^(-2n)."""
    a, _, b, _, _ = _lower_terms(params)
    n2 = 2 * np.arange(1, b.size + 1)

    def absf(x):
        return (a / math.pi) * abs(np.sum(b * (1 + 2j * a * x) ** (-n2)))

    X = 50.0 / a
    head = integrate.quad(absf, 0.0, X, limit=2000, epsabs=1e-14, epsrel=1e-13)[0]
    tail = integrate.quad(absf, X, np.inf, limit=2000, epsabs=1e-14, epsrel=1e-13)[0]
    return 2.0 * (head + tail)


def independent_reward(params, penalty):
    """2 pi/||f||_1 (I(t<0) - I_-(t>0) - A I_+(t>0)), I = int profile(t) e^{pi t} dt.

    With u = (pi t - c)/a the integrand is (a/pi) e^c g(u) e^{a u}; the
    positive axis t in (0, c/pi] is u in (-c/a, 0], split at the sign
    changes of g found by sampling and root bracketing.
    """
    a, c, _, powers, coeffs = _lower_terms(params)
    A = math.inf if penalty == "inf" else float(Fraction(penalty))
    pref = (a / math.pi) * math.exp(c)

    def h(u):
        return pref * math.exp((1.0 + a) * u) * _odd_poly(coeffs, powers, u)

    u0 = -c / a
    u_far = min(u0, 0.0) - 150.0 / (1.0 + a)
    head = _quad_split(h, u_far, min(u0, 0.0), coeffs, powers)
    plus = minus = 0.0
    if u0 < 0:
        edges = [u0] + _roots(coeffs, powers, u0, 0.0) + [0.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            part = integrate.quad(h, lo, hi, limit=500, epsabs=1e-15, epsrel=1e-13)[0]
            if part >= 0:
                plus += part
            else:
                minus -= part
    if A == math.inf:
        num = head - minus
    else:
        num = head - minus - A * plus
    return 2.0 * math.pi * num / independent_l1(params)


def _roots(coeffs, powers, lo, hi, samples=20_000):
    us = np.linspace(lo, hi, samples + 1)
    vals = np.array([_odd_poly(coeffs, powers, u) for u in us])
    out = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        out.append(optimize.brentq(lambda u: _odd_poly(coeffs, powers, u), us[i], us[i + 1], xtol=1e-15))
    return out


def _quad_split(h, lo, hi, coeffs, powers):
    points = [lo] + _roots(coeffs, powers, lo, hi) + [hi]
    return sum(integrate.quad(h, x, y, limit=500, epsabs=1e-15, epsrel=1e-13)[0]
               for x, y in zip(points[:-1], points[1:]))


def check_lower_result(payload, penalty, unit_l1):
    """The reward (and, when reported, the L1 norm) agree with quadrature."""
    errs = []
    value, err = float(payload["value"]), float(payload["err"])
    if abs(float(payload["certified_lower_bound"]) - (value - err)) > 1e-15:
        errs.append("certified_lower_bound is not value - err")
    reward = independent_reward(payload["params"], penalty)
    if abs(reward - value) > REWARD_TOL:
        errs.append("reward %.15f differs from the independent %.15f" % (value, reward))
    if "l1_norm" in payload:
        l1 = independent_l1(payload["params"])
        if abs(l1 - float(payload["l1_norm"])) > L1_RTOL * l1:
            errs.append("l1_norm %s differs from the independent %.15f" % (payload["l1_norm"], l1))
    if unit_l1:
        l1 = float(payload.get("l1_norm", "nan"))
        if not abs(l1 - 1.0) <= UNIT_L1_TOL:
            errs.append("l1_norm %s is not within %g of 1" % (payload.get("l1_norm"), UNIT_L1_TOL))
    return errs


# ---------------------------------------------------------------------------
# table workload


def check_table_lower(payload, key):
    errs = check_lower_result(payload, key, unit_l1=True)
    lo = float(payload["value"]) - float(payload["err"])
    if not lo > PAPER_TABLE[key][0]:
        errs.append("certified lower %.10f is not above the published %.5f" % (lo, PAPER_TABLE[key][0]))
    return errs


def check_table_upper(payload, key):
    errs = check_upper_result(payload)
    hi = float(payload["value"]) + float(payload["err"])
    if not hi < PAPER_TABLE[key][1]:
        errs.append("certified upper %.10f is not below the published %.5f" % (hi, PAPER_TABLE[key][1]))
    if payload["params"]["A"] != key:
        errs.append("upper-eval answered for penalty %s, asked %s" % (payload["params"]["A"], key))
    return errs


def check_sandwich(lower_payload, upper_payload, key):
    lo = float(lower_payload["value"]) - float(lower_payload["err"])
    hi = float(upper_payload["value"]) + float(upper_payload["err"])
    return [] if lo <= hi else ["penalty %s: lower %.10f exceeds upper %.10f" % (key, lo, hi)]


def tent_bound(A):
    """max{2 - 2(A+1) log((3-A)/(A+1)) / |log A| + 2A, 1} for 0 < A < 1."""
    return max(2 - 2 * (A + 1) * math.log((3 - A) / (A + 1)) / abs(math.log(A)) + 2 * A, 1.0)


def check_bounds(payload, orders):
    errs = []
    rows = payload["rows"]
    by_penalty = {r["penalty"]: r for r in rows if "order" not in r}
    if set(by_penalty) != set(PAPER_TABLE):
        errs.append("bounds rows cover %s" % sorted(by_penalty))
        return errs

    def near(x, y, what):
        if abs(float(x) - y) > 1e-9 * abs(y):
            errs.append("%s: %s, expected %.12f" % (what, x, y))

    for key, (lo, hi) in PAPER_TABLE.items():
        row = by_penalty[key]
        if float(row["table_lower"]) != lo or float(row["table_upper"]) != hi:
            errs.append("penalty %s: table digits %s, %s" % (key, row["table_lower"], row["table_upper"]))
        near(row["implied_constant"], lo ** -2, "implied constant at %s" % key)
        near(row["method_limit"], hi ** -2, "method limit at %s" % key)
        A = float(Fraction(key))
        if 0 < A < 1:
            near(row["formula_lower"], tent_bound(A), "tent bound at %s" % key)
    by_order = {r["order"]: r for r in rows if "order" in r}
    if sorted(by_order) != sorted(orders):
        errs.append("bounds orders %s, asked %s" % (sorted(by_order), orders))
        return errs
    for ell in orders:
        row = by_order[ell]
        if ell in ORDER_PENALTY:
            lo, hi = PAPER_TABLE[ORDER_PENALTY[ell]]
            near(row["implied_constant"], lo ** -2, "order %d implied constant" % ell)
            near(row["method_limit"], hi ** -2, "order %d method limit" % ell)
        else:
            near(row["implied_constant"], tent_bound(1.0 / (ell - 1)) ** -2, "order %d sharp" % ell)
            simple = 0.25 / (1 - math.log(3) / math.log(ell - 1)) ** 2
            near(row["simple_variant"], simple, "order %d simple" % ell)
    return errs


# ---------------------------------------------------------------------------
# search workload


def check_search_upper(payload, transcript_rows):
    errs = check_upper_result(payload)
    value, err = float(payload["value"]), float(payload["err"])
    if not value + err > PAPER_TABLE["1"][0]:
        errs.append("upper %.10f is not above the published lower 1.14600" % (value + err))
    if not value <= CRITERION_9_UPPER:
        errs.append("upper search certified %.10f > %.4f (criterion 9)" % (value, CRITERION_9_UPPER))
    errs += _check_transcript(transcript_rows, "upper-final", value)
    return errs


def check_search_lower(payload, transcript_rows):
    errs = check_lower_result(payload, payload["penalty"], unit_l1=False)
    lo = float(payload["value"]) - float(payload["err"])
    if not lo < PAPER_TABLE["1"][1]:
        errs.append("lower %.10f is not below the published upper 1.14731" % lo)
    errs += _check_transcript(transcript_rows, "lower-final", float(payload["value"]))
    return errs


def _check_transcript(rows, kind, value):
    if not rows or rows[-1].get("kind") != kind:
        return ["transcript does not end with a %s record" % kind]
    if abs(float(rows[-1]["value"]) - value) > 1e-12 * abs(value):
        return ["transcript final value %s differs from the output %s" % (rows[-1]["value"], value)]
    return []


# ---------------------------------------------------------------------------
# scan workload


def read_records(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["key", "value", "ratio"]:
            raise ValueError("unexpected header %r" % (header,))
        return [(k, int(v), float(r)) for k, v, r in reader]


def is_qnr(n, p):
    """Euler's criterion: n^((p-1)/2) = -1 (mod p)."""
    return pow(n, (p - 1) // 2, p) == p - 1


def check_qnr_records(records, summary, p_lo, p_hi, rng, sample):
    import sympy

    errs = []
    expected = int(sympy.primepi(p_hi)) - int(sympy.primepi(p_lo - 1))
    if len(records) != expected or summary["count"] != expected:
        errs.append("qnr: %d records (summary %s), expected pi(%d) - pi(%d) = %d"
                    % (len(records), summary["count"], p_hi, p_lo - 1, expected))
    for i in rng.choice(len(records), size=min(sample, len(records)), replace=False):
        key, n, ratio = records[int(i)]
        p = int(key)
        if not sympy.isprime(p):
            errs.append("qnr: key %d is not prime" % p)
        elif not is_qnr(n, p):
            errs.append("qnr: %d is a residue mod %d" % (n, p))
        elif any(is_qnr(k, p) for k in range(2, n)):
            errs.append("qnr: %d is not the least non-residue mod %d" % (n, p))
        elif abs(ratio - n / math.log(p) ** 2) > 1e-12:
            errs.append("qnr: ratio %r for %d mod %d" % (ratio, n, p))
    return errs


def check_ap_records(records, summary, q_lo, q_hi, rng, sample):
    import sympy

    errs = []
    expected = sum(int(sympy.totient(q)) for q in range(q_lo, q_hi + 1))
    if len(records) != expected or summary["count"] != expected:
        errs.append("ap: %d records (summary %s), expected sum phi(q) = %d"
                    % (len(records), summary["count"], expected))
    for i in rng.choice(len(records), size=min(sample, len(records)), replace=False):
        key, p, _ = records[int(i)]
        a, q = (int(x) for x in key.split(" mod "))
        if not sympy.isprime(p):
            errs.append("ap: %d is not prime" % p)
        elif p % q != a:
            errs.append("ap: %d is not %d mod %d" % (p, a, q))
        elif any(sympy.isprime(n) for n in range(a, p, q)):
            errs.append("ap: %d is not the least prime = %d mod %d" % (p, a, q))
    return errs


def check_prime_sum(payload, m):
    """Schoenfeld's |psi(m) - m| < sqrt(m) log^2 m / (8 pi), and a small residual."""
    errs = []
    if payload["m"] != m:
        errs.append("prime-sum answered for m=%s" % payload["m"])
    window = math.sqrt(m) * math.log(m) ** 2 / (8 * math.pi)
    if not abs(payload["psi_m"] - m) < window:
        errs.append("|psi(m) - m| = %.1f is not below %.1f" % (abs(payload["psi_m"] - m), window))
    if not abs(payload["normalized_truncated"]) < 10:
        errs.append("normalized truncated residual %r is not below 10" % payload["normalized_truncated"])
    return errs
