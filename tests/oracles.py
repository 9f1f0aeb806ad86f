"""Reference implementations that only the tests use.

Each is the plain formula on mpmath objects (or a scalar front end) that a
production kernel of ``fel`` is held to, or that a published criterion is
checked with: closed-form integrals of ``u^m e^(lam u)``, the tent profile
of :mod:`fel.closed_form`, the lower family's profile and modulus, the upper
family's residual, its knot-by-knot float form, its local maxima and its
below-threshold certifier, the upper search's Nelder-Mead locals run one
after another by scipy, and the scalar number-theory front ends with their
Miller-Rabin check, and the CSV rows of the number-theory scans.  No
command of ``fel`` calls them.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import to_str

from fel.closed_form import _check_open_unit
from fel.lower import LowerParams, _odd_coeffs, _profile
from fel.nt import _least_prime_with_symbol
from fel.precision import PrecisionContext, Unconverged, maximize_scalar
from fel.search import _knots_of_gaps
from fel.upper import (UpperParams, _branch_and_bound, _modulus_and_slope, _piece_table, _pieces, _tail_cut,
                       fast_sup)


_CTX30 = PrecisionContext(30)  # the tent oracles' default precision


# closed-form integrals (fel.precision)


def poly_exp_antiderivative(m: int, lam, u):
    """Antiderivative P with P'(u) = u**m * exp(lam*u), lam != 0.

    ``P(u) = exp(lam*u) * sum_{k=0..m} (-1)**k (m!/(m-k)!) u**(m-k) / lam**(k+1)``.
    Evaluated at the caller's current mpmath precision; exact up to rounding.
    """
    if m < 0 or m != int(m):
        raise ValueError("m must be a non-negative integer")
    lam = mp.mpf(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    u = mp.mpf(u)
    acc = mp.mpf(0)
    falling = mp.mpf(1)  # m!/(m-k)!
    sign = 1
    for k in range(m + 1):
        acc += sign * falling * u ** (m - k) / lam ** (k + 1)
        falling *= m - k
        sign = -sign
    return mp.e ** (lam * u) * acc


def poly_exp_integral(m: int, lam, a, b):
    """Definite integral of u**m * exp(lam*u) over [a, b].

    ``a = -inf`` is allowed when lam > 0 and ``b = +inf`` when lam < 0 (the
    antiderivative limit vanishes there).
    """
    lam = mp.mpf(lam)
    if a == mp.inf or b == -mp.inf:
        raise ValueError("reversed infinite endpoint")
    if a == -mp.inf:
        if lam <= 0:
            raise ValueError("integral from -inf diverges unless lam > 0")
        lo = mp.mpf(0)
    else:
        lo = poly_exp_antiderivative(m, lam, a)
    if b == mp.inf:
        if lam >= 0:
            raise ValueError("integral to +inf diverges unless lam < 0")
        hi = mp.mpf(0)
    else:
        hi = poly_exp_antiderivative(m, lam, b)
    return hi - lo


# the tent profile (fel.closed_form)


@dataclass(frozen=True)
class TentParams:
    """Width parameter ``epsilon > 0``, shift ``c >= 0`` and penalty in [0, 1).

    The closed form requires 0 <= c <= 1/epsilon.
    """

    epsilon: object
    shift: object
    penalty: object

    def __post_init__(self):
        with mp.workdps(max(mp.mp.dps, 30)):
            eps = mp.mpf(str(self.epsilon))
            c = mp.mpf(str(self.shift))
            A = mp.mpf(str(self.penalty))
            if not eps > 0:
                raise ValueError("epsilon must be positive")
            if not (0 <= c <= 1 / eps):
                raise ValueError("need 0 <= shift <= 1/epsilon")
            if A < 0:
                raise ValueError("penalty must be non-negative")
            object.__setattr__(self, "epsilon", eps)
            object.__setattr__(self, "shift", c)
            object.__setattr__(self, "penalty", A)


def simple_lower_bound(penalty, ctx: PrecisionContext = _CTX30):
    """Weaker but simpler variant: 2 - 2 log 3 / |log penalty|."""
    with ctx.workprec():
        A = _check_open_unit(penalty)
        return 2 - 2 * mp.log(3) / abs(mp.log(A))


def tent_reward(tp: TentParams, ctx: PrecisionContext = _CTX30):
    """Closed form of the reward functional on the translated tent profile.

    Derived by elementary integration of (1 - |eps*(t+c)|)_+ e^{pi t} over
    the negative and positive half-lines (the profile is non-negative, and
    its underlying function has unit L^1 norm).
    """
    with ctx.workprec():
        eps, c, A = tp.epsilon, tp.shift, tp.penalty
        pi = mp.pi
        return (
            2
            - 4 * eps * mp.e ** (-pi * c) / pi
            - 2 * eps * (pi * c - 1) / pi
            + 2 * eps * mp.e ** (-pi * c - pi / eps) / pi
            + 2 * A * (
                1
                - eps * mp.e ** (-pi * c + pi / eps) / pi
                - eps * (pi * c - 1) / pi
            )
        )


def tent_reward_quadrature(tp: TentParams, ctx: PrecisionContext = _CTX30):
    """:func:`tent_reward` by ``mp.quad``, split at the kinks of the profile
    at t = -c - 1/eps, -c, 0 so that each piece is smooth; the L^1
    normalization is exactly 1."""
    with ctx.workprec():
        eps, c, A = tp.epsilon, tp.shift, tp.penalty
        f = lambda t: max(1 - abs(eps * (t + c)), 0) * mp.e ** (mp.pi * t)
        right = -c + 1 / eps
        neg = mp.quad(f, [-c - 1 / eps, -c, min(right, 0)], method="gauss-legendre")
        pos = mp.quad(f, [0, right], method="gauss-legendre") if right > 0 else 0
        return 2 * mp.pi * (neg - A * pos)


def tent_optimal(penalty, ctx: PrecisionContext = _CTX30) -> TentParams:
    """Optimal tent width and shift for a penalty in (0, 1).

    epsilon = pi / log(1/A) and shift = log((3-A)/(A+1)) / pi, at which the
    closed form equals the first branch of :func:`closed_lower_bound`.
    """
    with ctx.workprec():
        A = _check_open_unit(penalty)
        eps = mp.pi / mp.log(1 / A)
        c = mp.log((3 - A) / (A + 1)) / mp.pi
        return TentParams(epsilon=eps, shift=c, penalty=A)


# the lower family (fel.lower)


def spectrum(p: LowerParams, t) -> object:
    """Transform profile at ``t``: g((pi*t - c)/a); zero for pi*t > c."""
    a, c, bs = p.mp_values()
    return _profile(a, c, _odd_coeffs(bs), t)


def modulus(p: LowerParams, x) -> object:
    """|f(x)| of the underlying L^1 function: (a/pi)|sum b_n w^n|, w = 1/(1+2iax)^2.

    Plain mpmath at the working precision, by Horner in w; :func:`l1_norm`
    integrates its own kernel instead.
    """
    a, _, bs = p.mp_values()
    w = 1 / (1 + 2j * a * mp.mpf(x)) ** 2
    acc = 0
    for bn in reversed(bs):
        acc = acc * w + bn
    return (a / mp.pi) * abs(acc * w)


# the upper family (fel.upper)


def residual(up: UpperParams, t):
    """The residual transform at real ``t`` (complex value), on mpmath objects.

    The formula of the module docstring at the working precision, each
    ``e^{(pi - 2 pi i t) T_n}`` computed once.  No certificate calls it: it
    is the reference that the tests hold the working-precision kernel
    :func:`_residual_slope` and the float kernels to.
    """
    t = mp.mpf(t)
    z = mp.pi - 2j * mp.pi * t
    d = 1 - 2j * t
    val = 2 / d
    ks = [mp.mpf(0)] + up.mp_knots()
    e0 = mp.e ** (z * ks[0])
    for n, cn in enumerate(up.coefficients()):
        e1 = mp.e ** (z * ks[n + 1])
        if cn != 0:
            val -= 2 * cn * (e1 - e0) / d
        e0 = e1
    return val


def residual_np(A, knots, ts: np.ndarray, deriv: bool = False):
    """The residual at the float array ``ts`` (any shape) in float64, for penalty ``A``.

    ``knots`` are the knots ``T_1 < ... < T_N`` (floats, or anything
    ``float`` accepts).  The Abel form of :func:`fast_sup` on the weights of
    :func:`_pieces`, summed knot by knot: one complex exponential per knot
    and a few arrays the size of ``ts``.  With ``deriv`` the result is
    (residual, d/dt residual), the slope ``(N' + 2i residual) / (1 - 2it)``
    from the same exponentials, ``N'`` the derivative of the numerator.
    """
    import numpy as np

    Ts = np.array([float(k) for k in knots])
    dc2, _, d0 = _pieces(float(A), Ts.size)
    num = np.full(np.shape(ts), d0, dtype=complex)
    if deriv:
        num1 = np.zeros_like(num)
    for w, f in zip((dc2 * np.exp(np.pi * Ts)).tolist(), (-2j * np.pi * Ts).tolist()):
        e = np.multiply(ts, f)  # -2 pi i T_m t
        np.exp(e, out=e)
        e *= w
        num += e
        if deriv:
            e *= f
            num1 += e
    z = 1 - 2j * ts
    val = num / z
    return (val, (num1 + 2j * val) / z) if deriv else val


def certify_below(up: UpperParams, t_lo: float, threshold: float, ctx: PrecisionContext):
    """Certify |residual(t)| < threshold for every t >= t_lo.

    Returns ``(ok, meta)``: the grid runs with ``threshold * 1e-6`` as its
    slack, and certifies when its bound (``meta["sup_bound"]``, the witness
    plus that slack) is below the threshold; the meta carries the witness.
    The scan window ends where the closed-form majorant drops under the
    threshold.
    """
    with ctx.workprec():
        _, L2, C = _piece_table(up)
        t_hi = _tail_cut(C, mp.mpf(threshold) * (1 - mp.mpf("1e-9")))
        meta = {"t_window": (float(t_lo), float(t_hi)), "curvature": float(L2)}
        if t_hi <= t_lo:
            return True, meta
        margin = float(threshold) * 1e-6
        try:
            wt, wv, cert, _, _ = _branch_and_bound(up, float(t_lo), float(t_hi), float(L2), margin)
        except Unconverged:
            return False, {**meta, "reason": "refinement budget exhausted"}
        meta["sup_bound"] = cert
        meta["witness_t"] = wt
        meta["witness_value"] = wv
        return cert < float(threshold), meta


def local_maxima(up: UpperParams, t_lo: float, t_hi: float, ctx: PrecisionContext, samples: int = 200_000):
    """Refined local maxima of |residual| on [t_lo, t_hi].

    Grid detection (strict interior maxima plus dominating endpoints)
    followed by the full-precision polish of :func:`sup_norm` from each
    candidate, within two grid steps of it.  Returns a list of
    (t, value) pairs in increasing t.  ``t`` is the code's frequency; the
    positions quoted by the acceptance criteria are ``t/pi``.  Knots that take
    the float grid out of range raise ``ValueError``.
    """
    import numpy as np

    with ctx.workprec():
        abs_residual, slope = _modulus_and_slope(_piece_table(up)[0])
        ts = np.linspace(t_lo, t_hi, samples + 1)
        v = np.abs(residual_np(up.penalty, up.knots, ts))
        step = (t_hi - t_lo) / samples
        cand = []
        if v[0] >= v[1]:
            cand.append(0)
        interior = np.where((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]))[0] + 1
        prev = -10.0
        for i in interior:
            if ts[i] - prev < 4 * step:
                continue
            cand.append(int(i))
            prev = float(ts[i])
        if v[-1] >= v[-2] and (not cand or ts[-1] - ts[cand[-1]] > 4 * step):
            cand.append(samples)
        out = []
        for i in cand:
            lo = max(t_lo, float(ts[i]) - 2 * step)
            hi = min(t_hi, float(ts[i]) + 2 * step)
            m = maximize_scalar(abs_residual, slope, float(ts[i]), lo, hi, ctx)
            out.append((m.meta["argmax"], m.value))
        out.sort(key=lambda p: p[0])
        merged = []
        for t, val in out:
            if merged and abs(t - merged[-1][0]) < 10 * step:
                if val > merged[-1][1]:
                    merged[-1] = (t, val)
                continue
            merged.append((t, val))
        return merged


# the upper search (fel.search)


def locals_in_sequence(A, seeds, evals_left):
    """Drop-in for ``fel.search._locals_in_lockstep``: the sequential scipy loop.

    Each seed in turn gets ``scipy.optimize.minimize(method="Nelder-Mead")``
    with ``maxfev = min(4000, evals left)``, until none are left; every
    evaluation is one single :func:`fel.upper.fast_sup` call.  This is how
    the upper search ran its locals before they ran in lockstep.
    """
    from scipy.optimize import minimize

    left = [evals_left]

    def sup_of_gaps(y):
        left[0] -= 1
        return fast_sup(A, _knots_of_gaps(y))

    found = []
    for s in seeds:
        if left[0] <= 0:
            break
        res = minimize(sup_of_gaps, s, method="Nelder-Mead",
                       options={"maxfev": min(left[0], 4000), "xatol": 1e-9, "fatol": 1e-10})
        found.append((res.x, float(res.fun)))
    return found, evals_left - left[0]


# scalar number theory (fel.nt)


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_SMALL_LIMIT = 3_215_031_751
_MR_SMALL_WITNESSES = _MR_WITNESSES[:4]


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24 (covers 64-bit).

    Below 3_215_031_751 the four bases 2, 3, 5, 7 suffice (Jaeschke 1993);
    above it the twelve bases up to 37 are used.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_SMALL_WITNESSES if n < _MR_SMALL_LIMIT else _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p: int):
    if p < 3 or not is_prime_u64(p):
        raise ValueError("%r is not an odd prime" % (p,))


def least_qnr(p: int) -> int:
    """Least quadratic non-residue modulo an odd prime (always prime itself,
    so only primes are tried)."""
    _check_odd_prime(p)
    return int(_least_prime_with_symbol(np.array([p]), -1)[0])


def least_prime_qr(p: int) -> int:
    """Least prime that is a quadratic residue modulo an odd prime."""
    _check_odd_prime(p)
    return int(_least_prime_with_symbol(np.array([p]), 1)[0])


def scan_csv_lines(kind: str, lo: int, hi: int) -> list:
    """The lines of the CSV that ``fel nt --kind kind --out`` writes for the
    keys in [lo, hi], on mpmath objects at ``mp.workdps(30)`` (103 bits),
    each ratio printed with ``to_str(x, 20)``.

    qnr and prime-qr: each odd prime p and the least prime l with Euler's
    (l|p) = -1 or +1, ratio l / log(p)^2.  ap: each coprime residue a of q
    and the least prime p = a (mod q), ratio p / (phi(q) log q)^2; q = 1 has
    the one class 0 mod 1 with its prime 2, divided by log(2)^2 since
    log 1 = 0.
    """
    lines = ["key,value,ratio"]
    with mp.workdps(30):
        if kind in ("qnr", "prime-qr"):
            want = -1 if kind == "qnr" else 1
            for p in range(max(lo, 3), hi + 1):
                if not is_prime_u64(p):
                    continue
                ell = next(l for l in range(2, p)
                           if is_prime_u64(l) and (pow(l, (p - 1) // 2, p) == 1) == (want == 1))
                ratio = mp.mpf(ell) / mp.log(p) ** 2
                lines.append("%d,%d,%s" % (p, ell, to_str(ratio._mpf_, 20)))
        elif kind == "ap":
            for q in range(lo, hi + 1):
                if q == 1:
                    lines.append("0 mod 1,2,%s" % to_str((mp.mpf(2) / mp.log(2) ** 2)._mpf_, 20))
                    continue
                residues = [a for a in range(q) if math.gcd(a, q) == 1]
                for a in residues:
                    p = next(n for n in range(a, 10**9, q) if is_prime_u64(n))
                    ratio = mp.mpf(p) / (len(residues) * mp.log(q)) ** 2
                    lines.append("%d mod %d,%d,%s" % (a, q, p, to_str(ratio._mpf_, 20)))
        else:
            raise ValueError("unknown scan kind %r" % (kind,))
    return lines
