"""Derivative-free search drivers for both test families.

The lower family is an unrestricted maximization over (b_1..b_N, log a, c),
driven by a principal-axis direction-set minimizer (repeated line
minimizations, conjugate-direction replacement, SVD re-orthogonalization of
the direction set, seeded random kicks on stalls -- after Brent).  The upper
family minimizes the sup-norm over the knot vector through a positive-gap
parametrization with Nelder-Mead locals, iterating the knot count: start at
one knot, perturb the incumbent to seed the next count, stop when two
consecutive counts fail to improve meaningfully.

Searches run on fast float evaluators.  The upper one is
:func:`fel.upper.fast_sup`, the Abel-summed float residual.  The lower one
takes the L^1 norm in its circle form,

    ||f||_1 = (1/pi) int_0^(pi/2) |sum_n b_n v^(2n-2)| dphi,   v = (1 + e^(-2i phi)) / 2,

the same for every dilation and translation, by 8 Gauss-Legendre panels,
and the transform masses from one antiderivative polynomial.  Any bound
that escapes this module is re-evaluated and certified at full working
precision first.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Sequence

import numpy as np

from . import lower, upper
from .precision import INF, PrecisionContext, as_penalty

__all__ = [
    "SearchConfig",
    "PraxisResult",
    "praxis_minimize",
    "optimize_lower",
    "optimize_upper",
]

_IMPROVE_TOL = 1e-5  # "no significant improvement" threshold per knot count
_LOCAL_TOL = 1e-9  # praxis stops after two sweeps that gain less (relative)


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible search settings."""

    seed: int = 0
    n_max: int = 8
    restarts: int = 8
    budget: int = 100_000

    def __post_init__(self):
        if self.restarts < 1 or self.budget < 1:
            raise ValueError("restarts and budget must be >= 1")


@dataclass
class PraxisResult:
    x: np.ndarray
    fun: float
    nevals: int
    budget_exhausted: bool


class _BudgetExhausted(Exception):
    pass


class _Counter:
    def __init__(self, f, budget):
        self.f = f
        self.budget = budget
        self.n = 0

    def __call__(self, x):
        if self.n >= self.budget:
            raise _BudgetExhausted
        self.n += 1
        return float(self.f(x))


def _line_minimize(f, x, v, fx, step):
    """Bracket-and-golden minimization of f along direction v from x.

    Returns (new_x, new_fx, decrease, |step taken|).
    """
    phi = 1.6180339887498949
    a0, f0 = 0.0, fx
    a1 = step
    f1 = f(x + a1 * v)
    if f1 > f0:
        a1 = -step
        f1 = f(x + a1 * v)
    if f1 <= f0:
        a2 = a1 * phi
        f2 = f(x + a2 * v)
        while f2 < f1:
            a0, f0 = a1, f1
            a1, f1 = a2, f2
            a2 = a1 * phi
            f2 = f(x + a2 * v)
        lo, hi = min(a0, a2), max(a0, a2)
    else:
        lo, hi = -abs(step), abs(step)
    invphi = 0.6180339887498949
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = f(x + c * v)
    fd = f(x + d * v)
    for _ in range(60):
        if hi - lo < 1e-12 * (1.0 + abs(lo) + abs(hi)):
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(x + c * v)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(x + d * v)
    fbest, abest = min([(f0, a0), (fc, c), (fd, d), (fx, 0.0)])
    return x + abest * v, fbest, fx - fbest, abs(abest)


def praxis_minimize(objective: Callable, x0: Sequence[float], cfg: SearchConfig) -> PraxisResult:
    """Principal-axis local minimization without derivatives.

    Line-minimizes along a maintained direction set, replaces the direction
    of largest decrease with the normalized overall displacement (conjugate
    update), re-orthogonalizes the set along the principal axes of the
    recent displacements (SVD) every sweep cycle, and applies a small seeded
    random kick when progress stalls.  Deterministic for a fixed seed; stops
    on two consecutive sweeps below ``_LOCAL_TOL`` (relative) or on budget
    exhaustion (result flagged).
    """
    rng = np.random.default_rng(cfg.seed)
    x = np.asarray(x0, dtype=np.float64).copy()
    n = x.size
    f = _Counter(objective, cfg.budget)
    exhausted = False
    try:
        fx = f(x)
        V = np.eye(n)
        step = 0.5
        history = []
        stalls = 0
        for sweep in range(1000):
            x_old, f_old = x.copy(), fx
            decreases = np.zeros(n)
            for k in range(n):
                x, fx, dk, taken = _line_minimize(f, x, V[:, k], fx, step)
                decreases[k] = dk
            d = x - x_old
            nd = float(np.linalg.norm(d))
            if nd > 1e-15:
                kl = int(np.argmax(decreases))
                V[:, kl] = V[:, n - 1]
                V[:, n - 1] = d / nd
                x, fx, _, _ = _line_minimize(f, x, V[:, n - 1], fx, max(nd, 1e-8))
                history.append(d)
            if len(history) >= n:
                # principal axes of the recent displacements
                M = np.stack(history[-n:], axis=1)
                try:
                    u, s, _ = np.linalg.svd(M)
                    if np.all(s > 1e-14 * s.max()):
                        V = u
                except np.linalg.LinAlgError:
                    pass
                history = history[-n:]
            step = max(0.1 * step + 0.9 * nd, 1e-10)
            if f_old - fx <= _LOCAL_TOL * (1.0 + abs(fx)):
                stalls += 1
                if stalls >= 2:
                    break
                # seeded kick to escape resolution valleys
                kick = rng.standard_normal(n) * max(step, 1e-7) * 0.1
                fk = f(x + kick)
                if fk < fx:
                    x, fx = x + kick, fk
            else:
                stalls = 0
    except _BudgetExhausted:
        exhausted = True
    return PraxisResult(x=x, fun=fx, nevals=f.n, budget_exhausted=exhausted)


# ---------------------------------------------------------------------------
# fast float evaluators


@functools.lru_cache(maxsize=8)
def _circle_rule(N: int):
    """(V, wts, odd factorials) for N coefficients, built on first use.

    The nodes phi_j are 8 panels of the 64-point Gauss-Legendre rule on
    [0, pi/2]; ``V[0]`` and ``V[1]`` are the real and imaginary parts of
    ``v_j^(2n)`` (n from 0) with ``v = (1 + e^(-2i phi)) / 2``, and ``wts``
    carries the 1/pi of the circle form, so ``wts @ hypot(*(V @ b))`` is
    ||f_b||_1.  Two real mat-vecs, because OpenBLAS threads a complex one of
    this size and then waits on its worker whenever the other cores are
    busy.  Built here, not at import: only the lower search needs the rule,
    and ``numpy.polynomial`` with it.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    h = math.pi / 16
    phi = ((np.arange(8)[:, None] + 0.5) * h + 0.5 * h * x).ravel()
    v = 0.5 * (1.0 + np.exp(-2j * phi))
    vp = np.vander(v * v, N, increasing=True)
    V = np.stack([vp.real, vp.imag])
    wts = np.tile(w * (0.5 * h / math.pi), 8)
    fact = np.array([math.factorial(2 * k + 1) for k in range(N)], dtype=float)
    for arr in (V, wts, fact):  # shared by every caller
        arr.flags.writeable = False
    return V, wts, fact


def _fast_l1_norm(b: np.ndarray) -> float:
    """Float ||f_b||_1 = (1/pi) int_0^(pi/2) |Q_b(v)| dphi, by :func:`_circle_rule`."""
    V, wts, _ = _circle_rule(len(b))
    return float(wts @ np.hypot(*(V @ b)))


def _fast_lower_value(a: float, c: float, b: np.ndarray, penalty: float) -> float:
    """Float evaluation of the lower-family reward (search mode only).

    The L^1 norm is the circle form ``(1/pi) int_0^(pi/2) |Q_b(v)| dphi``
    with ``Q_b(v) = sum_n b_n v^(2n-2)`` and ``v = (1 + e^(-2i phi)) / 2``
    (substitute ``x = tan(phi) / (2a)``), which depends on ``b`` alone; the
    transform masses come from one antiderivative polynomial.  Outside a
    generous parameter box, and wherever a value leaves the float range,
    the value is penalty-extended to -1e9, quietly, which keeps the
    direction-set search total.
    """
    if not (1e-3 < a < 50.0) or abs(c) > 30.0 or not np.all(np.isfinite(b)):
        return -1e9
    try:
        with np.errstate(all="ignore"):
            value = _fast_lower_value_inner(a, c, b, penalty)
    except (OverflowError, FloatingPointError, ValueError):
        return -1e9
    return value if math.isfinite(value) else -1e9


def _fast_lower_value_inner(a: float, c: float, b: np.ndarray, penalty: float) -> float:
    N = len(b)
    l1 = _fast_l1_norm(b)
    if not 1e-12 <= l1 < math.inf:
        return -1e9

    # each mass is pref * int p(u) e^(lam u) du over a u-interval, p the odd
    # profile polynomial; with (q e^(lam u))' = p e^(lam u) it is
    # pref * (F(u2) - F(u1)), F(u) = e^(lam u) q(u), and F(-inf) = 0
    lam = 1.0 + a
    coeffs = b / _circle_rule(N)[2]  # coefficient of u^(2k+1)
    p = [0.0] * (2 * N)
    p[1::2] = coeffs.tolist()
    q = [0.0] * (2 * N + 1)
    for e in range(2 * N - 1, -1, -1):
        q[e] = (p[e] - (e + 1) * q[e + 1]) / lam

    pref = (a / math.pi) * math.exp(c)
    u_zero = -c / a  # u-image of t = 0; the masses live on (u_zero, 0)
    roots_u = [u_zero, 0.0] if c > 0 else [0.0]
    if c > 0 and N > 1:
        # roots of the odd polynomial on (u_zero, 0) via companion matrix in u^2
        for v in np.roots(coeffs[::-1]):
            if abs(v.imag) < 1e-9 and v.real > 0:
                u = -math.sqrt(v.real)
                if u_zero < u < 0:
                    roots_u.append(u)
    roots_u.sort()
    F = [math.exp(lam * u) * _horner(q, u) for u in roots_u]
    head_i = pref * F[0]
    pos_mass = neg_mass = 0.0
    for u1, u2, F1, F2 in zip(roots_u, roots_u[1:], F, F[1:]):
        if u2 - u1 < 1e-300:
            continue
        if _horner(p, 0.5 * (u1 + u2)) >= 0:
            pos_mass += pref * (F2 - F1)
        else:
            neg_mass -= pref * (F2 - F1)
    pos_mass, neg_mass = max(pos_mass, 0.0), max(neg_mass, 0.0)
    if penalty == math.inf:
        if pos_mass > 1e-12:
            return -1e9
        num = head_i - neg_mass
    else:
        num = head_i - neg_mass - penalty * pos_mass
    return 2.0 * math.pi * num / l1


def _horner(cs, u):
    """sum_e cs[e] u^e, on Python floats."""
    acc = 0.0
    for ce in reversed(cs):
        acc = acc * u + ce
    return acc


# ---------------------------------------------------------------------------
# drivers


class _Transcript:
    """JSON-lines incumbent log (one record per improvement)."""

    def __init__(self, path):
        self.path = path
        self.rows = []

    def record(self, **row):
        self.rows.append(row)
        if self.path is not None:
            with open(self.path, "a") as fh:
                fh.write(json.dumps(row) + "\n")


def optimize_lower(penalty, n_terms: int, cfg: SearchConfig, ctx: PrecisionContext | None = None,
                   x0: Sequence[float] | None = None, transcript_path=None):
    """Maximize the lower-family reward over (b, log a, c).

    Runs ``cfg.restarts`` seeded principal-axis starts on the fast float
    objective (log-parametrized dilation keeps a > 0), then recomputes the
    incumbent at full precision.  A seed ``x0`` is one start, ``n_terms + 2``
    finite floats (b, log a, c); any other raises ValueError.  Returns
    (LowerParams, the reward as an ErrBounded whose ``meta["l1"]`` is its
    L^1 norm).
    """
    if n_terms < 1:
        raise ValueError("need at least one coefficient")
    ctx = ctx or PrecisionContext.make(40)
    pen = as_penalty(penalty)
    pen_f = math.inf if pen is INF else float(pen)
    rng = np.random.default_rng(cfg.seed)
    log = _Transcript(transcript_path)

    inf_mode = pen_f == math.inf

    def neg_objective(theta):
        b = np.asarray(theta[:n_terms])
        a = math.exp(min(theta[n_terms], 30.0))
        c = theta[n_terms + 1]
        if inf_mode:
            c = min(c, 0.0)  # keeps the profile supported on the negative axis
        return -_fast_lower_value(a, c, b, pen_f)

    best_x, best_v = None, -math.inf
    budget_each = max(cfg.budget // cfg.restarts, 100)
    sub = dataclasses.replace(cfg, restarts=1, budget=budget_each)
    starts = []
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n_terms + 2,) or not np.isfinite(x0).all():
            raise ValueError("x0 must be %d finite floats (b, log a, c)" % (n_terms + 2))
        starts.append(x0)
    while len(starts) < cfg.restarts:
        b = rng.standard_normal(n_terms)
        b[0] = -abs(b[0])  # bias toward the single-term extremal shape
        log_a = rng.normal(0.0, 0.7)
        c0 = abs(rng.normal(0.5, 0.5))
        starts.append(np.concatenate([b, [log_a, c0]]))
    for i, s in enumerate(starts[: cfg.restarts]):
        res = praxis_minimize(neg_objective, s, sub)
        if -res.fun > best_v:
            best_v, best_x = -res.fun, res.x.copy()
            log.record(kind="lower", restart=i, value=best_v, nevals=res.nevals)
    if best_x is None or best_v <= -1e8:
        raise RuntimeError("no candidate found: every restart degenerated")

    b = best_x[:n_terms]
    a = math.exp(best_x[n_terms])
    c = best_x[n_terms + 1]
    if inf_mode:
        c = min(c, 0.0)
    params = lower.LowerParams(a=Decimal(repr(float(a))), c=Decimal(repr(float(c))),
                               b=tuple(Decimal(repr(float(x))) for x in b))
    certified = lower.reward(params, penalty, ctx)
    log.record(kind="lower-final", value=float(certified.value), err=float(certified.err))
    return params, certified


def _nm_local(fun, x0, budget):
    # imported here: scipy.optimize costs about 0.3-0.45 s and 45 MB, and only the upper search needs it
    from scipy.optimize import minimize

    res = minimize(fun, x0, method="Nelder-Mead",
                   options={"maxfev": budget, "xatol": 1e-9, "fatol": 1e-10})
    return res.x, float(res.fun)


def _knots_of_gaps(y):
    """Knots from log-gaps clamped to [-18, 3], as ``np.clip`` would, NaN included."""
    return np.cumsum(np.exp(np.minimum(np.maximum(y, -18.0), 3.0)))


def optimize_upper(penalty, cfg: SearchConfig, ctx: PrecisionContext | None = None,
                   knots0: Sequence[float] | None = None, transcript_path=None):
    """Minimize the sup-norm over knot vectors, growing the knot count.

    Per count: Nelder-Mead locals from seeded perturbations of the incumbent
    (positive gaps keep the ordering); the count loop stops after two
    consecutive counts improve by less than 1e-5, or at ``cfg.n_max``.  A
    seed ``knots0`` starts the count loop at its length; it must be 1 to
    ``cfg.n_max`` increasing, positive, finite knots, or ValueError.
    Returns (UpperParams, the sup-norm as an ErrBounded) certified at full
    precision.
    """
    ctx = ctx or PrecisionContext.make(40)
    empty = upper.UpperParams(penalty=penalty, knots=())  # validates the penalty
    A = float(empty.penalty)
    rng = np.random.default_rng(cfg.seed)
    log = _Transcript(transcript_path)
    evals_left = [cfg.budget]

    if knots0 is not None:
        knots0 = np.asarray(knots0, dtype=float)
        if not (knots0.ndim == 1 and 1 <= knots0.size <= cfg.n_max and np.isfinite(knots0).all()
                and knots0[0] > 0 and (knots0[1:] > knots0[:-1]).all()):
            raise ValueError("knots0 must be 1 to n_max = %d increasing, positive, finite knots"
                             % cfg.n_max)

    def sup_of_gaps(y):
        if evals_left[0] <= 0:
            return 1e9
        evals_left[0] -= 1
        return upper.fast_sup(A, _knots_of_gaps(y))

    if A == 0.0:
        return empty, upper.sup_norm(empty, ctx)

    best_y, best_v = None, upper.fast_sup(A, np.array([]))  # empty weight: baseline 2
    log.record(kind="upper", n=0, value=best_v)
    prev_best = best_v
    weak_rounds = 0
    incumbent = None
    if knots0 is not None:
        incumbent = np.log(np.diff(np.concatenate([[0.0], knots0])))
    n_start = len(knots0) if knots0 is not None else 1
    for n in range(n_start, cfg.n_max + 1):
        seeds = []
        if incumbent is not None and incumbent.size == n:
            seeds.append(incumbent.copy())
        for j in range(cfg.restarts):
            if incumbent is not None and incumbent.size == n - 1:
                if j % 2 == 0:
                    # split the widest gap of the incumbent
                    gaps = np.exp(incumbent)
                    i = int(np.argmax(gaps))
                    gaps2 = np.concatenate([gaps[:i], [gaps[i] / 2, gaps[i] / 2], gaps[i + 1:]])
                    seeds.append(np.log(gaps2) + rng.normal(0.0, 0.05, size=n))
                else:
                    # append a fresh small gap after a jittered incumbent
                    extra = math.log(max(abs(rng.normal(0.0, 0.1)), 1e-4))
                    seeds.append(np.concatenate([incumbent + rng.normal(0.0, 0.02, size=n - 1), [extra]]))
            else:
                seeds.append(np.log(np.abs(rng.normal(0.0, 0.1, size=n)) + 1e-4))
        round_best_y, round_best_v = None, math.inf
        for s in seeds:
            if evals_left[0] <= 0:
                break
            y, v = _nm_local(sup_of_gaps, s, min(evals_left[0], 4000))
            if v < round_best_v:
                round_best_y, round_best_v = y, v
        if round_best_y is not None and round_best_v < best_v:
            best_y, best_v = round_best_y, round_best_v
            incumbent = round_best_y
            log.record(kind="upper", n=n, value=best_v, evals_used=cfg.budget - evals_left[0])
        improvement = prev_best - best_v
        if improvement < _IMPROVE_TOL:
            weak_rounds += 1
            if weak_rounds >= 2:
                break
        else:
            weak_rounds = 0
        prev_best = best_v
        if evals_left[0] <= 0:
            break

    if best_y is None:
        params = empty
    else:
        knots = _knots_of_gaps(best_y)
        params = upper.UpperParams(penalty=empty.penalty,
                                   knots=tuple(Decimal(repr(float(k))) for k in knots))
    certified = upper.sup_norm(params, ctx)
    log.record(kind="upper-final", value=float(certified.value), err=float(certified.err),
               knots=[str(k) for k in params.knots])
    return params, certified
