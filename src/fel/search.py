"""Derivative-free search drivers for both test families.

The lower family is an unrestricted maximization over (b_1..b_N, log a, c),
driven by a principal-axis direction-set minimizer (repeated line
minimizations, conjugate-direction replacement, SVD re-orthogonalization of
the direction set, seeded random kicks on stalls -- after Brent).  The upper
family minimizes the sup-norm over the knot vector through a positive-gap
parametrization with Nelder-Mead locals, iterating the knot count: start at
one knot, perturb the incumbent to seed the next count, stop when two
consecutive counts fail to improve meaningfully.

Searches run on fast float evaluators (the upper one is
:func:`fel.upper.fast_sup`, the Abel-summed float residual); any bound that
escapes this module is re-evaluated and certified at full working precision
first.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
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


_GL64 = np.polynomial.legendre.leggauss(64)


def _fast_lower_value(a: float, c: float, b: np.ndarray, penalty: float) -> float:
    """Float evaluation of the lower-family reward (search mode only).

    Outside a generous parameter box (and on any float overflow) the value
    is penalty-extended to -1e9, which keeps the direction-set search total.
    """
    if not (1e-3 < a < 50.0) or abs(c) > 30.0 or not np.all(np.isfinite(b)):
        return -1e9
    try:
        return _fast_lower_value_inner(a, c, b, penalty)
    except (OverflowError, FloatingPointError, ValueError):
        return -1e9


def _fast_lower_value_inner(a: float, c: float, b: np.ndarray, penalty: float) -> float:
    N = len(b)
    fact = np.array([math.factorial(2 * k + 1) for k in range(N)])
    coeffs = b / fact  # coefficient of u^(2k+1)

    # L1 norm: head [0, X] by fixed Gauss panels, tail by compactification
    absb = np.abs(b)
    k0 = int(np.argmax(absb > 0)) if absb.any() else 0
    if not absb.any():
        return -1e9
    rest = absb[k0 + 1 :]
    if rest.sum() > 0:
        r_star = min(0.5, 0.5 * absb[k0] / rest.sum())
    else:
        r_star = 0.5
    X = 2.0 * math.sqrt(max((1.0 / r_star - 1.0) / (4 * a * a), 1.0))
    nodes, weights = _GL64

    def abs_f(x):
        w = 1.0 / (1.0 + 2j * a * x) ** 2
        acc = np.zeros_like(x, dtype=complex)
        wp = np.ones_like(x, dtype=complex)
        for bn in b:
            wp = wp * w
            acc = acc + bn * wp
        return (a / math.pi) * np.abs(acc)

    # all 23 panels as one (23, 64) node array, summed panel by panel:
    # a mat-vec over the panels would change the rounding of the head
    edges = np.geomspace(1.0, X + 1.0, 24) - 1.0
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    F = abs_f(mids[:, None] + halves[:, None] * nodes)
    head = 0.0
    for half, row in zip(halves, F):
        head += half * float(np.dot(weights, row))

    def tail_int(u):
        z = (u + 2j * a * X) ** -2.0
        acc = np.zeros_like(u, dtype=complex)
        zp = np.ones_like(u, dtype=complex)
        up = np.ones_like(u)
        u2 = u * u
        for i, bn in enumerate(b):
            zp = zp * z
            if i > 0:
                up = up * u2
            acc = acc + bn * up * zp
        return (a * X / math.pi) * np.abs(acc)

    mid, half = 0.5, 0.5
    tail = half * float(np.dot(weights, tail_int(mid + half * nodes)))
    l1 = 2.0 * (head + tail)
    if not np.isfinite(l1) or l1 < 1e-12:
        return -1e9

    lam = 1.0 + a
    lam_pows = [lam ** (j + 1) for j in range(2 * N)]
    powers = {}  # u -> (e^(lam u), [u^0, ..., u^(2N-1)]), shared by every term

    def pexp_int(mdeg, u1, u2):
        # definite integral of u^mdeg e^(lam u); u1 may be -inf (lam > 0)
        def anti(u):
            if u not in powers:
                powers[u] = (math.exp(lam * u), [u ** e for e in range(2 * N)])
            eu, upow = powers[u]
            acc, falling, sign = 0.0, 1.0, 1.0
            for k in range(mdeg + 1):
                acc += sign * falling * upow[mdeg - k] / lam_pows[k]
                falling *= mdeg - k
                sign = -sign
            return eu * acc

        return anti(u2) - (0.0 if u1 == -math.inf else anti(u1))

    pref = (a / math.pi) * math.exp(c)
    u_zero = -c / a
    head_i = pref * sum(ck * pexp_int(2 * k + 1, -math.inf, min(0.0, u_zero)) for k, ck in enumerate(coeffs))

    pos_mass = neg_mass = 0.0
    if c > 0:
        # roots of the odd polynomial on (u_zero, 0) via companion matrix in u^2
        q = np.zeros(N)
        q[:] = coeffs
        roots_u = [u_zero, 0.0]
        if N > 1:
            vr = np.roots(q[::-1])
            for v in vr:
                if abs(v.imag) < 1e-9 and v.real > 0:
                    u = -math.sqrt(v.real)
                    if u_zero < u < 0:
                        roots_u.append(u)
        roots_u.sort()
        for u1, u2 in zip(roots_u[:-1], roots_u[1:]):
            if u2 - u1 < 1e-300:
                continue
            seg = pref * sum(ck * pexp_int(2 * k + 1, u1, u2) for k, ck in enumerate(coeffs))
            um = 0.5 * (u1 + u2)
            sgn = sum(ck * um ** (2 * k + 1) for k, ck in enumerate(coeffs))
            if sgn >= 0:
                pos_mass += seg
            else:
                neg_mass += -seg
    pos_mass, neg_mass = max(pos_mass, 0.0), max(neg_mass, 0.0)
    if penalty == math.inf:
        if pos_mass > 1e-12:
            return -1e9
        num = head_i - neg_mass
    else:
        num = head_i - neg_mass - penalty * pos_mass
    return 2.0 * math.pi * num / l1


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
    incumbent at full precision.  Returns (LowerParams, the reward as an
    ErrBounded whose ``meta["l1"]`` is its L^1 norm).
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
        starts.append(np.asarray(x0, dtype=float))
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


def optimize_upper(penalty, cfg: SearchConfig, ctx: PrecisionContext | None = None,
                   knots0: Sequence[float] | None = None, transcript_path=None):
    """Minimize the sup-norm over knot vectors, growing the knot count.

    Per count: Nelder-Mead locals from seeded perturbations of the incumbent
    (positive gaps keep the ordering); the count loop stops after two
    consecutive counts improve by less than 1e-5, or at ``cfg.n_max``.
    Returns (UpperParams, the sup-norm as an ErrBounded) certified at full
    precision.
    """
    ctx = ctx or PrecisionContext.make(40)
    empty = upper.UpperParams(penalty=penalty, knots=())  # validates the penalty
    A = float(empty.penalty)
    rng = np.random.default_rng(cfg.seed)
    log = _Transcript(transcript_path)
    evals_left = [cfg.budget]

    def sup_of_gaps(y):
        if evals_left[0] <= 0:
            return 1e9
        evals_left[0] -= 1
        gaps = np.exp(np.clip(y, -18.0, 3.0))
        return upper.fast_sup(A, np.cumsum(gaps))

    if A == 0.0:
        return empty, upper.sup_norm(empty, ctx)

    best_y, best_v = None, upper.fast_sup(A, np.array([]))  # empty weight: baseline 2
    log.record(kind="upper", n=0, value=best_v)
    prev_best = best_v
    weak_rounds = 0
    incumbent = None
    if knots0 is not None:
        incumbent = np.log(np.diff(np.concatenate([[0.0], np.asarray(knots0, dtype=float)])))
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
        knots = np.cumsum(np.exp(np.clip(best_y, -18.0, 3.0)))
        params = upper.UpperParams(penalty=empty.penalty,
                                   knots=tuple(Decimal(repr(float(k))) for k in knots))
    certified = upper.sup_norm(params, ctx)
    log.record(kind="upper-final", value=float(certified.value), err=float(certified.err),
               knots=[str(k) for k in params.knots])
    return params, certified
