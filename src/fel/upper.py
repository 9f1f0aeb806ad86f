"""Upper-bound test family: step weights against the one-sided exponential.

A parameter set is a penalty ``A`` (an exact non-negative rational) and
strictly increasing positive knots ``T_1 < ... < T_N`` (``T_0 = 0`` implied).
The weight carried by piece ``n`` of ``(T_n, T_{n+1})`` alternates A, -1,
A, -1, ... starting with A, times ``e^{pi t}``; the class constraint
``-e^{pi t} <= psi <= A e^{pi t}`` holds by construction.

The residual transform compares the weight against the one-sided exponential:

    residual(t) = 2/(1 - 2it) - sum_n 2 c_n (e^{(pi-2pi i t)T_{n+1}} - e^{(pi-2pi i t)T_n}) / (1 - 2it)

and its sup-norm over the real line is a certified upper bound for the
extremal constant at penalty A (weak duality).  Certification combines an
exact bound on the curvature |residual''| (second moments of the weight), a
closed-form decreasing tail majorant, and a branch-and-bound grid over
[0, t_max] (the modulus is even in t because the weight is real-valued); the
witness maximum is then polished at full working precision.

The float form of the residual, :func:`residual_np`, is the one numpy kernel
behind the grid scans, the plots and the search's sup estimate
:func:`fast_sup`.

Throughout this module ``t`` is the code's frequency: the exponentials
``e^{(pi - 2 pi i t) T}`` above come from the transform kernel
``e^{-2 pi i x t}``.  The ripple positions, windows and tail
start quoted by the acceptance criteria are in ``s = t/pi``; for example the
last penalty-1 ripple quoted at 1.0410 sits at ``t ~ 3.2707``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np

from .precision import (
    INF,
    PrecisionContext,
    Unconverged,
    as_decimal,
    as_penalty,
    maximize_scalar,
    poly_exp_integral,
)

__all__ = [
    "UpperParams",
    "BoundResult",
    "segment_transform",
    "residual",
    "residual_np",
    "fast_sup",
    "tail_majorant",
    "sup_norm",
    "certify_below",
    "local_maxima",
    "curve_samples",
]

_DEFAULT_GRID_STEP = 1e-2   # initial branch-and-bound cell width; refinement sets the final one
_DEFAULT_SLACK = 1e-8       # certification radius goal of the grid stage
_SPLIT = 8                  # branch-and-bound cell split factor
_MAX_ROUNDS = 40
_CELL_BUDGET = 4_000_000
_TWO_PI_I, _MINUS_TWO_PI_I = 2j * np.pi, -2j * np.pi
_FLOAT_CEILING = mp.mpf(sys.float_info.max) / 2**10  # headroom for the grid's few products


@dataclass(frozen=True)
class UpperParams:
    """Penalty (exact rational) and increasing positive knots."""

    penalty: Fraction
    knots: tuple

    def __post_init__(self):
        pen = as_penalty(self.penalty)
        if pen is INF:
            raise ValueError("the upper family needs a finite penalty")
        object.__setattr__(self, "penalty", pen)
        ks = tuple(as_decimal(k) for k in self.knots)
        object.__setattr__(self, "knots", ks)
        prev = Decimal(0)
        for k in ks:
            if not k > prev:
                raise ValueError("knots must be strictly increasing and positive")
            prev = k

    def coefficients(self):
        """Piece weights: penalty on even pieces, -1 on odd ones."""
        A = mp.mpf(self.penalty.numerator) / self.penalty.denominator
        return [A if n % 2 == 0 else mp.mpf(-1) for n in range(len(self.knots))]

    def mp_knots(self):
        return [mp.mpf(str(k)) for k in self.knots]

    def to_json(self) -> dict:
        return {"A": str(self.penalty), "T": [str(k) for k in self.knots]}

    @classmethod
    def from_json(cls, obj: dict) -> "UpperParams":
        return cls(penalty=Fraction(obj["A"]), knots=tuple(Decimal(t) for t in obj["T"]))

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, s: str) -> "UpperParams":
        return cls.from_json(json.loads(s))


@dataclass(frozen=True)
class BoundResult:
    """A certified bound: value, error radius, and the certificate inputs."""

    value: object
    err: object
    certified: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not mp.isfinite(self.err):
            raise ValueError("error radius %s is not finite" % (self.err,))

    def __float__(self):
        return float(self.value)

    def to_json(self) -> dict:
        meta = {k: (str(v) if isinstance(v, (mp.mpf, Decimal)) else v) for k, v in self.meta.items()}
        return {
            "value": mp.nstr(self.value, 25),  # at the value's own precision
            "err": mp.nstr(mp.mpf(self.err), 8),
            "certified": self.certified,
            "meta": meta,
        }


def segment_transform(coef, lo, hi, t):
    """2*pi times the transform of ``coef * e^{pi x}`` on (lo, hi) at ``t``."""
    lo = mp.mpf(lo)
    hi = mp.mpf(hi)
    if not (0 <= lo < hi):
        raise ValueError("need 0 <= lo < hi")
    coef = mp.mpf(coef)
    t = mp.mpf(t)
    z = mp.pi - 2j * mp.pi * t
    return 2 * coef * (mp.e ** (z * hi) - mp.e ** (z * lo)) / (1 - 2j * t)


def residual(up: UpperParams, t):
    """The residual transform at real ``t`` (complex value).

    Each ``e^{(pi - 2 pi i t) T_n}`` is computed once, as in :func:`residual_np`;
    the terms are :func:`segment_transform`'s, bit for bit.
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
    """The residual at the float array ``ts`` in float64, for penalty ``A``.

    ``knots`` are the knots ``T_1 < ... < T_N`` (floats, or anything
    ``float`` accepts).  Each ``e^{(pi - 2 pi i t) T_n}`` is computed once
    (1 for ``T_0 = 0``).  With ``deriv`` the result is (residual, d/dt residual).
    """
    A = float(A)
    z = 1 - 2j * ts
    w = np.pi - _TWO_PI_I * ts
    val = 2 / z
    if deriv:
        z2 = z * z
        der = 4j / z2
    e0, k0 = 1.0, 0.0
    for n, k in enumerate(knots):
        k = float(k)
        e1 = np.exp(w * k)
        cn = A if n % 2 == 0 else -1.0
        if cn != 0.0:
            val = val - 2 * cn * (e1 - e0) / z
            if deriv:
                der = der - 2 * cn * (
                    _MINUS_TWO_PI_I * (k * e1 - k0 * e0) / z + 2j * (e1 - e0) / z2
                )
        e0, k0 = e1, k
    return (val, der) if deriv else val


def _grid(lo, hi, num: int):
    # np.linspace(lo, hi, num, axis=-1) bit for bit, without its overhead; every caller's
    # hi - lo is a normal positive float, so linspace's zero-step branch never applies
    y = np.multiply.outer(np.arange(num, dtype=float), (hi - lo) / (num - 1)) + lo
    y[-1] = hi
    return y.T


def fast_sup(A: float, knots: np.ndarray) -> float:
    """Float estimate of the sup-norm for the upper family (search mode).

    Coarse scan over a window truncated at t <= 15, then a refinement of the
    10 best samples in two local stages; good to ~1e-6 for candidates shaped
    like the incumbents.  This only ranks candidates: whatever leaves the
    search is re-certified by :func:`sup_norm` over the full window.  Knot
    vectors that are not increasing and positive, or that end past 30, get
    1e9.  Each stage is one :func:`residual_np` call on a :func:`_grid`.
    """
    if knots.size and (np.any(np.diff(knots) <= 0) or knots[0] <= 0 or knots[-1] > 30):
        return 1e9
    ks = np.concatenate([[0.0], knots])
    cs = np.array([A if n % 2 == 0 else -1.0 for n in range(knots.size)])

    def gabs(ts):
        return np.abs(residual_np(A, knots, ts))

    C = 2.0 + 2.0 * float(np.abs(cs) @ (np.exp(np.pi * ks[1:]) + np.exp(np.pi * ks[:-1]))) if knots.size else 2.0
    g0 = float(gabs(np.array([0.0]))[0])
    thr = max(g0 * 0.98, 1e-6)
    t_max = min(math.sqrt(max((C / thr) ** 2 - 1.0, 0.0)) / 2.0 + 0.25, 15.0)
    ts = _grid(0.0, t_max, max(int(t_max / 8e-3), 200) + 1)  # coarse step about 8e-3
    v = gabs(ts)
    step = ts[1] - ts[0]
    # one row per peak, unordered: every stage takes a max over all its rows
    c = ts[np.argpartition(v, -10)[-10:]]
    fine = _grid(np.maximum(c - step, 0.0), c + step, 41)
    fv = gabs(fine)
    c = fine[np.arange(c.size), np.argmax(fv, axis=1)]
    tiny = _grid(np.maximum(c - step / 20, 0.0), c + step / 20, 21)
    return max(float(v.max()), float(fv.max()), float(gabs(tiny).max()))


def _mass_constant(up: UpperParams):
    """C with |residual(t)| <= C / |1 - 2it| for all real t."""
    acc = mp.mpf(2)
    ks = [mp.mpf(0)] + up.mp_knots()
    for n, cn in enumerate(up.coefficients()):
        if cn != 0:
            acc += 2 * abs(cn) * (mp.e ** (mp.pi * ks[n + 1]) + mp.e ** (mp.pi * ks[n]))
    return acc


def _curvature_bound(up: UpperParams):
    """Global bound on |d^2/dt^2 residual| via second moments, closed form."""
    with mp.workdps(max(mp.mp.dps, 30)):
        total = 2 / mp.pi**3  # second moment of the one-sided exponential
        ks = [mp.mpf(0)] + up.mp_knots()
        for n, cn in enumerate(up.coefficients()):
            if cn != 0:
                total += abs(cn) * poly_exp_integral(2, mp.pi, ks[n], ks[n + 1])
        return 8 * mp.pi**3 * total


def _grid_curvature_bound(up: UpperParams):
    """:func:`_curvature_bound`, once the float grid is known to stay in range.

    The grid holds each ``e^{pi T_n}``, residual terms up to the mass constant
    ``C``, derivative terms up to ``2 pi T_N`` times the larger of the two, and
    the curvature bound; each must stay below ``_FLOAT_CEILING``, or the knots
    are refused with ``ValueError``.  ``e^{pi T_N}`` is compared by its
    logarithm first, so a huge knot costs no huge exponential.
    """
    last = up.mp_knots()[-1] if up.knots else mp.mpf(0)
    if mp.pi * last < mp.log(_FLOAT_CEILING):
        L2 = _curvature_bound(up)
        mass = max(_mass_constant(up), mp.e ** (mp.pi * last))
        if max(mass * (1 + 2 * mp.pi * last), L2) < _FLOAT_CEILING:
            return L2
    raise ValueError("knots up to %s take the float grid out of range (its constants must "
                     "stay below %s)" % (up.knots[-1], mp.nstr(_FLOAT_CEILING, 3)))


def tail_majorant(up: UpperParams, t):
    """Decreasing bound for |residual(t')| valid for every t' >= t > 0."""
    t = mp.mpf(t)
    if not t > 0:
        raise ValueError("tail majorant needs t > 0")
    return _mass_constant(up) / mp.sqrt(1 + 4 * t * t)


def _tail_cut(up: UpperParams, threshold):
    """Smallest t with tail_majorant <= threshold (closed form)."""
    C = _mass_constant(up)
    threshold = mp.mpf(threshold)
    if C <= threshold:
        return mp.mpf(0)
    return mp.sqrt((C / threshold) ** 2 - 1) / 2


def _branch_and_bound(up, t_lo, t_hi, L2, slack, stop_above=None, target=None):
    """Max of |residual| on [t_lo, t_hi] to within ``slack`` (float grid).

    Second-order cell certificate: with midpoint value g, derivative g' and
    half-width h, ``sup_cell |residual| <= max(|g - g'h|, |g + g'h|) + L2 h^2 / 2``
    by the complex Taylor bound.  Cells whose certificate stays above the
    retention level (running witness + slack, or ``target`` when given) are
    split; the rest are discarded.  Returns (witness_t, witness_value,
    certified_sup_bound, finest_cell_width, midpoints_evaluated); ``stop_above``
    returns early once a sample exceeds it (used by the below-threshold certifier).
    """
    A, knots = up.penalty, up.knots
    if t_hi <= t_lo:
        v = float(abs(residual_np(A, knots, np.array([t_lo]))[0]))
        return t_lo, v, v, 0.0, 0
    n0 = min(max(int((t_hi - t_lo) / _DEFAULT_GRID_STEP), 64), 400_000)
    h = (t_hi - t_lo) / (2 * n0)
    mids = np.linspace(t_lo + h, t_hi - h, n0)
    ends = np.abs(residual_np(A, knots, np.array([t_lo, t_hi])))
    witness_v = float(ends.max())
    witness_t = float(t_lo if ends[0] >= ends[1] else t_hi)
    g, gd = residual_np(A, knots, mids, deriv=True)
    finest = 2 * h
    evals = n0
    for _ in range(_MAX_ROUNDS):
        absg = np.abs(g)
        i = int(np.argmax(absg))
        if float(absg[i]) > witness_v:
            witness_v = float(absg[i])
            witness_t = float(mids[i])
        if stop_above is not None and witness_v > stop_above:
            return witness_t, witness_v, witness_v, finest, evals
        bound = np.maximum(np.abs(g - gd * h), np.abs(g + gd * h)) + 0.5 * L2 * h * h
        level = (witness_v + slack) if target is None else target
        keep = bound > level
        if not keep.any():
            return witness_t, witness_v, level, finest, evals
        mids = mids[keep]
        if evals + mids.size * _SPLIT > _CELL_BUDGET:
            raise Unconverged("branch-and-bound cell budget exhausted")
        # split each kept cell into _SPLIT children
        offs = (2 * np.arange(_SPLIT) + 1) / _SPLIT - 1.0
        mids = (mids[:, None] + h * offs[None, :]).ravel()
        h /= _SPLIT
        finest = 2 * h
        g, gd = residual_np(A, knots, mids, deriv=True)
        evals += mids.size
    raise Unconverged("branch-and-bound did not reach the requested slack")


def sup_norm(up: UpperParams, ctx: PrecisionContext) -> BoundResult:
    """Certified upper bound for sup over real t of |residual(t)|.

    The modulus is even in t (the weight is real), so only t >= 0 is
    scanned.  A closed-form decreasing majorant limits the scan window, a
    branch-and-bound grid with second-order cell certificates (from the
    closed-form curvature bound) certifies the window to a slack of 1e-8, and
    the witness is re-evaluated and polished at full working precision.  The
    grid starts at 1e-2 cells and splits only the cells whose certificate
    exceeds the witness plus the slack, so the starting width sets the work,
    not the certificate.  The certificate is ``sup <= value + err``; by weak
    duality the same number bounds the extremal constant at this penalty.
    ``meta`` reports the finest cell width (``grid_step``) and the number of
    cell midpoints evaluated (``cells``).
    """
    with ctx.workprec():
        L2 = _grid_curvature_bound(up)
        g0 = abs(residual(up, 0))
        t_max = _tail_cut(up, g0 * (1 - mp.mpf("1e-6")))
        last_knot = up.mp_knots()[-1] if up.knots else mp.mpf(0)
        t_max = max(t_max, last_knot + 1)
        wt, wv, cert_sup, finest, cells = _branch_and_bound(
            up, 0.0, float(t_max), float(L2), _DEFAULT_SLACK
        )
        # polish the witness at working precision
        half = max(finest, 1e-7)
        lo = max(0.0, wt - half)
        hi = min(float(t_max), wt + half)
        polish = maximize_scalar(lambda t: abs(residual(up, t)), lo, hi, ctx)
        value = polish.value.value
        if value < wv - 1e-9:  # float witness must not beat the mp value by much
            raise Unconverged("witness polish lost the maximum (float %r, polished %s)"
                              % (wv, mp.nstr(value, 12)))
        float_margin = mp.mpf("1e-13") * _mass_constant(up)
        err = mp.mpf(cert_sup) - mp.mpf(wv) + polish.value.err + 2 * float_margin
        if not (mp.isfinite(value) and mp.isfinite(err)):
            raise Unconverged("sup %s with radius %s is not finite: the float grid "
                              "left its range" % (mp.nstr(value, 12), mp.nstr(err, 6)))
        meta = {
            "grid_step": finest,
            "cells": cells,
            "t_max": float(t_max),
            "slack": _DEFAULT_SLACK,
            "witness_t": mp.nstr(polish.argmax.value, 12),
        }
        return BoundResult(value=value, err=err, certified=True, meta=meta)


def certify_below(up: UpperParams, t_lo: float, threshold: float, ctx: PrecisionContext):
    """Certify |residual(t)| < threshold for every t >= t_lo.

    Returns ``(ok, meta)``; on failure the meta carries a witness t with
    sample value >= threshold.  The scan window ends where the closed-form
    majorant drops under the threshold.
    """
    with ctx.workprec():
        L2 = _grid_curvature_bound(up)
        t_hi = _tail_cut(up, mp.mpf(threshold) * (1 - mp.mpf("1e-9")))
        meta = {"t_window": (float(t_lo), float(t_hi)), "curvature": float(L2)}
        if t_hi <= t_lo:
            return True, meta
        margin = float(threshold) * 1e-6
        try:
            wt, wv, cert, _, _ = _branch_and_bound(
                up, float(t_lo), float(t_hi), float(L2), margin,
                stop_above=float(threshold) - margin,
                target=float(threshold) - margin,
            )
        except Unconverged:
            return False, {**meta, "reason": "refinement budget exhausted"}
        meta["sup_bound"] = cert
        meta["witness_t"] = wt
        meta["witness_value"] = wv
        ok = cert <= float(threshold) - margin and wv < float(threshold) - margin
        return ok, meta


def local_maxima(up: UpperParams, t_lo: float, t_hi: float, ctx: PrecisionContext, samples: int = 200_000):
    """Refined local maxima of |residual| on [t_lo, t_hi].

    Grid detection (strict interior maxima plus dominating endpoints)
    followed by full-precision polish of each candidate.  Returns a list of
    (t, value) pairs in increasing t.  ``t`` is the code's frequency; the
    positions quoted by the acceptance criteria are ``t/pi``.
    """
    with ctx.workprec():
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
            m = maximize_scalar(lambda t: abs(residual(up, t)), lo, hi, ctx)
            out.append((m.argmax.value, m.value.value))
        out.sort(key=lambda p: p[0])
        merged = []
        for t, val in out:
            if merged and abs(t - merged[-1][0]) < 10 * step:
                if val > merged[-1][1]:
                    merged[-1] = (t, val)
                continue
            merged.append((t, val))
        return merged


def curve_samples(up: UpperParams, t_lo: float, t_hi: float, samples: int):
    """Uniform (t, Re residual, |residual|) samples for plot emission.

    ``t`` is the code's frequency; the positions quoted by the acceptance
    criteria are ``t/pi``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    ts = np.linspace(t_lo, t_hi, samples)
    g = residual_np(up.penalty, up.knots, ts)
    return [(float(t), float(z.real), float(abs(z))) for t, z in zip(ts, g)]
