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
witness maximum is then polished at full working precision by safeguarded
Newton on the residual's closed-form first and second derivatives.  One
working-precision kernel, the Abel form of :func:`_abel_numerator` on raw
libmp values, gives the polished value and both derivatives; one table of the
pieces holds each ``e^{pi T_n}`` once, for that kernel, the curvature bound,
the mass constant of the tail and the float-range check.  The tests hold
that kernel to the formula above on mpmath objects (``residual`` in
``tests/oracles.py``).

The float residual has one form and one kernel, :func:`_abel_numerator`:
the Abel sum on the level rule (:func:`_levels`) and the Abel weights
(:func:`_abel_weights`), which are written once, generic over the number
type, for the certificate on ``mpf`` and the kernel on floats.  It lays its
points out as rows and columns and sums over knots by one small complex
matmul per candidate: :func:`fast_sup` takes the modulus from it, the
branch-and-bound grid and the plots the residual and its slope.  It imports
numpy itself, when it first runs: :mod:`fel.tables` and the commands that
never touch the grid (``lower-eval``, ``bounds``) need only
:class:`UpperParams`, and importing numpy would cost them about 0.1 s of
start-up.

Throughout this module ``t`` is the code's frequency: the exponentials
``e^{(pi - 2 pi i t) T}`` above come from the transform kernel
``e^{-2 pi i x t}``.  The ripple positions, windows and tail
start quoted by the acceptance criteria are in ``s = t/pi``; for example the
last penalty-1 ripple quoted at 1.0410 sits at ``t ~ 3.2707``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

import mpmath as mp
from mpmath.libmp import fone, fzero, mpf_add, mpf_cos_sin, mpf_div, mpf_mul, mpf_mul_int, mpf_neg, mpf_sub
from mpmath.libmp import round_nearest as _RND

if TYPE_CHECKING:
    import numpy as np

from .precision import (
    INF,
    ErrBounded,
    PrecisionContext,
    Unconverged,
    as_decimal,
    as_penalty,
    maximize_scalar,
)

__all__ = [
    "UpperParams",
    "fast_sup",
    "sup_norm",
    "curve_samples",
]

_DEFAULT_GRID_STEP = 1e-2   # initial branch-and-bound cell width; refinement sets the final one
_DEFAULT_SLACK = 1e-8       # certification radius goal of the grid stage
_SPLIT = 8                  # branch-and-bound cell split factor
_MAX_ROUNDS = 40
_CELL_BUDGET = 4_000_000
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
        """Piece weights :func:`_levels` as ``mpf``: penalty on even pieces, -1 on odd ones."""
        A = mp.mpf(self.penalty.numerator) / self.penalty.denominator
        return [mp.mpf(c) for c in _levels(A, len(self.knots))]

    def mp_knots(self):
        return [mp.mpf(str(k)) for k in self.knots]

    def to_json(self) -> dict:
        return {"A": str(self.penalty), "T": [str(k) for k in self.knots]}

    @classmethod
    def from_json(cls, obj: dict) -> "UpperParams":
        return cls(penalty=Fraction(obj["A"]), knots=tuple(Decimal(t) for t in obj["T"]))


def _levels(A, n: int):
    """The level rule: ``A, -1, A, -1, ...`` for ``n`` pieces, ``A`` in any number type."""
    return [A if k % 2 == 0 else -1 for k in range(n)]


def _abel_weights(levels: list):
    """``(d_0, [d_1, ..., d_N])`` of the Abel form for the piece ``levels``.

    ``d_0 = 2 + 2 c_0`` and ``d_m = 2 (c_m - c_{m-1})`` with ``c_N = 0``
    (``d_0 = 2`` with no pieces), in the levels' number type: the
    certificate calls it on ``mpf`` and :func:`_pieces` on floats, in the
    same order of operations.
    """
    d0 = 2 + 2 * levels[0] if levels else 2
    return d0, [2 * (b - a) for a, b in zip(levels, levels[1:] + [0])]


class _PieceTable(NamedTuple):
    """The pieces of a parameter set at the working precision of the call.

    ``levels`` are the weights ``c_n`` of :meth:`UpperParams.coefficients`,
    ``knots`` are ``T_0 = 0 < T_1 < ... < T_N`` and ``exps`` holds each
    ``e^{pi T_n}``, computed once.  Built by :func:`_piece_table`.
    """

    levels: list
    knots: list
    exps: list


def _piece_table(up: UpperParams):
    """(table, :func:`_curvature_bound`, :func:`_mass_constant`) of ``up``,
    once the float grid is known to stay in range.

    The grid holds each ``e^{pi T_n}``, residual terms up to the mass constant
    ``C``, derivative terms up to ``2 pi T_N`` times the larger of the two, and
    the curvature bound; each must stay below ``_FLOAT_CEILING``, or the knots
    are refused with ``ValueError``.  ``e^{pi T_N}`` is compared by its
    logarithm before any exponential is taken, so a huge knot costs no huge
    exponential.
    """
    knots = [mp.mpf(0)] + up.mp_knots()
    if mp.pi * knots[-1] < mp.log(_FLOAT_CEILING):
        table = _PieceTable(up.coefficients(), knots, [mp.e ** (mp.pi * T) for T in knots])
        L2, C = _curvature_bound(table), _mass_constant(table)
        if max(max(C, table.exps[-1]) * (1 + 2 * mp.pi * knots[-1]), L2) < _FLOAT_CEILING:
            return table, L2, C
    raise ValueError("knots up to %s take the float grid out of range (its constants must "
                     "stay below %s)" % (up.knots[-1], mp.nstr(_FLOAT_CEILING, 3)))


def _residual_slope(table: _PieceTable):
    """The map t -> (h, h', h''), ``h = |residual|^2``, on raw libmp values.

    Built at the working precision current when it is built (build it
    inside ``ctx.workprec()``), round-nearest.  It takes the Abel form of
    :func:`_abel_numerator`, ``residual = N / (1 - 2it)`` with

        N(t) = d_0 + sum_m d_m e^{pi T_m} e^{-i k_m t},   k_m = 2 pi T_m,

    so that ``N' = sum -i k_m (...)``, ``N'' = sum -k_m^2 (...)``, and

        r' = (N' + 2i r) / (1 - 2it),   r'' = (N'' + 4i r') / (1 - 2it),
        h' = 2 Re(conj(r) r'),   h'' = 2 (|r'|^2 + Re(conj(r) r'')).

    The weights ``d_m e^{pi T_m}`` (from the table's exponentials) and the
    ``k_m`` are computed once, here; each ``e^{-i k_m t}`` once per ``t``.
    """
    prec = mp.mp.prec
    d0, ds = _abel_weights(table.levels)
    d0 = mp.mpf(d0)._mpf_
    terms = []
    for d, T, E in zip(ds, table.knots[1:], table.exps[1:]):
        k = 2 * mp.pi * T
        terms.append(((d * E)._mpf_, k._mpf_, (k * k)._mpf_))
    add, sub, mul = (functools.partial(op, prec=prec, rnd=_RND) for op in (mpf_add, mpf_sub, mpf_mul))
    twice = functools.partial(mpf_mul_int, n=2, prec=prec, rnd=_RND)

    def kernel(t):
        t2 = twice(t)
        q = add(fone, mul(t2, t2))

        def over_d(x, y):  # (x + iy) / (1 - 2it) = (x + iy)(1 + 2it) / (1 + 4t^2)
            return (mpf_div(sub(x, mul(t2, y)), q, prec, _RND),
                    mpf_div(add(y, mul(t2, x)), q, prec, _RND))

        n_re, n_im = d0, fzero   # N, N' and N'' as (real, imaginary) pairs
        n1_re = n1_im = n2_re = n2_im = fzero
        for w, k, k2 in terms:
            c, s = mpf_cos_sin(mul(k, t), prec, _RND)
            e_re, e_im = mul(w, c), mpf_neg(mul(w, s))  # d_m e^{pi T_m} e^{-i k_m t}
            n_re, n_im = add(n_re, e_re), add(n_im, e_im)
            n1_re, n1_im = add(n1_re, mul(k, e_im)), sub(n1_im, mul(k, e_re))
            n2_re, n2_im = sub(n2_re, mul(k2, e_re)), sub(n2_im, mul(k2, e_im))
        r_re, r_im = over_d(n_re, n_im)
        r1_re, r1_im = over_d(sub(n1_re, twice(r_im)), add(n1_im, twice(r_re)))
        r2_re, r2_im = over_d(sub(n2_re, twice(twice(r1_im))), add(n2_im, twice(twice(r1_re))))
        h = add(mul(r_re, r_re), mul(r_im, r_im))
        h1 = twice(add(mul(r_re, r1_re), mul(r_im, r1_im)))
        h2 = twice(add(add(mul(r1_re, r1_re), mul(r1_im, r1_im)), add(mul(r_re, r2_re), mul(r_im, r2_im))))
        return h, h1, h2

    return kernel


def _modulus_and_slope(table: _PieceTable):
    """(f, slope) for ``f = |residual|``, on ``mpf`` objects, by one :func:`_residual_slope`.

    ``f = sqrt(h)``, and ``slope(t) = (f', f'')`` with ``f' = h' / (2f)`` and
    ``f'' = (h'' - 2 f'^2) / (2f)``: the two closures that
    :func:`maximize_scalar` takes.  A zero of the residual is a minimum of
    ``f``, reported as ``(0, 1)``.  Built at the working precision of the call.
    """
    kernel = _residual_slope(table)

    def modulus(t):
        return mp.sqrt(mp.make_mpf(kernel(t._mpf_)[0]))

    def slope(t):
        h, h1, h2 = (mp.make_mpf(x) for x in kernel(t._mpf_))
        if h == 0:
            return mp.mpf(0), mp.mpf(1)
        two_f = 2 * mp.sqrt(h)
        d1 = h1 / two_f
        return d1, (h2 - 2 * d1 * d1) / two_f

    return modulus, slope


def fast_sup(A: float, knots: np.ndarray) -> float | list[float]:
    """Float estimate of the sup-norm for the upper family (search mode).

    Coarse scan over a window truncated at t <= 15, then a refinement of the
    10 best samples in two local stages; good to ~1e-6 for candidates shaped
    like the incumbents.  This only ranks candidates: whatever leaves the
    search is re-certified by :func:`sup_norm` over the full window.  Knot
    vectors that are not increasing and positive, or that end past 30, and
    those whose values leave the float range, get 1e9.

    ``knots`` is one vector ``(n,)``, which gives a float, or ``K`` vectors
    of one count as rows ``(K, n)``, which give a list of ``K`` floats, each
    equal to its own single call: a single call is the case ``K = 1``.

    Each stage lays its points out as rows and columns, ``t = lo_r + j
    delta``, and takes ``|residual|`` from the Abel sum of the module's one
    float kernel, :func:`_abel_numerator` (:func:`_stage`), on the weights
    of the cached piece table :func:`_pieces`, which depend on ``(A, N)``
    only.  ``|residual|`` is even in ``t``, so the local stages may reach
    below 0.

    A search makes some 10^4 calls at 1-4 knots, where numpy's per-call
    dispatch, not arithmetic, sets the cost: so a call runs only the ufuncs
    the formula needs, on cached index arrays and in place, in an order
    that fixes every rounding, and a batch pays that dispatch once for all
    its rows.  What a reduction would round differently across rows stays
    per candidate: the mass dot ``|c| . pairs`` and the window's
    ``(C / thr) ** 2``.  The coarse grids of a batch have one length, the
    longest; the others are padded and their padding masked to -inf.  The
    tests pin the floats with ``==``, batched and single.
    """
    import numpy as np

    knots = np.asarray(knots, dtype=float)
    rows = knots if knots.ndim == 2 else knots[None]
    out = [1e9] * len(rows)
    with np.errstate(all="ignore"):
        _estimate(A, rows, out)
    return out if knots.ndim == 2 else out[0]


def _estimate(A, rows, out):
    """The three stages of :func:`fast_sup`: ``out[i]`` gets row ``i``'s estimate, if it has one."""
    import numpy as np

    n = rows.shape[1]
    dc2, cabs, d0 = _pieces(A, n)
    ep = np.exp(np.pi * rows)
    weights = dc2 * ep
    freq = -2j * np.pi * rows  # -i theta_m
    g0s = abs(d0 + weights.sum(1))
    pairs = ep.copy()  # e^{pi T_m} + e^{pi T_{m-1}}, with e^0 = 1 before the first
    pairs[:, 1:] += ep[:, :-1]
    pairs[:, :1] += 1.0
    keep, ms, steps = [], [], []
    for i, (ks, g0) in enumerate(zip(rows.tolist(), g0s)):
        if n and (ks[0] <= 0 or ks[-1] > 30 or any(b <= a for a, b in zip(ks, ks[1:]))):
            continue
        C = 2.0 + 2.0 * float(cabs @ pairs[i])
        if not (math.isfinite(g0) and math.isfinite(C)):
            continue
        thr = max(g0 * 0.98, 1e-6)
        t_max = min(math.sqrt(max((C / thr) ** 2 - 1.0, 0.0)) / 2.0 + 0.25, 15.0)
        m = max(int(t_max / 8e-3), 200) + 1  # coarse step about 8e-3
        keep.append(i)
        ms.append(m)
        steps.append(t_max / (m - 1))
    if not keep:
        return
    if len(keep) < len(rows):
        weights, freq = weights[keep], freq[keep]
    step = np.array(steps)
    width = -(-max(ms) // 64)
    ts, v = _stage(d0, weights, freq, (step * 64)[:, None] * _columns(width), step, 64)
    ts, v = ts.reshape(len(keep), -1), v.reshape(len(keep), -1)
    for r, m in enumerate(ms):
        v[r, m:] = -np.inf  # past this row's own grid
    at = _columns(len(keep), int)[:, None]
    # one row per peak, unordered: every stage takes a max over all its rows
    c = ts[at, v.argpartition(-10)[:, -10:]]
    fine, fv = _stage(d0, weights, freq, c - step[:, None], step / 20, 41)
    c = fine[at, _columns(10, int), fv.argmax(2)]
    _, tv = _stage(d0, weights, freq, c - (step / 20)[:, None], step / 200, 21)
    best = np.maximum(np.maximum(v.max(1), fv.max((1, 2))), tv.max((1, 2)))  # NaN propagates
    for i, b in zip(keep, best.tolist()):
        if math.isfinite(b):
            out[i] = b


@functools.lru_cache(maxsize=64)
def _pieces(A: float, n: int):
    """(the ``d_m``, ``|c|``, ``d_0``) of :func:`_abel_weights` as floats, for ``n`` pieces.

    Built once per ``(A, n)`` and read-only: every call of :func:`fast_sup`
    and :func:`_float_residual` shares them.
    """
    import numpy as np

    cs = [float(c) for c in _levels(A, n)]
    d0, ds = _abel_weights(cs)
    dc2, cabs = np.array(ds, dtype=float), np.abs(cs)
    dc2.flags.writeable = cabs.flags.writeable = False
    return dc2, cabs, float(d0)


@functools.lru_cache(maxsize=64)
def _columns(k: int, dtype=float):
    """``np.arange(k)`` as ``dtype``, read-only and shared."""
    import numpy as np

    out = np.arange(k, dtype=dtype)
    out.flags.writeable = False
    return out


def _abel_numerator(d0, weights, freq, lo, offs, slope: bool):
    """The Abel numerator ``N`` at ``t = lo[k, r] + offs[k, j]``, and ``N'`` with ``slope``.

    Abel summation of the residual's piece sum gives ``residual = N / (1 - 2it)``,

        N(t) = d_0 + sum_m d_m e^{pi T_m} e^{-i theta_m t},   theta_m = 2 pi T_m,

    with the ``d`` of :func:`_abel_weights`.  Candidate ``k`` of a batch has
    its own ``weights[k]`` (the ``d_m e^{pi T_m}``), ``freq[k]`` (the
    ``-i theta_m``), rows ``lo[k]`` and column offsets ``offs[k]``.  The
    exponential factors into a row and a column one, so ``N = d_0 + E_row @
    (w E_col)`` is one matmul per candidate, in place and in that order of
    operations, and ``N' = E_row @ (-i theta w E_col)`` one more.  Returns
    ``(N,)`` or ``(N, N')``, each ``(K, rows, columns)``.
    """
    import numpy as np

    row_exp = lo[:, :, None] * freq[:, None]
    np.exp(row_exp, out=row_exp)
    col_exp = freq[:, :, None] * offs[:, None]
    np.exp(col_exp, out=col_exp)
    col_exp *= weights[:, :, None]
    num = row_exp @ col_exp
    num += d0
    if not slope:
        return (num,)
    col_exp *= freq[:, :, None]
    return num, row_exp @ col_exp


def _stage(d0, weights, freq, lo, delta, cols: int):
    """(t, |residual(t)|) at ``t = lo[k, r] + j delta[k]``, ``j < cols``: one row per ``lo``.

    The arguments are those of :func:`_abel_numerator`, with the column
    offsets ``j delta[k]``; the modulus is ``|N| / sqrt(1 + (4 t) t)``, in
    place and in that order of operations.
    """
    import numpy as np

    offs = delta[:, None] * _columns(cols)
    num, = _abel_numerator(d0, weights, freq, lo, offs, False)
    t = lo[:, :, None] + offs[:, None]
    den = 4.0 * t
    den *= t
    den += 1.0
    np.sqrt(den, out=den)
    out = np.abs(num)
    out /= den
    return t, out


def _float_residual(up: UpperParams, lo, offs):
    """(t, residual, d/dt residual) of ``up`` in float64 at ``t = lo[r] + offs[j]``.

    ``(rows, columns)`` arrays from one :func:`_abel_numerator` call; the
    slope is ``(N' + 2i residual) / (1 - 2it)``.
    """
    import numpy as np

    Ts = np.array([[float(k) for k in up.knots]])
    dc2, _, d0 = _pieces(float(up.penalty), Ts.shape[1])
    freq = -2j * np.pi * Ts
    num, num1 = _abel_numerator(d0, dc2 * np.exp(np.pi * Ts), freq, lo[None], offs[None], True)
    t = lo[:, None] + offs
    z = 1 - 2j * t
    g = num[0] / z
    return t, g, (num1[0] + 2j * g) / z


def _mass_constant(table: _PieceTable):
    """C with |residual(t)| <= C / |1 - 2it| for all real t."""
    acc = mp.mpf(2)
    for n, cn in enumerate(table.levels):
        if cn != 0:
            acc += 2 * abs(cn) * (table.exps[n + 1] + table.exps[n])
    return acc


def _curvature_bound(table: _PieceTable):
    """Global bound on |d^2/dt^2 residual| via second moments, closed form.

    Piece ``n`` adds ``|c_n|`` times the integral of ``u^2 e^{pi u}`` over
    it, the difference of ``e^{pi u} (u^2/pi - 2u/pi^2 + 2/pi^3)`` at its ends.
    """
    pi = +mp.pi
    moments = [E * (u * u / pi - 2 * u / pi**2 + 2 / pi**3) for u, E in zip(table.knots, table.exps)]
    total = 2 / pi**3  # second moment of the one-sided exponential
    for n, cn in enumerate(table.levels):
        if cn != 0:
            total += abs(cn) * (moments[n + 1] - moments[n])
    return 8 * pi**3 * total


def _tail_cut(C, threshold):
    """Smallest t with C / |1 - 2it| <= threshold, C the mass constant (closed form)."""
    threshold = mp.mpf(threshold)
    if C <= threshold:
        return mp.mpf(0)
    return mp.sqrt((C / threshold) ** 2 - 1) / 2


def _branch_and_bound(up, t_lo, t_hi, L2, slack):
    """Max of |residual| on [t_lo, t_hi], t_lo < t_hi, to within ``slack`` (float grid).

    Second-order cell certificate: with midpoint value g, derivative g' and
    half-width h, ``sup_cell |residual| <= max(|g - g'h|, |g + g'h|) + L2 h^2 / 2``
    by the complex Taylor bound.  Cells whose certificate stays above the
    running witness plus ``slack`` are split; the rest are discarded.
    Returns (witness_t, witness_value, certified_sup_bound,
    finest_cell_width, midpoints_evaluated).
    """
    import numpy as np

    n0 = min(max(int((t_hi - t_lo) / _DEFAULT_GRID_STEP), 64), 400_000)
    h = (t_hi - t_lo) / (2 * n0)
    ends = np.abs(_float_residual(up, np.array([t_lo, t_hi]), np.zeros(1))[1][:, 0])
    witness_v = float(ends.max())
    witness_t = float(t_lo if ends[0] >= ends[1] else t_hi)
    # the n0 starting cells in rows of 64, cut back to n0
    first = _float_residual(up, t_lo + h + 128 * h * _columns(-(-n0 // 64)), 2 * h * _columns(64))
    mids, g, gd = (a.ravel()[:n0] for a in first)
    split = (2 * np.arange(_SPLIT) + 1) / _SPLIT - 1.0  # a child's offset from its parent, in h
    evals = n0
    for _ in range(_MAX_ROUNDS):
        absg = np.abs(g)
        i = int(np.argmax(absg))
        if float(absg[i]) > witness_v:
            witness_v = float(absg[i])
            witness_t = float(mids[i])
        bound = np.maximum(np.abs(g - gd * h), np.abs(g + gd * h)) + 0.5 * L2 * h * h
        level = witness_v + slack
        keep = bound > level
        if not keep.any():
            return witness_t, witness_v, level, 2 * h, evals
        if evals + int(keep.sum()) * _SPLIT > _CELL_BUDGET:
            raise Unconverged("branch-and-bound cell budget exhausted")
        # split each kept cell into _SPLIT children: its midpoint is a row
        mids, g, gd = (a.ravel() for a in _float_residual(up, mids[keep], h * split))
        h /= _SPLIT
        evals += mids.size
    raise Unconverged("branch-and-bound did not reach the requested slack")


def sup_norm(up: UpperParams, ctx: PrecisionContext) -> ErrBounded:
    """Certified upper bound for sup over real t of |residual(t)|.

    The modulus is even in t (the weight is real), so only t >= 0 is
    scanned.  A closed-form decreasing majorant limits the scan window, a
    branch-and-bound grid with second-order cell certificates (from the
    closed-form curvature bound) certifies the window to a slack of 1e-8, and
    the witness is polished at full working precision: safeguarded Newton
    (:func:`maximize_scalar`) from the float witness, within one finest cell
    of it, on the modulus and slope of :func:`_modulus_and_slope`.  ``value``
    is that modulus at the polished point.  The grid starts at
    1e-2 cells and splits only the cells whose certificate exceeds the
    witness plus the slack, so the starting width sets the work, not the
    certificate.  The certificate is ``sup <= value + err``; by weak
    duality the same number bounds the extremal constant at this penalty.
    ``meta`` reports the finest cell width (``grid_step``), the number of
    cell midpoints evaluated (``cells``), the window (``t_max``), the
    slack, the polished point (``witness_t``) and the polish's evaluations
    of the modulus and its slope (``polish_evals``).
    """
    with ctx.workprec():
        table, L2, C = _piece_table(up)
        abs_residual, slope = _modulus_and_slope(table)
        g0 = abs_residual(mp.mpf(0))
        t_max = _tail_cut(C, g0 * (1 - mp.mpf("1e-6")))
        t_max = max(t_max, table.knots[-1] + 1)
        wt, wv, cert_sup, finest, cells = _branch_and_bound(up, 0.0, float(t_max), float(L2), _DEFAULT_SLACK)
        # polish the witness at working precision
        half = max(finest, 1e-7)
        lo = max(0.0, wt - half)
        hi = min(float(t_max), wt + half)
        polish = maximize_scalar(abs_residual, slope, wt, lo, hi, ctx)
        value = polish.value
        float_margin = mp.mpf("1e-13") * C
        # a float witness above the polished value by more than the float
        # grid's own error means the polish missed the maximum
        if value < wv - float_margin:
            raise Unconverged("witness polish lost the maximum (float %r, polished %s)"
                              % (wv, mp.nstr(value, 12)))
        err = mp.mpf(cert_sup) - mp.mpf(wv) + polish.err + 2 * float_margin
        if not (mp.isfinite(value) and mp.isfinite(err)):
            raise Unconverged("sup %s with radius %s is not finite: the float grid "
                              "left its range" % (mp.nstr(value, 12), mp.nstr(err, 6)))
        meta = {
            "grid_step": finest,
            "cells": cells,
            "t_max": float(t_max),
            "slack": _DEFAULT_SLACK,
            "witness_t": mp.nstr(polish.meta["argmax"], 12),
            "polish_evals": polish.meta["evals"],
        }
        return ErrBounded(value, err, meta)


def curve_samples(up: UpperParams, t_lo: float, t_hi: float, samples: int):
    """Uniform (t, Re residual, |residual|) samples for plot emission.

    ``t`` is the code's frequency; the positions quoted by the acceptance
    criteria are ``t/pi``.  Knots that take the float grid out of range raise
    ``ValueError``.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    _piece_table(up)  # the range check alone
    ts = np.linspace(t_lo, t_hi, samples)
    _, g, _ = _float_residual(up, ts, np.zeros(1))
    return [(float(t), float(z.real), float(abs(z))) for t, z in zip(ts, g[:, 0])]
