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
working-precision kernel, the Abel form of :func:`fast_sup` on raw libmp
values, gives the polished value and both derivatives; one table of the
pieces holds each ``e^{pi T_n}`` once, for that kernel, the curvature bound,
the mass constant of the tail and the float-range check.  :func:`residual`
is the formula above on mpmath objects, the reference of the tests.

The float form of the residual, :func:`residual_np`, is the numpy kernel
behind the branch-and-bound grid, the local-maxima scan and the plots.  The
search's sup estimate :func:`fast_sup` evaluates the same residual in an
Abel-summed form, one small complex matmul per stage.  These float kernels
import numpy themselves, when they first run: :mod:`fel.tables` and the
commands that never touch the grid (``lower-eval``, ``bounds``) need only
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
    "residual",
    "residual_np",
    "fast_sup",
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
_TWO_PI_I, _MINUS_TWO_PI_I = 2j * math.pi, -2j * math.pi
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
    :func:`fast_sup`, ``residual = N / (1 - 2it)`` with

        N(t) = d_0 + sum_m d_m e^{pi T_m} e^{-i k_m t},   k_m = 2 pi T_m,

    so that ``N' = sum -i k_m (...)``, ``N'' = sum -k_m^2 (...)``, and

        r' = (N' + 2i r) / (1 - 2it),   r'' = (N'' + 4i r') / (1 - 2it),
        h' = 2 Re(conj(r) r'),   h'' = 2 (|r'|^2 + Re(conj(r) r'')).

    The weights ``d_m e^{pi T_m}`` (from the table's exponentials) and the
    ``k_m`` are computed once, here; each ``e^{-i k_m t}`` once per ``t``.
    """
    prec = mp.mp.prec
    cs = table.levels + [mp.mpf(0)]  # c_N = 0
    d0 = (2 + 2 * cs[0])._mpf_
    terms = []
    for m, (T, E) in enumerate(zip(table.knots[1:], table.exps[1:]), 1):
        k = 2 * mp.pi * T
        terms.append(((2 * (cs[m] - cs[m - 1]) * E)._mpf_, k._mpf_, (k * k)._mpf_))
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


def _alternation(A, n: int) -> np.ndarray:
    """The weights ``A, -1, A, -1, ...`` of ``n`` pieces, as floats."""
    import numpy as np

    cs = np.full(n, -1.0)
    cs[::2] = float(A)
    return cs


def residual_np(A, knots, ts: np.ndarray, deriv: bool = False):
    """The residual at the float array ``ts`` in float64, for penalty ``A``.

    ``knots`` are the knots ``T_1 < ... < T_N`` (floats, or anything
    ``float`` accepts).  Each ``e^{(pi - 2 pi i t) T_n}`` is computed once
    (1 for ``T_0 = 0``).  With ``deriv`` the result is (residual, d/dt residual).
    """
    import numpy as np

    z = 1 - 2j * ts
    w = np.pi - _TWO_PI_I * ts
    val = 2 / z
    if deriv:
        z2 = z * z
        der = 4j / z2
    e0, k0 = 1.0, 0.0
    for k, cn in zip(knots, _alternation(A, len(knots))):
        k = float(k)
        e1 = np.exp(w * k)
        if cn != 0.0:
            val = val - 2 * cn * (e1 - e0) / z
            if deriv:
                der = der - 2 * cn * (
                    _MINUS_TWO_PI_I * (k * e1 - k0 * e0) / z + 2j * (e1 - e0) / z2
                )
        e0, k0 = e1, k
    return (val, der) if deriv else val


def fast_sup(A: float, knots: np.ndarray) -> float:
    """Float estimate of the sup-norm for the upper family (search mode).

    Coarse scan over a window truncated at t <= 15, then a refinement of the
    10 best samples in two local stages; good to ~1e-6 for candidates shaped
    like the incumbents.  This only ranks candidates: whatever leaves the
    search is re-certified by :func:`sup_norm` over the full window.  Knot
    vectors that are not increasing and positive, or that end past 30, and
    those whose values leave the float range, get 1e9.

    Abel summation of the residual's piece sum gives

        residual(t) = (d_0 + sum_m d_m e^{pi T_m} e^{-i theta_m t}) / (1 - 2it),

    with ``d_0 = 2 + 2 c_0``, ``d_m = 2 (c_m - c_{m-1})``, ``c_N = 0`` and
    ``theta_m = 2 pi T_m``.  The ``d`` and ``|c|`` depend on ``(A, N)``
    only and come from the cached piece table :func:`_pieces`.  Each stage
    lays its points out as rows and columns, ``t = lo_r + j delta``, so
    ``e^{-i theta t}`` factors into a row and a column exponential and the
    sum over knots is one small complex matmul (:func:`_stage`).
    ``|residual|`` is even in ``t``, so the local stages may reach below 0.

    A search makes some 10^4 calls at 1-4 knots, where numpy's per-call
    dispatch, not arithmetic, sets the cost: so a call runs only the ufuncs
    the formula needs, on cached index arrays and in place, in an order
    that fixes every rounding.  The tests pin its floats with ``==``.
    """
    import numpy as np

    n = knots.size
    if n and ((knots[1:] <= knots[:-1]).any() or knots[0] <= 0 or knots[-1] > 30):
        return 1e9
    with np.errstate(all="ignore"):
        dc2, cabs, d0 = _pieces(A, n)
        ep = np.exp(np.pi * knots)
        weights = dc2 * ep
        freq = -2j * np.pi * knots  # -i theta_m
        g0 = abs(d0 + weights.sum())
        pairs = ep.copy()  # e^{pi T_m} + e^{pi T_{m-1}}, with e^0 = 1 before the first
        pairs[1:] += ep[:-1]
        pairs[:1] += 1.0
        C = 2.0 + 2.0 * float(cabs @ pairs)
        if not (math.isfinite(g0) and math.isfinite(C)):
            return 1e9
        thr = max(g0 * 0.98, 1e-6)
        t_max = min(math.sqrt(max((C / thr) ** 2 - 1.0, 0.0)) / 2.0 + 0.25, 15.0)
        m = max(int(t_max / 8e-3), 200) + 1  # coarse step about 8e-3
        step = t_max / (m - 1)
        ts, v = _stage(d0, weights, freq, step * 64 * _columns(-(-m // 64)), step, 64)
        ts, v = ts.ravel()[:m], v.ravel()[:m]
        # one row per peak, unordered: every stage takes a max over all its rows
        c = ts[v.argpartition(-10)[-10:]]
        fine, fv = _stage(d0, weights, freq, c - step, step / 20, 41)
        c = fine[_columns(10, int), fv.argmax(1)]
        _, tv = _stage(d0, weights, freq, c - step / 20, step / 200, 21)
        best = float(np.maximum(np.maximum(v.max(), fv.max()), tv.max()))  # NaN propagates
    return best if math.isfinite(best) else 1e9


@functools.lru_cache(maxsize=64)
def _pieces(A: float, n: int):
    """(2 diff(c, append 0), |c|, d_0) of :func:`fast_sup` for ``n`` pieces.

    Built once per ``(A, n)`` and read-only: every call shares them.
    """
    import numpy as np

    cs = _alternation(A, n)
    dc2, cabs = 2 * np.diff(cs, append=0.0), np.abs(cs)
    dc2.flags.writeable = cabs.flags.writeable = False
    return dc2, cabs, 2.0 + 2.0 * cs[0] if n else 2.0


@functools.lru_cache(maxsize=64)
def _columns(k: int, dtype=float):
    """``np.arange(k)`` as ``dtype``, read-only and shared."""
    import numpy as np

    out = np.arange(k, dtype=dtype)
    out.flags.writeable = False
    return out


def _stage(d0, weights, freq, lo, delta, cols: int):
    """(t, |residual(t)|) at ``t = lo[r] + j delta``, ``j < cols``: one row per ``lo``.

    ``weights`` are the ``d_m e^{pi T_m}`` and ``freq`` the ``-i theta_m`` of
    :func:`fast_sup`.  The arithmetic runs in place on the stage's own
    arrays, as ``d0 + E_row @ (w E_col)`` and ``|num| / sqrt(1 + (4 t) t)``
    in that order of operations.
    """
    import numpy as np

    offs = delta * _columns(cols)
    row_exp = lo[:, None] * freq
    np.exp(row_exp, out=row_exp)
    col_exp = freq[:, None] * offs
    np.exp(col_exp, out=col_exp)
    col_exp *= weights[:, None]
    num = row_exp @ col_exp
    num += d0
    t = lo[:, None] + offs
    den = 4.0 * t
    den *= t
    den += 1.0
    np.sqrt(den, out=den)
    out = np.abs(num)
    out /= den
    return t, out


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


def _branch_and_bound(up, t_lo, t_hi, L2, slack, target=None):
    """Max of |residual| on [t_lo, t_hi] to within ``slack`` (float grid).

    Second-order cell certificate: with midpoint value g, derivative g' and
    half-width h, ``sup_cell |residual| <= max(|g - g'h|, |g + g'h|) + L2 h^2 / 2``
    by the complex Taylor bound.  Cells whose certificate stays above the
    retention level (running witness + slack, or ``target`` when given) are
    split; the rest are discarded.  Returns (witness_t, witness_value,
    certified_sup_bound, finest_cell_width, midpoints_evaluated).  A given
    ``target`` also returns early once a sample exceeds it (used by the
    below-threshold certifier).
    """
    import numpy as np

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
        if target is not None and witness_v > target:
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
        wt, wv, cert_sup, finest, cells = _branch_and_bound(
            up, 0.0, float(t_max), float(L2), _DEFAULT_SLACK
        )
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


def certify_below(up: UpperParams, t_lo: float, threshold: float, ctx: PrecisionContext):
    """Certify |residual(t)| < threshold for every t >= t_lo.

    Returns ``(ok, meta)``; on failure the meta carries a witness t with
    sample value >= threshold.  The scan window ends where the closed-form
    majorant drops under the threshold.
    """
    with ctx.workprec():
        _, L2, C = _piece_table(up)
        t_hi = _tail_cut(C, mp.mpf(threshold) * (1 - mp.mpf("1e-9")))
        meta = {"t_window": (float(t_lo), float(t_hi)), "curvature": float(L2)}
        if t_hi <= t_lo:
            return True, meta
        margin = float(threshold) * 1e-6
        try:
            wt, wv, cert, _, _ = _branch_and_bound(
                up, float(t_lo), float(t_hi), float(L2), margin,
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
    g = residual_np(up.penalty, up.knots, ts)
    return [(float(t), float(z.real), float(abs(z))) for t, z in zip(ts, g)]
