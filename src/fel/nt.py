"""Desk-scale number-theoretic validation.

Exact computation of the least quadratic non-residue, the least prime
quadratic residue, and the least prime in an arithmetic progression, plus
ratio scans against asymptotic comparator constants and an empirical check
of the truncated/tail prime-power sum identity

    (1/2pi) sum_{2<=n<m} Lambda(n)/sqrt(n) g(log n / 2pi)
        = int_0^{log m / 2pi} g(t) e^{pi t} dt + O((||g||_1 + ||g'||_1) log^2 m).

Every prime comes from one segmented numpy sieve of Eratosthenes over the
odd numbers only (:func:`segmented_primes`; :func:`primes_upto` is one
block of it): by blocks for the scanned keys, and for one module-level
pool, a prefix of the primes that is sieved again to twice its last prime
whenever a caller asks for more primes than it holds, for the small primes
l of the symbol tables and the first hits of the arithmetic progressions.
Quadratic symbols come from quadratic reciprocity, one Legendre table of
the squares mod l per small prime l, applied to a whole block of primes at
once.  Miller-Rabin (deterministic for 64-bit inputs, standard 12-witness
set) only validates scalar inputs.
Scan ratios are computed at 30 decimal digits (103 bits, round-nearest),
and printed to 20 digits, at the ``mpmath.libmp`` level: the ratio by
``mpf_log`` and ``mpf_div``, its printed digits by a small integer kernel
on the raw tuple that does the steps of ``to_str(x, 20)`` (mpmath 1.3), bit
for bit.  The sieves of the scans and of the prime-sum check stay within
:data:`SIEVE_BUDGET`; ranges that would need more are refused, before any
sieving where the range tells.

The comparator constants bound limsups; no finite scan can confirm or
refute them.  Scans therefore take an explicit key range and report
margins only -- the smallest primes and moduli trivially exceed the
asymptotic constants, which is why the CLI defaults start the ranges just
past them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float, from_int, mpf_div, mpf_gt, mpf_log, mpf_mul, mpf_pow_int, mpf_sub

__all__ = [
    "NtRecord",
    "ScanSummary",
    "PrimeSumReport",
    "is_prime_u64",
    "least_qnr",
    "least_prime_qr",
    "primes_upto",
    "segmented_primes",
    "scan",
    "summarize",
    "raised_cosine_bump",
    "prime_sum_check",
    "DEFAULT_SCAN_FLOORS",
    "COMPARATORS",
    "SIEVE_BUDGET",
]

# 30 decimal digits, the precision mp.workdps(30) sets
_RATIO_PREC = 103

# the largest number any sieve of this module reaches, and the most numbers
# it flags: the end of the prime-sum sieve, the keys of a prime scan and its
# base sieve (to the square root of its largest key), and the prime pool of
# the ap scan
SIEVE_BUDGET = 2 * 10**8

# smallest keys at which the desk ratios drop below the asymptotic
# comparators; see the module docstring.  For prime-qr the last prime up to
# 1e6 above the comparator is 163 (least prime residue 41, ratio 1.580).
DEFAULT_SCAN_FLOORS = {"qnr": 11, "prime-qr": 167, "ap": 4}

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


def _least_prime_with_symbol(ps: np.ndarray, want: int) -> np.ndarray:
    """For each odd prime p of ``ps``, the least prime l with (l|p) == want.

    (2|p) is +1 exactly when p = +-1 (mod 8).  For odd l != p, reciprocity
    gives (l|p) = (p mod l | l), negated when l = p = 3 (mod 4); (p mod l | l)
    is read from the table of squares mod l.  Only the primes still
    unresolved are carried to the next l.
    """
    ps = np.asarray(ps)
    out = np.empty(ps.shape, dtype=np.int64)
    r8 = ps % 8
    two = ((r8 == 1) | (r8 == 7)) == (want == 1)
    out[two] = 2
    left = np.nonzero(~two)[0]
    i = 1
    while left.size:
        ell = int(_first_primes(i + 1)[i])
        p = ps[left]
        table = np.full(ell, -1, dtype=np.int8)
        table[np.arange(ell) ** 2 % ell] = 1
        table[0] = 0
        sym = table[(p % ell).astype(np.intp, copy=False)]
        if ell % 4 == 3:
            sym = np.where(p % 4 == 3, -sym, sym)
        hit = sym == want
        out[left[hit]] = ell
        left = left[~hit]
        i += 1
    return out


def least_qnr(p: int) -> int:
    """Least quadratic non-residue modulo an odd prime (always prime itself,
    so only primes are tried)."""
    _check_odd_prime(p)
    return int(_least_prime_with_symbol(np.array([p]), -1)[0])


def least_prime_qr(p: int) -> int:
    """Least prime that is a quadratic residue modulo an odd prime."""
    _check_odd_prime(p)
    return int(_least_prime_with_symbol(np.array([p]), 1)[0])


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n: one block of :func:`segmented_primes`."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return next(segmented_primes(2, n + 1, block=n))


# a prefix of the primes, in increasing order; see _first_primes
_pool = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47], dtype=np.int64)


def _first_primes(n: int) -> np.ndarray:
    """The first n primes, sieving the pool again to twice its last prime
    until it holds them; a ValueError refuses a pool past :data:`SIEVE_BUDGET`."""
    global _pool
    while _pool.size < n:
        end = 2 * int(_pool[-1])
        if end > SIEVE_BUDGET:
            raise ValueError("the prime pool would reach %.2g, beyond the sieve budget "
                             "(%.0e)" % (end, SIEVE_BUDGET))
        _pool = primes_upto(end)
    return _pool[:n]


def segmented_primes(lo: int, hi: int, block: int = 8_000_000) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi) as int64 numpy blocks, one per
    [start, start + block) for start in range(max(lo, 2), hi, block).

    Each block sieves its odd numbers only (a wheel of 2): flag i stands for
    s0 + 2i, with s0 the first odd number of the block, and each odd prime p
    clears every p-th flag from its first odd multiple past max(start, p^2).
    The block that starts at 2 starts its flags at 1 and reads the prime 2
    from flag 0.  The sieving primes come from this function itself,
    through :func:`primes_upto`; no odd composite lies below 9.
    """
    lo = max(lo, 2)
    if lo >= hi:
        return
    base = primes_upto(math.isqrt(hi - 1))[1:].tolist() if hi > 9 else []
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        s0 = start | 1 if start > 2 else 1
        seg = np.ones((stop - s0 + 1) // 2, dtype=bool)
        for p in base:
            if p * p >= stop:
                break
            first = max(p * p, (-(-start // p) | 1) * p)
            seg[(first - s0) // 2 :: p] = False
        primes = np.flatnonzero(seg).astype(np.int64, copy=False)
        del seg  # the flags are not held while the caller works on the block
        primes *= 2
        primes += s0
        if start == 2:
            primes[0] = 2  # flag 0 stands for 1, which no odd prime clears
        yield primes


# to_str(x, 20) floors x to a fixed-point value of this many bits past its
# leading bit (mpmath 1.3's to_digits_exp at 23 digits), with this log2(10)
_LOG2_10 = math.log(10, 2)
_FIX_BITS = int(23 * _LOG2_10) + 10


def _digits20(x) -> str:
    """``to_str(x, 20)`` for a positive raw mpf x below 2^3500 and above
    2^-3500, on integers.

    As in mpmath 1.3: floor x to a fixed-point integer sf = x 2^fixprec of
    86 bits, change radix to floor(sf 10^fixdps / 2^fixprec) (at least 25
    digits), round its first 20 digits half-up on the 21st (a carry through
    twenty nines adds a digit), then print fixed for a decimal exponent in
    (-6, 20) and with ``e+``/``e-`` otherwise, trailing zeros stripped.
    """
    _, man, exp, bc = x
    fixprec = _FIX_BITS - exp - bc
    if fixprec < 0:
        fixprec = 0
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    sd = str((man << shift if shift >= 0 else man >> -shift) * 10**fixdps >> fixprec)
    e = len(sd) - fixdps - 1
    d = sd[:20]
    if sd[20] >= "5":
        d = str(int(d) + 1)
        if len(d) > 20:
            d = d[:20]
            e += 1
    if -6 < e < 0:
        return ("0." + "0" * (-1 - e) + d).rstrip("0")
    if 0 <= e < 20:
        d = (d[: e + 1] + "." + d[e + 1 :]).rstrip("0")
        return d + "0" if d[-1] == "." else d
    d = (d[0] + "." + d[1:]).rstrip("0")
    if d[-1] == ".":
        d += "0"
    return d + "e%+d" % e


class NtRecord(NamedTuple):
    """One scan datum: key (prime, or (a, q) pair), extremal value, and
    ratio, an ``mp.mpf`` at 30 digits; :meth:`csv_row` prints it to 20
    digits with :func:`_digits20`."""

    key: object
    value: int
    ratio: object

    def csv_row(self) -> str:
        key, value, ratio = self
        if isinstance(key, tuple):
            return "%d mod %d,%d,%s" % (*key, value, _digits20(ratio._mpf_))
        return "%d,%d,%s" % (key, value, _digits20(ratio._mpf_))


@dataclass
class ScanSummary:
    """Running max-reduction over scan records; the ratios are compared as
    raw mpf tuples (``mpf_gt``)."""

    comparator: float
    kind: str
    count: int = 0
    max_ratio: object = None
    argmax: object = None

    def update(self, rec: NtRecord):
        self.count += 1
        if self.max_ratio is None or mpf_gt(rec.ratio._mpf_, self.max_ratio._mpf_):
            self.max_ratio = rec.ratio
            self.argmax = rec.key

    @property
    def margin(self):
        """comparator - max_ratio at 30 digits, round-nearest, from the exact
        double of the comparator."""
        if self.max_ratio is None:
            return None
        return mp.make_mpf(
            mpf_sub(from_float(self.comparator), self.max_ratio._mpf_, _RATIO_PREC, "n")
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "max_ratio": None if self.max_ratio is None else mp.nstr(self.max_ratio, 20),
            "argmax": ("%d mod %d" % self.argmax) if isinstance(self.argmax, tuple) else self.argmax,
            "comparator": self.comparator,
            "margin": None if self.margin is None else mp.nstr(self.margin, 20),
        }


COMPARATORS = {"qnr": 0.7615, "prime-qr": 0.7615, "ap": 8.0 / 9.0}


def _log_squared(n: int, scale: int = 1):
    """(scale * log n)^2 as a raw libmp mpf at 30 digits, round-nearest."""
    x = mpf_log(from_int(n), _RATIO_PREC, "n")
    if scale != 1:
        x = mpf_mul(from_int(scale), x, _RATIO_PREC, "n")
    return mpf_pow_int(x, 2, _RATIO_PREC, "n")


def _ratio(value: int, denom) -> mp.mpf:
    """value / denom at 30 digits, round-nearest, for a raw mpf ``denom``."""
    return mp.make_mpf(mpf_div(from_int(value), denom, _RATIO_PREC, "n"))


def scan(kind: str, lo: int, hi: int) -> Iterator[NtRecord]:
    """Stream NtRecords over a key range.

    kind "qnr"/"prime-qr": odd primes p in [lo, hi], ratio value/log^2 p.
    kind "ap": moduli q in [lo, hi], every residue coprime to q, ratio
    P(a,q)/(phi(q) log q)^2.  Deterministic and restartable: records depend
    only on the key, so the records of consecutive chunks concatenate to
    those of the whole range.

    The range is checked when ``scan`` is called, before any sieving: a
    ValueError refuses it when a sieve would pass :data:`SIEVE_BUDGET`: the
    blocks of a prime scan (one flag per key of [max(lo, 3), hi]), its base
    sieve (to sqrt(hi)), or the pool of an ap scan (which must hold the
    hi-th prime, past hi log hi).  An ap pool that has to grow
    past the budget to find the first hits is refused when it does.
    """
    if kind in ("qnr", "prime-qr"):
        lo = max(lo, 3)
        if hi - lo + 1 > SIEVE_BUDGET:
            raise ValueError("the %d keys of [%d, %d] are more than the sieve budget (%.0e)"
                             % (hi - lo + 1, lo, hi, SIEVE_BUDGET))
        if hi > 0 and math.isqrt(hi) > SIEVE_BUDGET:
            raise ValueError("primes up to %d need a base sieve to %.2g, beyond the sieve "
                             "budget (%.0e)" % (hi, math.isqrt(hi), SIEVE_BUDGET))
        return _scan_primes(-1 if kind == "qnr" else 1, lo, hi)
    if kind == "ap":
        if hi > 1 and hi * math.log(hi) > SIEVE_BUDGET:
            raise ValueError("moduli up to %d need a prime pool past %.2g, beyond the sieve "
                             "budget (%.0e)" % (hi, hi * math.log(hi), SIEVE_BUDGET))
        return _scan_ap(max(lo, 1), hi)
    raise ValueError("unknown scan kind %r" % (kind,))


def _scan_primes(want: int, p_lo: int, p_hi: int) -> Iterator[NtRecord]:
    for block in segmented_primes(p_lo, p_hi + 1):
        values = _least_prime_with_symbol(block, want)
        for p, v in zip(block.tolist(), values.tolist()):
            yield NtRecord(p, v, _ratio(v, _log_squared(p)))


def _scan_ap(q_lo: int, q_hi: int) -> Iterator[NtRecord]:
    for q in range(q_lo, q_hi + 1):
        if q == 1:
            yield NtRecord((0, 1), 2, _ratio(2, _log_squared(2)))
            continue
        coprime = np.gcd(np.arange(q), q) == 1
        # index of the first prime in each residue class (n if none), over a
        # prefix of the primes that starts at q primes and doubles until every
        # coprime class has a hit
        n = q
        while True:
            primes = _first_primes(n)
            first = np.full(q, n)
            np.minimum.at(first, primes % q, np.arange(n))
            if (first[coprime] < n).all():
                break
            n *= 2
        denom = _log_squared(q, int(np.count_nonzero(coprime)))
        residues = np.nonzero(coprime)[0]
        for a, p in zip(residues.tolist(), primes[first[residues]].tolist()):
            yield NtRecord((a, q), p, _ratio(p, denom))


def summarize(records: Iterator[NtRecord], kind: str) -> ScanSummary:
    """Reduce a record stream to its summary against ``COMPARATORS[kind]``
    (order-free)."""
    s = ScanSummary(comparator=COMPARATORS[kind], kind=kind)
    for rec in records:
        s.update(rec)
    return s


# ---------------------------------------------------------------------------
# prime-power sum vs integral


def raised_cosine_bump(lo: float, hi: float) -> Callable:
    """C^1 bump supported on [lo, hi]: 0.5*(1 + cos(2 pi (t-mid)/width)).

    Vectorized over numpy arrays.  ||g||_1 = width/2 exactly; the derivative
    vanishes at the support edges so g is C^1 on the line.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    mid = 0.5 * (lo + hi)
    width = hi - lo

    def g(t):
        t = np.asarray(t, dtype=np.float64)
        inside = (t >= lo) & (t <= hi)
        out = np.zeros_like(t)
        out[inside] = 0.5 * (1.0 + np.cos(2.0 * np.pi * (t[inside] - mid) / width))
        return out

    g.support = (lo, hi)
    g.dl1 = 2.0  # integral of |g'|: total rise+fall of a unit-amplitude bump
    return g


@dataclass(frozen=True)
class PrimeSumReport:
    """Both sides of the truncated and tail identities plus residuals."""

    m: int
    truncated_sum: float
    truncated_integral: float
    tail_sum: float
    tail_integral: float
    norm_g: float
    norm_g_prime: float
    psi_m: float = 0.0
    psi_window: float = 0.0

    @property
    def truncated_residual(self) -> float:
        return self.truncated_sum - self.truncated_integral

    @property
    def tail_residual(self) -> float:
        return self.tail_sum - self.tail_integral

    @property
    def normalized_truncated(self) -> float:
        return self.truncated_residual / ((self.norm_g + self.norm_g_prime) * math.log(self.m) ** 2)

    @property
    def normalized_tail(self) -> float:
        return self.tail_residual / ((self.norm_g + self.norm_g_prime) * math.log(self.m) ** 2)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "truncated_sum": self.truncated_sum,
            "truncated_integral": self.truncated_integral,
            "truncated_residual": self.truncated_residual,
            "normalized_truncated": self.normalized_truncated,
            "tail_sum": self.tail_sum,
            "tail_integral": self.tail_integral,
            "tail_residual": self.tail_residual,
            "normalized_tail": self.normalized_tail,
            "psi_m": self.psi_m,
            "psi_window": self.psi_window,
        }


def _float_quad(f, lo, hi, panels=2000):
    """Composite Simpson for the float-precision normalization integrals."""
    if hi <= lo:
        return 0.0
    xs = np.linspace(lo, hi, 2 * panels + 1)
    ys = np.asarray(f(xs), dtype=np.float64)
    h = (hi - lo) / (2 * panels)
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def prime_sum_check(m: int, g: Callable, support: tuple | None = None,
                    g_prime_l1: float | None = None) -> PrimeSumReport:
    """Empirically compare the prime-power sums against their integrals.

    ``g`` must be vectorized over numpy arrays, continuous with piecewise-C^1
    structure, and supported inside [-log m / pi, log m / pi] (pass
    ``support`` explicitly unless g carries a ``.support`` attribute).  The
    truncated side sums 2 <= n < m; the tail side sums n >= m up to the end
    of the support.  Residuals are reported normalized by
    ``(||g||_1 + ||g'||_1) log^2 m``; ||g'||_1 is ``g_prime_l1`` or, when
    that is not given, ``g.dl1`` (set by :func:`raised_cosine_bump`); with
    neither, a ValueError is raised.  Also reports the Chebyshev sum psi(m)
    against m with the sqrt(m) log^2 m window (reported, never asserted).
    """
    if m < 3:
        raise ValueError("m must be >= 3")
    if m > 10**8:
        raise ValueError("m must be <= 1e8")
    sup = support if support is not None else getattr(g, "support", None)
    if sup is None:
        raise ValueError("need the support of g")
    if g_prime_l1 is None:
        g_prime_l1 = getattr(g, "dl1", None)
    if g_prime_l1 is None:
        raise ValueError("need ||g'||_1: pass g_prime_l1 or a g carrying .dl1")
    lo_s, hi_s = float(sup[0]), float(sup[1])
    logm = math.log(m)
    if lo_s < -logm / math.pi - 1e-12 or hi_s > logm / math.pi + 1e-12:
        raise ValueError("support of g must sit inside [-log m/pi, log m/pi]")

    two_pi = 2.0 * math.pi
    # the sums only see n with log n/(2 pi) inside the support, but the
    # Chebyshev report needs the primes all the way to m
    n_end = min(math.exp(two_pi * hi_s), 1e18)
    n_end_i = int(n_end) + 2
    sieve_end = max(n_end_i, m)
    if sieve_end > SIEVE_BUDGET:
        raise ValueError(
            "support reaches n ~ %.2g, beyond the sieve budget (%.0e); shrink it"
            % (sieve_end, SIEVE_BUDGET)
        )

    trunc = 0.0
    tail = 0.0
    psi_m = 0.0

    # primes: segmented, vectorized weights (g vanishes off its support)
    for block in segmented_primes(2, sieve_end):
        pb = block.astype(np.float64)
        below = block < m
        lp = np.log(pb)
        psi_m += float(lp[below].sum())
        w = lp / np.sqrt(pb)
        del pb  # not held while g runs
        lp /= two_pi  # log p / 2 pi, where g is read
        w *= np.asarray(g(lp), dtype=np.float64)
        trunc += float(w[below].sum())
        tail += float(w[~below].sum())

    # prime powers p^k, k >= 2: p <= sqrt(end), python loop is cheap
    for p in primes_upto(int(math.isqrt(sieve_end)) + 1).tolist():
        lp = math.log(p)
        n = p * p
        while n < sieve_end:
            t = math.log(n) / two_pi
            w = lp / math.sqrt(n) * float(g(np.array([t]))[0])
            if n < m:
                trunc += w
                psi_m += lp
            else:
                tail += w
            n *= p
    trunc /= two_pi
    tail /= two_pi

    cut = logm / two_pi
    integrand = lambda t: np.asarray(g(t)) * np.exp(np.pi * np.asarray(t))
    I_trunc = _float_quad(integrand, max(0.0, lo_s), min(cut, hi_s))
    I_tail = _float_quad(integrand, max(cut, lo_s), hi_s)

    norm_g = _float_quad(lambda t: np.abs(np.asarray(g(t))), lo_s, hi_s)

    return PrimeSumReport(
        m=m,
        truncated_sum=trunc,
        truncated_integral=I_trunc,
        tail_sum=tail,
        tail_integral=I_tail,
        norm_g=norm_g,
        norm_g_prime=float(g_prime_l1),
        psi_m=psi_m,
        psi_window=math.sqrt(m) * logm**2,
    )
