import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from fel import precision, tables, upper
from fel.precision import (
    ErrBounded,
    PrecisionContext,
    Unconverged,
    gauss_legendre,
    gauss_legendre_fixed,
    integrate_finite,
    integrate_fixed,
    isolate_sign_changes,
    maximize_scalar,
    odd_poly_eval,
    poly_exp_antiderivative,
    poly_exp_integral,
)


def test_context_invariants():
    ctx = PrecisionContext.make(40)
    assert ctx.digits == 40
    with pytest.raises(ValueError):
        PrecisionContext(digits=20, target_abs_err=1e-10)
    with pytest.raises(ValueError):
        PrecisionContext(digits=40, target_abs_err=1e-39)  # fewer than 5 guard digits
    with pytest.raises(ValueError):
        PrecisionContext(digits=40, target_abs_err=-1.0)


def test_integrate_exponential(ctx40):
    r = integrate_finite(lambda t: mp.e ** (mp.pi * t), 0, 1, ctx40)
    with ctx40.workprec():
        exact = (mp.e**mp.pi - 1) / mp.pi  # = 7.04760135...
        assert abs(r.value - exact) <= max(r.err, mp.mpf(ctx40.target_abs_err))
        assert abs(float(exact) - 7.047601351970261) < 1e-12


def test_integrate_empty_interval(ctx40):
    r = integrate_finite(lambda t: t * t, 3, 3, ctx40)
    assert r.value == 0 and r.err == 0


def test_integrate_tent_piece_matches_antiderivatives(ctx40):
    # (1 - |t|) e^{pi t} on [-1, 0] equals the m=0 plus m=1 closed forms
    r = integrate_finite(lambda t: (1 - abs(t)) * mp.e ** (mp.pi * t), -1, 0, ctx40)
    with ctx40.workprec():
        exact = poly_exp_integral(0, mp.pi, -1, 0) + poly_exp_integral(1, mp.pi, -1, 0)
        assert abs(r.value - exact) <= r.err + mp.mpf("1e-35")


def test_integrate_reversed_orientation(ctx40):
    fwd = integrate_finite(lambda t: t * t, 0, 2, ctx40)
    rev = integrate_finite(lambda t: t * t, 2, 0, ctx40)
    assert abs(fwd.value + rev.value) < 1e-30


def test_integrate_finite_evaluation_count(ctx40):
    # one 24-point rule: the whole interval once, then both halves of every
    # panel, whose values become the children's estimates
    calls = []
    r = integrate_finite(lambda t: calls.append(t) or 1 / (1 + 25 * t * t), -1, 1, ctx40)
    assert r.meta["panels"] > 1
    assert len(calls) == 24 + 48 * r.meta["panels"]
    with ctx40.workprec():
        assert abs(r.value - 2 * mp.atan(5) / 5) <= r.err + mp.mpf("1e-35")


def panel_oracle(f, lo, hi, dps):
    """One Gauss-Legendre panel on mpmath objects: the oracle that the libmp
    node sum of ``precision._panel`` equals bit for bit."""
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    acc = mp.mpf(0)
    for x, w in gauss_legendre(precision._GL_ORDER, dps):
        acc += w * (f(mid + half * x) + f(mid - half * x))
    return acc * half


@pytest.mark.parametrize("digits", [30, 40, 100])
def test_panel_equals_oracle(digits):
    # a real and a complex integrand on panels with random ends
    rng = random.Random(digits)
    fs = (lambda t: mp.e ** (mp.pi * t) / (1 + t * t), lambda t: mp.e ** ((mp.pi - 2j) * t))
    with mp.workdps(digits):
        nodes = [(x._mpf_, w._mpf_) for x, w in gauss_legendre(precision._GL_ORDER, digits)]
        for _ in range(10):
            lo = mp.mpf(rng.uniform(-3, 1)) / 3
            hi = lo + mp.mpf(rng.uniform(0.01, 2)) / 7
            for f in fs:
                got = precision._panel(f, lo._mpf_, hi._mpf_, nodes, mp.mp.prec)
                want = panel_oracle(f, lo, hi, digits)
                assert type(got) is type(want) and got == want


def test_integrate_unconverged_on_cusp(ctx40):
    # infinite-derivative cusp cannot meet a 1e-30 goal within the depth budget
    with pytest.raises(Unconverged):
        integrate_finite(lambda t: mp.sqrt(abs(t)), -1, 1, ctx40)
    P = mp.libmp.dps_to_prec(ctx40.digits) + 32
    with pytest.raises(Unconverged):
        integrate_fixed(lambda t: math.isqrt(t << P), P, ctx40)


# P-bit integer integrands for the fixed-point quadrature, each with its
# exact form and the constants of integrate_fixed's rounding bound: within
# E of 2^P F, |F| <= M and |F'| <= L on [0, 1]
FIXED_INTEGRANDS = [
    # one floor of 2^P / (1 + 25 tau^2); |F'| peaks at 3.25
    (lambda P: lambda t: (1 << 3 * P) // ((1 << 2 * P) + 25 * t * t),
     lambda t: 1 / (1 + 25 * t * t), 1, 1, 4),
    # one floor of 2^P tau^3
    (lambda P: lambda t: t**3 >> 2 * P, lambda t: t**3, 1, 1, 3),
]


@pytest.mark.parametrize("digits", [30, 40, 100])
@settings(max_examples=25, deadline=None)
@given(panel=st.integers(0, precision._MAX_DEPTH).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, 2**d - 1))))
def test_fixed_panel_within_its_bound(digits, panel):
    # one fixed-point panel on a dyadic sub-panel of [0, 1] against the
    # rule on the same stored nodes and weights at twice the digits: within
    # h (12 M + 2 D + 1) u + u, D = E + 5L/4, u = 2^-P
    depth, k = panel
    P = mp.libmp.dps_to_prec(digits) + 32
    nodes = gauss_legendre_fixed(precision._GL_ORDER, digits, P)
    with mp.workdps(2 * digits):
        for (x, w), (X, W) in zip(gauss_legendre(precision._GL_ORDER, digits), nodes):
            assert abs(mp.ldexp(X, -P) - x) <= mp.ldexp(1, -P - 1)
            assert abs(mp.ldexp(W, -P) - w) <= mp.ldexp(1, -P - 1)
        lo, hi = k << P - depth, k + 1 << P - depth
        h = mp.ldexp(1, -depth - 1)
        for fixed, exact, E, M, L in FIXED_INTEGRANDS:
            got = mp.ldexp(precision._fixed_panel(fixed(P), lo, hi, nodes, P), -P)
            want = panel_oracle(exact, mp.ldexp(lo, -P), mp.ldexp(hi, -P), digits)
            bound = (h * (12 * M + 2 * (E + mp.mpf(5) * L / 4) + 1) + 1) * mp.ldexp(1, -P)
            assert abs(got - want) <= bound, (depth, k)


def test_integrate_fixed_evaluation_count(ctx40):
    # the shared bisection of integrate_finite: 24 + 48 * panels integer
    # evaluations, within the quadrature radius plus the stated rounding
    # bound (E + 5L/4 + 6M + 1 + 2 panels) 2^-P of the integral
    P = mp.libmp.dps_to_prec(ctx40.digits) + 32
    fixed, _, E, M, L = FIXED_INTEGRANDS[0]
    calls = []
    f = fixed(P)
    r = integrate_fixed(lambda t: calls.append(t) or f(t), P, ctx40)
    assert r.meta["panels"] > 1
    assert len(calls) == 24 + 48 * r.meta["panels"]
    assert all(type(t) is int and 0 <= t <= 1 << P for t in calls)
    with ctx40.workprec():
        rounding = mp.ldexp(E + mp.mpf(5) * L / 4 + 6 * M + 1 + 2 * r.meta["panels"], -P)
        assert abs(r.value - mp.atan(5) / 5) <= r.err + rounding + mp.mpf("1e-35")


def test_poly_exp_antiderivative_values(ctx40):
    with ctx40.workprec():
        # plain exponential: limit at -inf is 0, so the integral is 1/pi
        assert abs(poly_exp_integral(0, mp.pi, -mp.inf, 0) - 1 / mp.pi) < mp.mpf("1e-35")
        # first moment at lam = 2 pi
        assert abs(poly_exp_integral(1, 2 * mp.pi, -mp.inf, 0) + 1 / (4 * mp.pi**2)) < mp.mpf("1e-35")
        with pytest.raises(ValueError):
            poly_exp_antiderivative(2, 0, 1.0)
        with pytest.raises(ValueError):
            poly_exp_integral(2, -1, -mp.inf, 0)  # diverges


def test_poly_exp_matches_quadrature_cubic(ctx40):
    with ctx40.workprec():
        exact = poly_exp_integral(3, 1, -1, 0)
    q = integrate_finite(lambda u: u**3 * mp.e**u, -1, 0, ctx40)
    assert abs(exact - q.value) <= q.err + 1e-35


def test_antiderivative_oracle_random_cases(ctx40):
    # 200 seeded cases: m <= 12, lam in [-6, 6] \ {0}, subintervals of [-10, 0].
    # Magnitudes reach e^60, so 40 working digits keep the absolute
    # agreement far below 1e-10.
    import random

    rng = random.Random(20240831)
    for _ in range(200):
        m = rng.randrange(0, 13)
        lam = 0.0
        while abs(lam) < 1e-3:
            lam = rng.uniform(-6, 6)
        a = rng.uniform(-10, 0)
        b = rng.uniform(a, 0)
        with ctx40.workprec():
            exact = poly_exp_integral(m, lam, a, b)
        q = integrate_finite(lambda u: u**m * mp.e ** (mp.mpf(lam) * u), a, b, ctx40)
        with ctx40.workprec():
            assert abs(exact - q.value) <= q.err + mp.mpf("1e-10"), (m, lam, a, b)


def test_precision_doubling_stability(ctx40):
    f = lambda t: mp.cos(t) * mp.e ** (t / 3)
    base = integrate_finite(f, -2, 1, ctx40)
    ctx60 = PrecisionContext(ctx40.digits + 20, ctx40.target_abs_err)
    again = integrate_finite(f, -2, 1, ctx60)
    with ctx60.workprec():
        assert abs(base.value - again.value) <= base.err + mp.mpf("1e-38")


def test_isolate_sign_changes_linear(ctx40):
    roots = isolate_sign_changes([1], -1, 1, ctx40)
    assert len(roots) == 1 and abs(roots[0]) < 1e-29


def test_isolate_sign_changes_cubic(ctx40):
    # u^3 - u has sign changes at -1, 0, 1
    roots = isolate_sign_changes([-1, 1], -2, 2, ctx40)
    assert len(roots) == 3
    for r, expect in zip(roots, (-1, 0, 1)):
        assert abs(r - expect) < 1e-28


def test_isolate_sign_changes_rejects_zero_poly(ctx40):
    with pytest.raises(ValueError):
        isolate_sign_changes([0, 0], -1, 1, ctx40)


@st.composite
def planted_odd_polys(draw):
    """Coefficients of q for u * q(u^2), with ends (lo, hi).

    q has planted roots v = r^2 of multiplicity 1 to 3, each optionally with
    a partner 1e-5 to 1e-2 further out in u, a random quadratic factor
    (real or complex roots), and a power of v (b_1 = 0) when drawn.
    """
    v = sympy.Symbol("v")
    q = sympy.Integer(draw(st.integers(1, 50)) * draw(st.sampled_from([-1, 1])))
    for _ in range(draw(st.integers(1, 3))):
        r = sympy.Rational(draw(st.integers(1, 30_000)), 10_000)
        q *= (v - r**2) ** draw(st.integers(1, 3))
        gap = draw(st.sampled_from([None, 1, 10, 1000]))
        if gap:
            q *= (v - (r + sympy.Rational(gap, 100_000)) ** 2) ** draw(st.integers(1, 2))
    if draw(st.booleans()):
        q *= v**2 + sympy.Rational(draw(st.integers(-90, 90)), 10) * v + draw(st.integers(-9, 9))
    q *= v ** draw(st.integers(0, 2))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(q, v).all_coeffs())]
    lo, hi = sorted(draw(st.lists(st.integers(-35_000, 35_000), min_size=2, max_size=2, unique=True)))
    return coeffs, Fraction(lo, 10_000), Fraction(hi, 10_000)


@settings(max_examples=40, deadline=None)
@given(planted_odd_polys())
def test_isolate_sign_changes_matches_sympy(ctx40, case):
    # the sign changes are the real roots of odd multiplicity strictly inside
    # (lo, hi), counted and located exactly by sympy
    coeffs, lo, hi = case
    u = sympy.Symbol("u")
    poly = sympy.Poly(u * sum(sympy.Rational(c.numerator, c.denominator) * u ** (2 * k)
                              for k, c in enumerate(coeffs)), u)
    lo_s, hi_s = (sympy.Rational(x.numerator, x.denominator) for x in (lo, hi))
    expect = [r for r, m in sympy.real_roots(poly, multiple=False)
              if m % 2 and lo_s < r < hi_s]
    roots = isolate_sign_changes(coeffs, lo, hi, ctx40)
    assert len(roots) == len(expect), (roots, expect)
    with ctx40.workprec():
        for got, r in zip(roots, expect):
            assert abs(got - mp.mpf(str(sympy.N(r, 50)))) < 1e-28, (got, r)


def test_isolate_sign_changes_close_pair_inside_one_old_step(ctx40):
    # -u (u^2 - 1)(u^2 - 1.00001^2): two flips 1e-5 apart on (-2.4, 0)
    r2 = Fraction("1.00001") ** 2
    roots = isolate_sign_changes([-r2, 1 + r2, -1], Fraction("-2.4"), 0, ctx40)
    with ctx40.workprec():
        assert len(roots) == 2
        assert abs(roots[0] + mp.mpf("1.00001")) < 1e-29
        assert abs(roots[1] + 1) < 1e-29


def test_err_bounded_rejects_non_finite_radius():
    for bad in (mp.nan, mp.inf, float("nan")):
        with pytest.raises(ValueError):
            ErrBounded(mp.mpf(1), bad)


def test_sign_correctness_sampling(ctx40):
    # between consecutive roots the polynomial keeps one sign (64 samples)
    import random

    rng = random.Random(7)
    coeffs = [3, -4, 1]  # u(3 - 4u^2 + u^4) = u(u^2-1)(u^2-3)
    roots = isolate_sign_changes(coeffs, -2, 2, ctx40)
    assert len(roots) == 5
    edges = [mp.mpf(-2)] + list(roots) + [mp.mpf(2)]
    with ctx40.workprec():
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo < 1e-20:
                continue
            signs = set()
            for _ in range(64):
                u = lo + (hi - lo) * mp.mpf(rng.random())
                v = odd_poly_eval(coeffs, u)
                if abs(v) > 1e-25:
                    signs.add(1 if v > 0 else -1)
            assert len(signs) <= 1


def golden_section_oracle(f, lo, hi, ctx):
    """The polish that safeguarded Newton replaced in ``maximize_scalar``: a
    48-interval coarse scan picks the best bracket and golden section
    refines it to ``(hi - lo) 10^(-2 digits/3)``."""
    with ctx.workprec():
        lo = mp.mpf(lo)
        hi = mp.mpf(hi)
        if not lo < hi:
            raise ValueError("empty bracket")
        round_eps = mp.mpf(10) ** (-(ctx.digits - 3))
        coarse = 48
        xs = [lo + (hi - lo) * i / coarse for i in range(coarse + 1)]
        vs = [mp.mpf(f(x)) for x in xs]
        ibest = max(range(coarse + 1), key=lambda i: vs[i])
        a = xs[max(ibest - 1, 0)]
        b = xs[min(ibest + 1, coarse)]

        invphi = (mp.sqrt(5) - 1) / 2
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        f1 = mp.mpf(f(x1))
        f2 = mp.mpf(f(x2))
        wtol = max((hi - lo) * mp.mpf(10) ** (-(2 * ctx.digits) // 3), mp.mpf(10) ** (-(ctx.digits + 5)))
        for _ in range(2000):
            if b - a <= wtol:
                break
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = mp.mpf(f(x2))
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = mp.mpf(f(x1))
        xm = (a + b) / 2
        vm = mp.mpf(f(xm))
        cand = [(vm, xm), (f1, x1), (f2, x2)]
        vbest, xbest = max(cand, key=lambda t: t[0])
        spread = max(abs(vbest - v) for v, _ in cand)
        boundary = False
        if xbest - lo <= 2 * wtol and vs[0] >= vbest - spread:
            boundary, xbest, vbest = True, lo, max(vs[0], vbest)
        elif hi - xbest <= 2 * wtol and vs[-1] >= vbest - spread:
            boundary, xbest, vbest = True, hi, max(vs[-1], vbest)
        verr = spread + abs(vbest) * round_eps + mp.mpf(ctx.target_abs_err)
        return ErrBounded(vbest, verr, meta={"argmax": xbest, "boundary": boundary})


def bowl_slope(centre):
    """(f', f'') of the bowl ``-(t - centre)^2``."""
    return lambda t: (-2 * (t - mp.mpf(centre)), mp.mpf(-2))


def test_maximize_quadratic_bowl(ctx40):
    r = maximize_scalar(lambda t: -((t - mp.mpf("0.5")) ** 2), bowl_slope("0.5"), 0, 0, 1, ctx40)
    assert abs(r.meta["argmax"] - mp.mpf("0.5")) < 1e-20
    assert abs(r.value) < 1e-30
    assert not r.meta["boundary"]


def test_maximize_boundary_status(ctx40):
    r = maximize_scalar(lambda t: t, lambda t: (mp.mpf(1), mp.mpf(0)), 0, 0, 1, ctx40)
    assert r.meta["boundary"]
    assert abs(r.meta["argmax"] - 1) < 1e-20


# a double well tilted to the right: local maxima near -0.9873 and 1.0123,
# a local minimum near 0.025
def tilted(t):
    return -((t * t - 1) ** 2) + t / 10


def tilted_slope(t):
    return -4 * t * (t * t - 1) + mp.mpf(1) / 10, -12 * t * t + 4


@pytest.mark.parametrize("start, lo, hi, argmax, boundary", [
    ("0.3", "0.5", 1, 1, True),        # rising over the whole bracket: a boundary
    ("-0.3", "-0.9", 0, "-0.9", True),  # falling over the whole bracket
    ("0.8", -2, 2, "1.0123", False),   # two local maxima: the one uphill from the start
    ("-0.8", -2, 2, "-0.9873", False),
    ("0.025", -2, 2, "1.0123", False),  # convex start (f'' > 0)
    ("1.99", "0.5", 2, "1.0123", False),
])
def test_maximize_safeguards(ctx40, start, lo, hi, argmax, boundary):
    r = maximize_scalar(tilted, tilted_slope, start, lo, hi, ctx40)
    with ctx40.workprec():
        assert abs(r.meta["argmax"] - mp.mpf(argmax)) < 1e-4
        assert r.meta["boundary"] == boundary
        assert r.value == tilted(r.meta["argmax"]) >= tilted(mp.mpf(start))
        if not boundary:  # converged: f'^2 / (2|f''|) is below |f| 10^-37
            assert abs(tilted_slope(r.meta["argmax"])[0]) < 1e-18
        assert r.err < 1e-29
        assert r.meta["evals"] <= 12


def test_maximize_peak_at_the_left_end(ctx40):
    # cos peaks exactly at lo = 0, where its slope is 0: Newton from 0.6
    # steps past 0, and the iterate moves to the end itself
    r = maximize_scalar(mp.cos, lambda t: (-mp.sin(t), -mp.cos(t)), "0.6", 0, 1, ctx40)
    assert r.meta["argmax"] == 0 and r.value == 1 and r.meta["boundary"]
    assert r.err < 1e-29


def test_maximize_never_below_the_start(ctx40):
    # a slope that points at 0.2 while f peaks at 0.5: the Newton end is
    # lower than f(start), so the start comes back
    f = lambda t: -((t - mp.mpf("0.5")) ** 2)
    r = maximize_scalar(f, bowl_slope("0.2"), "0.45", 0, 1, ctx40)
    with ctx40.workprec():
        assert r.meta["argmax"] == mp.mpf("0.45") and r.value == f(mp.mpf("0.45"))


def test_maximize_convex_start_at_a_stationary_point(ctx40):
    # -(t^2 - 1)^2 has slope exactly 0 at its local minimum t = 0
    r = maximize_scalar(lambda t: -((t * t - 1) ** 2), lambda t: (-4 * t * (t * t - 1), -12 * t * t + 4),
                        0, -2, 2, ctx40)
    assert abs(abs(r.meta["argmax"]) - 1) < 1e-20 and abs(r.value) < 1e-30


def residual_peaks(A, knots):
    """Grid local maxima of |residual| on [0, 6], t = 0 included when it wins."""
    ts = np.linspace(0.0, 6.0, 6001)
    v = np.abs(upper.residual_np(A, knots, ts))
    idx = list(np.where((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]))[0] + 1)
    return [0] * bool(v[0] >= v[1]) + idx, ts


@pytest.mark.parametrize("digits", [30, 40, 100])
@settings(max_examples=10, deadline=None)
@given(
    st.one_of(
        st.sampled_from(sorted(tables.upper_reference())).map(lambda k: tables.upper_reference()[k][1]),
        st.builds(
            lambda A, ks: upper.UpperParams(penalty=A, knots=tuple(repr(k) for k in ks)),
            st.fractions(min_value=0, max_value=5, max_denominator=16),
            st.lists(st.floats(min_value=0.01, max_value=2.5), min_size=1, max_size=5, unique=True).map(sorted),
        ),
    ),
    st.integers(min_value=0, max_value=10**6),
)
def test_maximize_matches_golden_section_oracle(digits, up, pick):
    # the Newton polish of a grid peak of |residual| against golden section on
    # the same bracket: no lower, and at the same local maximum
    peaks, ts = residual_peaks(up.penalty, up.knots)
    t0 = float(ts[peaks[pick % len(peaks)]])
    lo, hi = max(0.0, t0 - 2e-3), t0 + 2e-3
    ctx = PrecisionContext.make(digits)
    with ctx.workprec():
        f, slope = upper._modulus_and_slope(upper._piece_table(up)[0])
    r = maximize_scalar(f, slope, t0, lo, hi, ctx)
    want = golden_section_oracle(f, lo, hi, ctx)
    with ctx.workprec():
        assert r.value >= want.value - abs(want.value) * mp.mpf(10) ** (3 - digits)
        assert abs(r.meta["argmax"] - want.meta["argmax"]) <= mp.mpf(10) ** (-digits // 3)
    assert r.meta["evals"] <= 12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.floats(min_value=0.5, max_value=4.0))
def test_poly_exp_derivative_property(m, lam):
    # P'(u) == u^m e^{lam u} by central differences
    with mp.workdps(40):
        u = mp.mpf("-1.7")
        h = mp.mpf("1e-12")
        d = (poly_exp_antiderivative(m, lam, u + h) - poly_exp_antiderivative(m, lam, u - h)) / (2 * h)
        assert abs(d - u**m * mp.e ** (lam * u)) < mp.mpf("1e-18")
