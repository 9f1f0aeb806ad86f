import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from fel import lower, tables
from fel.lower import (
    INF,
    DegenerateError,
    LowerParams,
    NotInClassError,
    curve_samples,
    l1_norm,
    modulus,
    reward,
    spectrum,
)
from fel.precision import (
    PrecisionContext,
    integrate_finite,
    isolate_sign_changes,
    odd_poly_eval,
    poly_exp_integral,
)

CANON = LowerParams(a="1", c="0", b=("-2",))


@pytest.fixture(scope="module")
def reference():
    return tables.lower_reference()


def test_params_validation():
    with pytest.raises(ValueError):
        LowerParams(a="0", c="0", b=("1",))
    with pytest.raises(ValueError):
        LowerParams(a="1", c="0", b=("0", "0"))
    with pytest.raises(ValueError):
        LowerParams(a="1", c="0", b=())


def test_params_json_round_trip(reference):
    for _, p in reference.values():
        text = json.dumps(p.to_json())
        assert LowerParams.from_json(json.loads(text)) == p
        # decimal strings survive verbatim
        assert json.loads(text)["a"] == str(p.a)


def test_spectrum_canonical(ctx40):
    with ctx40.workprec():
        v = spectrum(CANON, -1)
        assert abs(v - 2 * mp.pi * mp.e ** (-mp.pi)) < 1e-30
        assert spectrum(CANON, 1) == 0  # outside the support
        assert spectrum(CANON, mp.mpf("0.1")) == 0


def test_spectrum_reference_at_zero(ctx40, reference):
    _, p = reference["1"]
    with ctx40.workprec():
        # t = 0 evaluates the shape polynomial at -c/a, a finite negative argument
        u = -mp.mpf(str(p.c)) / mp.mpf(str(p.a))
        v = spectrum(p, 0)
        assert mp.isfinite(v) and v != 0
        assert u < 0


def test_modulus_canonical(ctx40):
    with ctx40.workprec():
        for x in (mp.mpf("0.3"), mp.mpf("-1.7"), mp.mpf(4)):
            expect = 2 / (mp.pi * (1 + 4 * x * x))
            assert abs(modulus(CANON, x) - expect) < 1e-30


def test_modulus_at_origin(ctx40, reference):
    _, p = reference["3"]
    with ctx40.workprec():
        a, _, bs = p.mp_values()
        assert abs(modulus(p, 0) - (a / mp.pi) * abs(mp.fsum(bs))) < 1e-30


def test_modulus_matches_inverse_transform(ctx30, reference):
    # |f(x)| agrees with direct numerical inversion of the profile, for the
    # reference sets and for random parameter draws
    rng = random.Random(11)
    pool = [reference["1/2"][1], reference["1"][1]]
    for _ in range(8):
        n = rng.randrange(1, 5)
        pool.append(LowerParams(
            a=str(round(rng.uniform(0.3, 1.8), 3)),
            c=str(round(rng.uniform(0.0, 1.2), 3)),
            b=tuple(str(round(rng.uniform(-3, 3), 4)) for _ in range(n)),
        ))
    for p in pool:
        with ctx30.workprec():
            a, c, _ = p.mp_values()
            t_lo = float((a * (-60) + c) / mp.pi)
            t_hi = float(c / mp.pi)
        for _ in range(2):
            x = mp.mpf(repr(rng.uniform(-3, 3)))
            inv = integrate_finite(
                lambda t: spectrum(p, t) * mp.e ** (2j * mp.pi * x * t), t_lo, t_hi, ctx30
            )
            with ctx30.workprec():
                assert abs(abs(inv.value) - modulus(p, x)) < 1e-10


def test_l1_norm_canonical(ctx40):
    r = l1_norm(CANON, ctx40)
    assert abs(r.value - 1) <= r.err + 1e-25


# quadrature panels of the circle integral at 40 digits: a change to the
# panel test or to the integrand's rounding that costs panels shows here
L1_PANELS = {"1/4": 27, "1/3": 27, "1/2": 21, "1": 29, "3": 39}


def test_l1_norm_reference_normalization(ctx40, reference, monkeypatch):
    kernel = lower._circle_kernel
    calls = []

    def counting(bs, shift, P):
        at, K = kernel(bs, shift, P)
        return (lambda tau: calls.append(tau) or at(tau)), K

    monkeypatch.setattr(lower, "_circle_kernel", counting)
    for key, (_, p) in reference.items():
        calls.clear()
        r = l1_norm(p, ctx40)
        assert abs(r.value - 1) < 1e-3, key
        assert r.err < 1e-31, key
        # one integral over [0, 1]: 24 + 48 * panels evaluations
        assert len(calls) == 24 + 48 * L1_PANELS[key], key


HOSTILE_B = [("1e-200",), ("1e-30", "1"), ("1e-200", "1", "-3")]


def test_l1_norm_hostile_first_coefficient(ctx40):
    # no tail, so no dominated-tail search: a tiny first coefficient is
    # legal, and moves the norm of b = (0, 1) and (0, 1, -3) by about itself
    with ctx40.workprec():
        for b, want in zip(HOSTILE_B[1:], ("0.25", "0.47398291001309106224")):
            r = l1_norm(LowerParams(a="0.25", c="0.6", b=b), ctx40)
            assert abs(r.value - mp.mpf(want)) < 1e-20 and r.err < 1e-31, b


@pytest.fixture(scope="module")
def circle_kernels(reference):
    """(b, shift) of every kernel that l1_norm builds at 30 digits for the
    references and the hostile first coefficients."""
    built = []
    kernel = lower._circle_kernel
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(lower, "_circle_kernel", lambda bs, shift, P: built.append((bs, shift)) or kernel(bs, shift, P))
        ctx = PrecisionContext.make(30)
        for p in [p for _, p in reference.values()] + [LowerParams(a="1", c="0.5", b=b) for b in HOSTILE_B]:
            l1_norm(p, ctx)
    return built


@pytest.mark.parametrize("digits", [30, 40, 100])
@settings(max_examples=25, deadline=None)
@given(tau=st.floats(min_value=0.0, max_value=1.0))
@example(tau=0.0)
@example(tau=1.0)
@example(tau=5e-324)
def test_circle_kernel_within_its_bound(circle_kernels, digits, tau):
    # the fixed-point integrand at the P-bit int t against
    # |Q_b(w)| / (1 + tau^2) at tau = t 2^-P by mpmath at twice the digits,
    # from the rational form of w: within the stated K 2^-P, which is
    # below 10^-digits
    P = mp.libmp.dps_to_prec(digits) + lower._GUARD_BITS
    t = math.floor(Fraction(tau) * 2**P)
    assert len(circle_kernels) == 11  # each hostile norm is below 1/sqrt(2): rescaled once
    for bs, shift in circle_kernels:
        kernel, K = lower._circle_kernel(bs, shift, P)
        with mp.workdps(2 * digits):
            exact = _circle_integrand(bs, shift, mp.ldexp(t, -P))
            bound = mp.ldexp(K, -P)
            assert abs(mp.ldexp(kernel(t), -P) - exact) <= bound, (bs, shift)
            assert bound < mp.mpf(10) ** -digits


def _circle_integrand(bs, shift, t):
    """|Q_b(w)| / (1 + tau^2) of b scaled by 2^shift, on mpmath objects at
    the working precision, from the rational form of w."""
    w = (1 - t * t) ** 2 * (1 - 1j * t) ** 4 / (1 + t * t) ** 4
    acc = 0
    for bn in reversed(bs):
        acc = acc * w + mp.mpf(bn.numerator) / bn.denominator
    return mp.ldexp(abs(acc), shift) / (1 + t * t)


def _sign_changes(p, lo, ctx):
    """The profile's sign changes in u on (lo, 0), isolated exactly."""
    return isolate_sign_changes(lower._exact_odd_coeffs(p), lo, 0, ctx)


def test_sign_partition_single_sign(ctx40):
    assert _sign_changes(CANON, -40, ctx40) == ()
    with ctx40.workprec():
        coeffs = lower._odd_coeffs(CANON.mp_values()[2])
        assert odd_poly_eval(coeffs, -20) > 0  # profile is positive on its support


def test_sign_partition_factored(ctx40):
    # b = (1, -6): shape u e^u - u^3 e^u = u(1-u^2) e^u, root at u = -1
    p = LowerParams(a="1", c="0", b=("1", "-6"))
    roots = _sign_changes(p, -40, ctx40)
    with ctx40.workprec():
        assert len(roots) == 1
        assert abs(roots[0] - (-1)) < 1e-25


def test_sign_partition_matches_dense_scan(ctx40, reference):
    # root count of the reference shape polynomial agrees with a dense scan
    import numpy as np

    _, p = reference["1"]
    roots = _sign_changes(p, -(40 + abs(Fraction(p.c)) / Fraction(p.a)), ctx40)
    a, c = float(p.a), float(p.c)
    us = np.linspace(-40 - abs(c) / a, 0, 200_001)
    coeffs = [float(bn) / float(mp.factorial(2 * k + 1)) for k, bn in enumerate(p.mp_values()[2])]
    vals = np.zeros_like(us)
    for k, ck in enumerate(coeffs):
        vals += ck * us ** (2 * k + 1)
    flips = int(((vals[:-1] * vals[1:]) < 0).sum())
    assert len(roots) == flips


# random parameter sets for the sign and mass oracles: N from 1 to 12,
# coefficients up to 1.5e3, translations of both signs
random_params = st.builds(
    lambda a, c, b: LowerParams(a=a, c=c, b=tuple(b)),
    st.decimals("0.05", "1", places=3),
    st.decimals("-0.5", "3", places=3),
    st.lists(st.decimals("-1500", "1500", places=4), min_size=1, max_size=12).filter(any),
)


def _partition(p, ctx):
    """lower._sign_intervals on the positive axis, at the working precision."""
    a, c, _ = p.mp_values()
    return lower._sign_intervals(p, -Fraction(p.c) / Fraction(p.a), -c / a, ctx)


def _check_signs(p, ctx):
    # the signs from the roots against the polynomial at each interval's
    # midpoint, the rule they replace
    with ctx.workprec():
        edges, signs = _partition(p, ctx)
        coeffs = lower._odd_coeffs(p.mp_values()[2])
        for u1, u2, sign in zip(edges, edges[1:], signs):
            if u2 > u1:
                v = odd_poly_eval(coeffs, (u1 + u2) / 2)
                assert sign == (v > 0) - (v < 0), (p, u1, u2)


def test_sign_intervals_match_midpoint_signs(ctx40, reference):
    cases = [p for _, p in reference.values()] + [_close_root_params(q) for q in CLOSE_ROOT_PAIRS]
    for p in cases:
        _check_signs(p, ctx40)


@settings(max_examples=60, deadline=None)
@given(p=random_params)
def test_sign_intervals_match_midpoint_signs_random(ctx40, p):
    _check_signs(p, ctx40)


def _check_masses(p, digits):
    # head, pos_mass and neg_mass from the antiderivative polynomial against
    # the sum of closed-form monomial integrals (precision.poly_exp_integral)
    # at twice the digits, on the same edges and with midpoint signs: within
    # the reward's round_eps times the magnitudes of both sums' terms
    ctx = PrecisionContext.make(digits)
    with ctx.workprec():
        got = lower._masses(p, ctx)
        a, c, _ = p.mp_values()
        edges, _ = _partition(p, ctx) if c > 0 else ([min(mp.mpf(0), -c / a)], [])
        round_eps = mp.mpf(10) ** (-(digits - 6))
    R = lower._mass_poly(p)
    with mp.workdps(2 * digits):
        a, c, bs = p.mp_values()
        lam = 1 + a
        pref = (a / mp.pi) * mp.e**c
        coeffs = lower._odd_coeffs(bs)
        mag = pref * mp.fsum(
            mp.e ** (lam * x) * mp.fsum(abs(r.numerator * x**i / r.denominator) for i, r in enumerate(R))
            for x in edges
        )

        def piece(u1, u2):
            nonlocal mag
            terms = [pref * ck * poly_exp_integral(2 * k + 1, lam, u1, u2) for k, ck in enumerate(coeffs)]
            mag += mp.fsum(map(abs, terms))
            return mp.fsum(terms)

        want = [piece(-mp.inf, edges[0]), mp.mpf(0), mp.mpf(0)]
        for u1, u2 in zip(edges, edges[1:]):
            if u2 > u1:
                v = piece(u1, u2)
                if odd_poly_eval(coeffs, (u1 + u2) / 2) >= 0:
                    want[1] += v
                else:
                    want[2] -= v
        want[1:] = (max(w, mp.mpf(0)) for w in want[1:])  # the masses are clipped at 0
        for g, w in zip(got, want):
            assert abs(g - w) <= round_eps * mag, (p, g, w)


@pytest.mark.parametrize("digits", [30, 40, 100])
def test_masses_equal_poly_exp_oracle(digits, reference):
    cases = [p for _, p in reference.values()] + [_close_root_params(q) for q in CLOSE_ROOT_PAIRS]
    for p in cases:
        _check_masses(p, digits)


@pytest.mark.parametrize("digits", [30, 40, 100])
@settings(max_examples=20, deadline=None)
@given(p=random_params)
def test_masses_equal_poly_exp_oracle_random(digits, p):
    _check_masses(p, digits)


def test_reward_endpoint(ctx40):
    r = reward(CANON, INF, ctx40)
    assert abs(r.value - 1) < 1e-12


def test_reward_reference_values(ctx40, reference):
    for key, (bound, p) in reference.items():
        r = reward(p, key, ctx40)
        assert r.value >= mp.mpf(str(bound)) - mp.mpf("1e-5"), key


def test_reward_penalty_at_working_precision(ctx40, reference):
    # the reward is affine in the penalty, so R(1/3) = (R(0) + 2 R(1/2)) / 3
    # to within the radii; a penalty rounded to a double misses by ~7.5e-18
    _, p = reference["1/3"]
    r0, r13, r12 = (reward(p, q, ctx40) for q in ("0", "1/3", "1/2"))
    with ctx40.workprec():
        gap = abs(r13.value - (r0.value + 2 * r12.value) / 3)
        assert gap <= r0.err + r13.err + r12.err


CLOSE_ROOT_PAIRS = [("1", "1.00001"), ("1.3", "1.30001")]


def _close_root_params(pair):
    """g(u) = -u (u^2 - r1^2)(u^2 - r2^2), a = 1, c = 2.4: two sign changes
    1e-5 apart on the positive axis (u in (-2.4, 0))."""
    s1, s2 = (Decimal(r) ** 2 for r in pair)
    return LowerParams(a="1", c="2.4", b=(-(s1 * s2), 6 * (s1 + s2), Decimal(-120)))


@pytest.mark.parametrize("pair", CLOSE_ROOT_PAIRS)
@pytest.mark.parametrize("penalty", ["1/2", "3"])
def test_reward_close_root_pair_matches_exact_roots(ctx40, pair, penalty):
    # the certified reward must agree with the one integrated between the
    # known roots
    r1, r2 = (Decimal(r) for r in pair)
    s1, s2 = r1 * r1, r2 * r2
    p = _close_root_params(pair)
    res = reward(p, penalty, ctx40)
    with mp.workdps(60):
        R1, R2 = mp.mpf(str(s1)), mp.mpf(str(s2))
        A = mp.mpf(Fraction(penalty).numerator) / Fraction(penalty).denominator
        f = lambda u: -u * (u * u - R1) * (u * u - R2) * mp.e ** (2 * u)
        edges = [mp.mpf("-2.4"), -mp.mpf(str(r2)), -mp.mpf(str(r1)), mp.mpf(0)]
        num = mp.quad(f, [-mp.inf, edges[0]])
        for x1, x2 in zip(edges[:-1], edges[1:]):
            mass = mp.quad(f, [x1, x2])
            num -= -mass if f((x1 + x2) / 2) < 0 else A * mass
        pref = mp.e ** mp.mpf("2.4") / mp.pi  # (a / pi) e^c
        exact = 2 * mp.pi * pref * num / res.meta["l1"].value
        assert abs(res.value - exact) <= res.err


def test_reward_not_in_class(ctx40):
    # positive profile mass on the positive axis is rejected at infinite penalty
    # the same profile scaled down is held to the same bar
    for b in ("-2", "-2e-200"):
        with pytest.raises(NotInClassError):
            reward(LowerParams(a="1", c="1", b=(b,)), INF, ctx40)


def test_reward_scale_invariance(ctx40, reference):
    _, p = reference["1/2"]
    scaled = LowerParams(a=p.a, c=p.c, b=tuple(3 * x for x in p.b))
    r1 = reward(p, "1/2", ctx40)
    r2 = reward(scaled, "1/2", ctx40)
    assert abs(r1.value - r2.value) < 1e-25


def test_reward_tiny_coefficients(ctx40):
    # the reward does not depend on the scale of b, so b = 1e-200 is legal
    # and gives the reward of b = 1 with the same radius (the degeneracy
    # check and the L^1 accuracy are relative)
    one = reward(LowerParams(a="1", c="0.5", b=("1",)), "1", ctx40)
    tiny = reward(LowerParams(a="1", c="0.5", b=("1e-200",)), "1", ctx40)
    with ctx40.workprec():
        assert abs(one.value - mp.mpf("-1.64872127070012814")) < 1e-17
        assert abs(tiny.value - one.value) <= tiny.err + one.err
        assert abs(tiny.err / one.err - 1) < 1e-6


def test_reward_monotone_in_penalty(ctx40):
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 5)
        b = tuple(str(round(rng.uniform(-3, 3), 4)) for _ in range(n))
        if all(float(x) == 0 for x in b):
            continue
        p = LowerParams(a=str(round(rng.uniform(0.2, 2.0), 3)),
                        c=str(round(rng.uniform(0.0, 1.5), 3)), b=b)
        vals = [reward(p, q, ctx40).value for q in ("0", "1/2", "1", "3", "10")]
        with ctx40.workprec():
            for lo, hi in zip(vals[:-1], vals[1:]):
                assert hi - lo <= mp.mpf("1e-25")


def test_reward_exact_vs_quadrature(ctx40, reference):
    # the closed-form numerator integrals match direct quadrature
    _, p = reference["1"]
    r = reward(p, "1", ctx40)
    with ctx40.workprec():
        c = mp.mpf(str(p.c))
        hi = c / mp.pi
    neg = integrate_finite(lambda t: spectrum(p, t) * mp.e ** (mp.pi * t), -30, 0, ctx40)
    plus = integrate_finite(lambda t: max(spectrum(p, t), mp.mpf(0)) * mp.e ** (mp.pi * t), 0, hi, ctx40)
    minus = integrate_finite(lambda t: max(-spectrum(p, t), mp.mpf(0)) * mp.e ** (mp.pi * t), 0, hi, ctx40)
    l1 = l1_norm(p, ctx40)
    with ctx40.workprec():
        approx = 2 * mp.pi * (neg.value - minus.value - plus.value) / l1.value
        assert abs(approx - r.value) < 1e-12


def test_degenerate_rejected(ctx40):
    with pytest.raises((DegenerateError, ValueError)):
        reward(LowerParams(a="1", c="0", b=("0", "0")), "1", ctx40)


def test_curve_samples_shape(reference):
    _, p = reference["1"]
    rows = curve_samples(p, -1.5, 0.5, 33)
    assert len(rows) == 33
    assert rows[0][0] == -1.5 and rows[-1][0] == 0.5
    # outside the support the profile vanishes
    assert curve_samples(p, 1.0, 2.0, 5) == [(1.0 + 0.25 * i, 0.0) for i in range(5)]
    with pytest.raises(ValueError):
        curve_samples(p, 0, 1, 0)
    with mp.workdps(30):  # the samples are the profile at 30 digits
        assert rows == [(t, float(spectrum(p, t))) for t, _ in rows]


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_reward_below_any_upper_bound(x):
    # weak duality: any family member's reward at penalty 1 stays below the
    # certified upper value for penalty 1
    p = LowerParams(a="0.5", c="0.5", b=(str(round(-2 + x, 6)), str(round(x, 6))))
    from fel.precision import PrecisionContext

    ctx = PrecisionContext.make(30)
    r = reward(p, "1", ctx)
    assert r.value <= 1.14731 + 1e-6
