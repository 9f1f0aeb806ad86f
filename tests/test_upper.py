import json
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fel import cli, tables, upper
from fel.precision import PrecisionContext
from fel.upper import (
    UpperParams,
    _abel_numerator,
    _curvature_bound,
    _float_residual,
    _piece_table,
    _pieces,
    _residual_slope,
    curve_samples,
    sup_norm,
)
from oracles import certify_below, local_maxima, poly_exp_integral, residual, residual_np

PSI0 = UpperParams(penalty=Fraction(0), knots=())


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


def tail_majorant(up, t):
    """The decreasing bound on |residual(t')| for t' >= t that ``_tail_cut`` inverts."""
    return _piece_table(up)[2] / mp.sqrt(1 + 4 * mp.mpf(t) ** 2)


@pytest.fixture(scope="module")
def reference():
    return tables.upper_reference()


@pytest.fixture(scope="module")
def certified(reference, ctx40):
    return {k: sup_norm(up, ctx40) for k, (_, up) in reference.items()}


def test_params_validation():
    with pytest.raises(ValueError):
        UpperParams(penalty=Fraction(1), knots=("0.3", "0.2"))
    with pytest.raises(ValueError):
        UpperParams(penalty=Fraction(1), knots=("-0.1",))
    with pytest.raises(ValueError):
        UpperParams(penalty=Fraction(-1), knots=("0.1",))
    up = UpperParams(penalty="1/3", knots=("0.1", "0.2"))
    assert up.penalty == Fraction(1, 3)


def test_params_json_round_trip(reference):
    for _, up in reference.values():
        again = UpperParams.from_json(json.loads(json.dumps(up.to_json())))
        assert again == up
        assert [str(k) for k in again.knots] == [str(k) for k in up.knots]


def test_segment_transform_values(ctx40):
    with ctx40.workprec():
        # at t = 0 the transform integrates 2 pi e^{pi x}: 2(e^pi - 1)
        v = segment_transform(1, 0, 1, 0)
        assert abs(v - 2 * (mp.e**mp.pi - 1)) < 1e-30
        assert segment_transform(0, 0, 1, mp.mpf("0.37")) == 0
        with pytest.raises(ValueError):
            segment_transform(1, 0.5, 0.2, 0)


def test_segment_transform_matches_quadrature(ctx40):
    rng = random.Random(3)
    with ctx40.workprec():
        for _ in range(5):
            t = mp.mpf(repr(rng.uniform(-2, 2)))
            lo, hi = sorted((rng.uniform(0, 0.5), rng.uniform(0, 0.5)))
            if hi - lo < 1e-3:
                continue
            q = mp.quad(lambda x: mp.e ** (mp.pi * x) * mp.e ** (-2j * mp.pi * x * t), [lo, hi],
                        method="gauss-legendre")
            assert abs(segment_transform(1, lo, hi, t) - 2 * mp.pi * q) < 1e-25


def test_residual_psi_zero(ctx40):
    with ctx40.workprec():
        for t in (mp.mpf(0), mp.mpf("0.7"), mp.mpf(-3)):
            assert abs(residual(PSI0, t) - 2 / (1 - 2j * t)) < 1e-30


def test_residual_reference_at_zero(ctx40, reference):
    _, up = reference["1"]
    with ctx40.workprec():
        assert abs(abs(residual(up, 0)) - mp.mpf("1.1473077")) < 1e-6


@pytest.mark.parametrize("digits", [30, 40, 100])
def test_curvature_bound(digits, reference):
    # L2 bounds |residual''| (mp.diff of the reference at twice the digits) at
    # zero, negative and random t, and equals the antiderivative form of
    # poly_exp_integral to 10^(5 - digits) relative, also at the edge of the
    # float range, where L2 is about 1.7e305
    rng = random.Random(digits)
    ups = [up for _, up in reference.values()] + [UpperParams(penalty=0, knots=("0.1", "0.35", "0.5"))]
    edge = UpperParams(penalty=1, knots=("0.2", "218.904"))
    for up in ups + [edge]:
        with mp.workdps(digits):
            table, L2, _ = _piece_table(up)
            assert _curvature_bound(table) == L2
            ks, total = table.knots, 2 / mp.pi**3
            for n, cn in enumerate(table.levels):
                if cn != 0:
                    total += abs(cn) * poly_exp_integral(2, mp.pi, ks[n], ks[n + 1])
            assert abs(L2 - 8 * mp.pi**3 * total) <= mp.mpf(10) ** (5 - digits) * L2, up.knots
            ts = [mp.mpf(0), mp.mpf("-2.5")] + [mp.mpf(rng.uniform(-10, 10)) / 3 for _ in range(6)]
        if up is edge:
            continue
        with mp.workdps(2 * digits):
            for t in ts:
                assert abs(mp.diff(lambda s: residual(up, s), t, 2)) <= L2, (up.penalty, t)


@pytest.mark.parametrize("digits", [30, 40, 100])
def test_residual_slope_equals_numerical_derivatives(digits, reference):
    # (h, h', h''), h = |residual|^2, against the reference's modulus squared and
    # its mp.diff derivatives at twice the digits, at zero, negative and random t
    rng = random.Random(digits)
    ups = [up for _, up in reference.values()] + [UpperParams(penalty=0, knots=("0.1", "0.35", "0.5"))]
    for up in ups:
        with mp.workdps(digits):
            kernel = _residual_slope(_piece_table(up)[0])
            ts = [mp.mpf(0), mp.mpf("-2.5")] + [mp.mpf(rng.uniform(-10, 10)) / 3 for _ in range(6)]
            got = [[mp.make_mpf(x) for x in kernel(t._mpf_)] for t in ts]
        with mp.workdps(2 * digits):
            h = lambda s: abs(residual(up, s)) ** 2
            for t, g in zip(ts, got):
                for order, value in enumerate(g):
                    want = mp.diff(h, t, order)
                    assert abs(value - want) <= mp.mpf(10) ** (4 - digits) * (1 + abs(want)), (up.penalty, t, order)
        assert got[0][1] == 0, up.penalty  # |residual| is even: h'(0) = 0 exactly


def test_residual_hermitian_symmetry(ctx40, reference):
    _, up = reference["1/3"]
    rng = random.Random(9)
    with ctx40.workprec():
        for _ in range(10):
            t = mp.mpf(repr(rng.uniform(0, 8)))
            assert abs(abs(residual(up, -t)) - abs(residual(up, t))) < 1e-20


def test_residual_closed_form_vs_quadrature(ctx40, reference):
    _, up = reference["1/2"]
    rng = random.Random(4)
    with ctx40.workprec():
        ks = [mp.mpf(0)] + up.mp_knots()
        cs = up.coefficients()
        for _ in range(6):
            t = mp.mpf(repr(rng.uniform(-1.5, 1.5)))
            wave = lambda x: mp.e ** (mp.pi * x) * mp.e ** (-2j * mp.pi * x * t)
            quad = lambda lo, hi: 2 * mp.pi * mp.quad(wave, [lo, hi])
            # the mass dropped below -16 is e^{-16 pi}/pi ~ 4.9e-23
            total = quad(-16, 0) - mp.fsum(cn * quad(ks[n], ks[n + 1]) for n, cn in enumerate(cs))
            assert abs(total - residual(up, t)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=0, max_value=10, max_denominator=64),
    st.lists(st.floats(min_value=0.01, max_value=3.0), max_size=4).map(lambda gaps: np.cumsum(gaps).tolist()),
    st.floats(min_value=-300.0, max_value=300.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_float_residual_matches_mpmath(A, knots, row, offset):
    # the float kernel against the mpmath residual and its numerical derivative,
    # to float accuracy relative to the size of the weight's terms, on the
    # knots of test_upper_eval_hostile_knots (up to four gaps of up to 3); t
    # is a row plus a column offset, so the factored exponential is under test
    up = UpperParams(penalty=A, knots=tuple(knots))
    ts, val, der = (a[0, 0] for a in _float_residual(up, np.array([row]), np.array([offset])))
    assert ts == row + offset
    # the slope switch leaves N as it is
    dc2, _, d0 = _pieces(float(A), len(knots))
    Ts = np.array([knots], dtype=float)
    args = (d0, dc2 * np.exp(np.pi * Ts), -2j * np.pi * Ts, np.array([[row]]), np.array([[offset]]))
    assert _abel_numerator(*args, False)[0] == _abel_numerator(*args, True)[0]
    scale = 2 + 2 * (float(A) + 1) * sum(np.exp(np.pi * k) for k in knots)
    with mp.workdps(30):
        assert abs(complex(residual(up, ts)) - val) <= 1e-13 * scale
        d = complex(mp.diff(lambda s: residual(up, s), mp.mpf(ts)))
        assert abs(d - der) <= 1e-13 * scale * 2 * np.pi * (1 + max(knots, default=0))


def test_tail_majorant_psi_zero(ctx40):
    with ctx40.workprec():
        t = mp.mpf(2)
        assert abs(tail_majorant(PSI0, t) - 2 / mp.sqrt(1 + 4 * t * t)) < 1e-30


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0))
def test_tail_majorant_decreasing(t):
    up = tables.upper_reference()["1"][1]
    with mp.workdps(30):
        assert tail_majorant(up, 2 * t) < tail_majorant(up, t)


def test_tail_majorant_dominates_samples(reference):
    _, up = reference["1"]
    ts = np.linspace(0.5, 40, 4001)
    vals = np.abs(residual_np(up.penalty, up.knots, ts))
    with mp.workdps(30):
        for t, v in zip(ts[::100], vals[::100]):
            assert v <= float(tail_majorant(up, float(t))) + 1e-12


def test_sup_norm_psi_zero(ctx40):
    r = sup_norm(PSI0, ctx40)
    assert mp.isfinite(r.err)
    assert abs(r.value - 2) < 1e-12


def test_sup_norm_reference_values(ctx40, reference, certified):
    for key, (bound, _) in reference.items():
        r = certified[key]
        assert mp.isfinite(r.err), key
        assert abs(r.value - mp.mpf(str(bound))) < 1e-5, key


# sup_norm at 40 digits: the value and err that ``fel upper-eval --A k
# --digits 40`` prints (``cli._upper_keys``, which formats the value at its
# own precision), then the value to 25 digits at working precision, then the
# printed certified_upper_bound
PINNED_UPPER = {
    "1/4": ("1.335087886196560875153017", "1.0010324e-8", "1.335087886196560875153017",
            "1.335087896206885315740730"),
    "1/3": ("1.287803323080232987541055", "1.0007114e-8", "1.287803323080232987541055",
            "1.287803333087346620718686"),
    "1/2": ("1.230797838680213591977022", "1.0007423e-8", "1.230797838680213591977022",
            "1.230797848687636803194949"),
    "1": ("1.147307735672914145306888", "1.001171e-8", "1.147307735672914145306888",
          "1.147307745684623923712150"),
    "3": ("1.062392981791822085227474", "1.0017046e-8", "1.062392981791822085227474",
          "1.062392991808867948819124"),
}


# the grid's work at 40 digits: cell midpoints evaluated and the polished witness
PINNED_GRID = {"1/4": (2268, "0.0"), "1/3": (2556, "0.0"), "1/2": (2387, "1.60277523485"),
               "1": (4903, "0.0"), "3": (10194, "0.0")}


def test_sup_norm_pinned_digits(ctx40, certified):
    for key, (printed, err, value, upper_bound) in PINNED_UPPER.items():
        r = certified[key]
        j = cli._upper_keys(r)
        assert (j["value"], j["err"], j["certified_upper_bound"]) == (printed, err, upper_bound), key
        with ctx40.workprec():
            assert mp.nstr(r.value, 25) == value, key
        assert (r.meta["cells"], r.meta["witness_t"]) == PINNED_GRID[key], key


# evaluations of |residual| and of its slope by the witness polish of
# sup_norm at 40 digits: four peaks sit at t = 0, where the float witness
# already has slope 0
POLISH_EVALS = {"1/4": 2, "1/3": 2, "1/2": 5, "1": 2, "3": 2}


def test_sup_norm_polish_evaluations(ctx40, reference, monkeypatch):
    maximize, calls = upper.maximize_scalar, []
    counted = lambda g: lambda t: calls.append(t) or g(t)
    monkeypatch.setattr(upper, "maximize_scalar",
                        lambda f, slope, *a: maximize(counted(f), counted(slope), *a))
    for key, (_, up) in reference.items():
        calls.clear()
        r = sup_norm(up, ctx40)
        assert len(calls) == r.meta["polish_evals"] == POLISH_EVALS[key] <= 12, key


def test_residual_equals_segment_sum(ctx40, reference):
    # the shared knot exponentials change no bit of the piecewise sum
    rng = random.Random(17)
    with ctx40.workprec():
        for _, up in reference.values():
            ks = [0] + up.mp_knots()
            for _ in range(8):
                t = mp.mpf(repr(rng.uniform(-8, 8)))
                want = 2 / (1 - 2j * t)
                for n, cn in enumerate(up.coefficients()):
                    want -= segment_transform(cn, ks[n], ks[n + 1], t)
                assert residual(up, t) == want


@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(sorted(tables.upper_reference())),
    st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=5, unique=True).map(sorted),
)
def test_sup_norm_sound_random_knots(A, knots):
    # the certified sup against the peak of a dense float grid over the window,
    # re-evaluated in mpmath, on knot sets unlike the references.  The grid
    # peak may sit half a step from the true maximum, where |residual| is
    # lower by at most curvature * step^2 / 8.
    up = UpperParams(penalty=A, knots=tuple(repr(k) for k in knots))
    ctx = PrecisionContext(30)
    r = sup_norm(up, ctx)
    ts = np.linspace(0.0, r.meta["t_max"], 200_001)
    t_peak = ts[int(np.argmax(np.abs(residual_np(up.penalty, up.knots, ts))))]
    with ctx.workprec():
        peak = abs(residual(up, t_peak))
        miss = _piece_table(up)[1] * (ts[1] - ts[0]) ** 2 / 8
        assert peak <= r.value + r.err
        assert r.value <= peak + r.err + miss


def test_knots_at_the_edge_of_the_float_range(ctx40):
    # the range check refuses knots past 218.90425 at penalty 1 (the curvature
    # bound binds); just inside it the float grid raises no overflow or invalid
    inside = UpperParams(penalty=1, knots=("0.2", "218.904"))
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        r = sup_norm(inside, ctx40)
        assert certify_below(inside, 1.0, 1e299, ctx40)[0]
        assert local_maxima(inside, 0.0, 1.0, ctx40, samples=1000)
        assert len(curve_samples(inside, 0.0, 15.0, 50)) == 50
    assert mp.isfinite(r.value) and mp.isfinite(r.err)
    outside = UpperParams(penalty=1, knots=("0.2", "218.905"))
    for refused in (lambda: sup_norm(outside, ctx40), lambda: certify_below(outside, 1.0, 1e299, ctx40),
                    lambda: local_maxima(outside, 0.0, 1.0, ctx40, samples=1000),
                    lambda: curve_samples(outside, 0.0, 15.0, 50)):
        with pytest.raises(ValueError, match="take the float grid out of range"):
            refused()


def test_sup_norm_certificate_sound(ctx40, reference, certified):
    # a 2 000 001-point grid over [0, t_max] (step 9.7e-6 at 1/4, 1.28e-5 at 1)
    # never beats value+err
    for key in ("1/4", "1"):
        _, up = reference[key]
        r = certified[key]
        t_hi = r.meta["t_max"]
        ts = np.linspace(0.0, t_hi, 2_000_001)
        fine = float(np.abs(residual_np(up.penalty, up.knots, ts)).max())
        assert fine <= float(r.value + r.err), key


def test_local_maxima_clean_window(ctx40, reference):
    # decaying ripples of the reference residual beyond the plateau
    _, up = reference["1"]
    out = local_maxima(up, 4.0, 11.0, ctx40, samples=40_000)
    interior = [(t, v) for t, v in out if 4.0 + 1e-6 < float(t) < 11.0 - 1e-6]
    boundary = [(t, v) for t, v in out if (t, v) not in interior]
    ts = np.linspace(4.0, 11.0, 2_000_001)
    v = np.abs(residual_np(up.penalty, up.knots, ts))
    idx = np.where((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]))[0] + 1
    # dense-scan interior peaks match the refined interior list; the window
    # edge where the modulus is falling away is reported as a boundary point
    assert len(interior) == len(idx)
    for (t_ref, val_ref), i in zip(interior, idx):
        assert abs(float(t_ref) - ts[i]) < 1e-3
        assert abs(float(val_ref) - v[i]) < 1e-8
    assert all(abs(float(t) - 4.0) < 1e-6 for t, _ in boundary)


def test_local_maxima_actual_structure_a1(ctx40, reference):
    # with the shipped 7-digit knots the [0, 1.5] window holds exactly two
    # local maxima: the boundary plateau peak at 0 and a ripple near 0.9118
    # (s = t/pi = 0.29025, the ripple quoted by acceptance criterion 3b)
    _, up = reference["1"]
    out = local_maxima(up, 0.0, 1.5, ctx40)
    assert len(out) == 2
    assert abs(float(out[0][0]) - 0.0) < 1e-6
    assert abs(float(out[0][1]) - 1.1473077357) < 1e-8
    assert abs(float(out[1][0]) - 0.911840) < 1e-4


def test_certify_below_far_tail(ctx40, reference):
    _, up = reference["1"]
    ok, meta = certify_below(up, 4.6, 1.1, ctx40)
    assert ok
    bad, meta2 = certify_below(up, 1.5, 1.1, ctx40)
    assert not bad  # the plateau extends past 1.5 at this height
    assert meta2["witness_value"] >= 1.1


def test_curve_samples_shape(reference):
    _, up = reference["1"]
    rows = curve_samples(up, 0.0, 15.0, 50)
    assert len(rows) == 50
    t0, re0, ab0 = rows[0]
    with mp.workdps(30):
        z = residual(up, 0)
        assert abs(re0 - float(z.real)) < 1e-9
        assert abs(ab0 - float(abs(z))) < 1e-9
    with pytest.raises(ValueError):
        curve_samples(up, 0, 1, 0)


def test_bound_result_json(certified):
    j = cli._upper_keys(certified["1"])
    assert j["certified"] is True
    assert float(j["value"]) == pytest.approx(1.1473077, abs=1e-6)


def test_large_penalty_family_approaches_one():
    # constant-height weight on [0, 1/(2 pi A)] (in class for penalty A, with
    # transform (1 - e^{-ix/A})/(ix/A)): its residual sup tends to 1 from
    # above as the penalty grows, at rate ~ 1/(2A)
    for A in (20.0, 200.0, 2000.0):
        xs = np.linspace(-4000, 4000, 800_001)
        theta = xs / A
        with np.errstate(invalid="ignore", divide="ignore"):
            wt = np.where(theta == 0, 1.0, (1 - np.exp(-1j * theta)) / (1j * theta))
        sup = float(np.abs(2 / (1 - 2j * xs) - wt).max())
        assert 1 - 1e-9 <= sup <= 1 + 1.0 / A
