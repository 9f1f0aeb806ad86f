import json
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fel import lower, tables, upper
from fel.search import (
    SearchConfig,
    _fast_l1_norm,
    _fast_lower_value,
    optimize_lower,
    optimize_upper,
    praxis_minimize,
)
from fel.upper import fast_sup, residual_np


def fast_sup_oracle(A, knots):
    # the three-stage fast_sup before the factored form: each stage is one
    # residual_np call on an np.linspace grid, the local ones clipped at 0
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
    ts = np.linspace(0.0, t_max, max(int(t_max / 8e-3), 200) + 1)
    v = gabs(ts)
    step = ts[1] - ts[0]
    c = ts[np.argpartition(v, -10)[-10:]]
    fine = np.linspace(np.maximum(c - step, 0.0), c + step, 41, axis=1)
    fv = gabs(fine)
    c = fine[np.arange(c.size), np.argmax(fv, axis=1)]
    tiny = np.linspace(np.maximum(c - step / 20, 0.0), c + step / 20, 21, axis=1)
    return max(float(v.max()), float(fv.max()), float(gabs(tiny).max()))


def fast_lower_oracle(a, c, b, penalty):
    # the float lower reward before the circle form: the L^1 norm from 23
    # geomspace Gauss panels on [0, X] plus a compactified tail past X, the
    # masses from per-term antiderivatives of u^m e^(lam u)
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
    nodes, weights = np.polynomial.legendre.leggauss(64)

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


def random_knot_sets(seed, count):
    # (penalty, knots): 1-7 knots, gaps e^U(-6, 0.8), penalties 1/4 to 3
    rng = np.random.default_rng(seed)
    for _ in range(count):
        A = float(rng.choice([0.25, 1 / 3, 0.5, 1.0, 2.0, 3.0]))
        yield A, np.cumsum(np.exp(rng.uniform(-6.0, 0.8, int(rng.integers(1, 8)))))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)


def test_praxis_quadratic_bowl():
    cfg = SearchConfig(seed=1, budget=10_000)
    r = praxis_minimize(lambda x: float(((x - 1.0) ** 2).sum()), np.zeros(3), cfg)
    assert r.fun < 1e-12
    assert np.allclose(r.x, 1.0, atol=1e-5)
    assert not r.budget_exhausted


def test_praxis_rosenbrock():
    ros = lambda x: float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)
    cfg = SearchConfig(seed=1, budget=100_000)
    r = praxis_minimize(ros, np.array([-1.2, 1.0]), cfg)
    assert r.fun < 1e-6
    assert r.nevals <= 100_000


def test_praxis_deterministic():
    ros = lambda x: float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)
    cfg = SearchConfig(seed=5, budget=20_000)
    r1 = praxis_minimize(ros, np.array([-1.2, 1.0]), cfg)
    r2 = praxis_minimize(ros, np.array([-1.2, 1.0]), cfg)
    assert r1.fun == r2.fun and np.array_equal(r1.x, r2.x) and r1.nevals == r2.nevals


def test_praxis_budget_flag():
    cfg = SearchConfig(seed=1, budget=50)
    r = praxis_minimize(lambda x: float((x**2).sum()), np.ones(4) * 3, cfg)
    assert r.budget_exhausted
    assert r.nevals <= 50


def lower_references():
    # (key, params, then a, c, b and the penalty as floats) of the five shipped lower sets
    for key, (_, p) in tables.lower_reference().items():
        yield key, p, float(p.a), float(p.c), np.array([float(x) for x in p.b]), float(Fraction(key))


def test_fast_evaluators_match_certified(ctx40):
    from fel import upper

    for key, (_, up) in tables.upper_reference().items():
        fv = fast_sup(float(up.penalty), np.array([float(k) for k in up.knots]))
        cert = upper.sup_norm(up, ctx40)
        assert abs(fv - float(cert.value)) < 1e-6, key
    # the reward to 1e-8 and the circle-form L^1 norm to 1e-8 relative
    # (worst 3.3e-9 and 3.1e-9, both at penalty 3)
    for key, p, a, c, b, pen in lower_references():
        exact = lower.reward(p, key, ctx40)
        assert abs(_fast_lower_value(a, c, b, pen) - float(exact.value)) < 1e-8, key
        l1 = float(exact.meta["l1"].value)
        assert abs(_fast_l1_norm(b) - l1) < 1e-8 * l1, key


def test_fast_lower_equals_oracle():
    # the circle form agrees with the geomspace-panel evaluator to 5e-9
    # relative on the references (3.1e-9 at penalty 3, where Q_b nearly
    # vanishes on the circle; at most 1.2e-11 elsewhere)
    for key, _, a, c, b, pen in lower_references():
        want = fast_lower_oracle(a, c, b, pen)
        assert abs(_fast_lower_value(a, c, b, pen) - want) <= 5e-9 * abs(want), key


def test_fast_lower_hostile_first_coefficient(ctx30):
    # a tiny first coefficient: the old tail start sent X to about 1e100
    # (-266.15 for the first set, -1e9 with warnings for the second).  A
    # first coefficient d moves the reward by O(d), so the reward of the
    # set with b_1 = 0 is the reference at 30 digits
    for b, b0 in (([1e-200, 1.0, -3.0], ("0", "1", "-3")), ([1e-320, 1.0], ("0", "1"))):
        exact = lower.reward(lower.LowerParams(a=1, c="0.5", b=b0), "1", ctx30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fv = _fast_lower_value(1.0, 0.5, np.array(b), 1.0)
            l1 = _fast_l1_norm(np.array(b))
        assert abs(fv - float(exact.value)) < 1e-12, b
        assert abs(l1 - float(exact.meta["l1"].value)) < 1e-12, b
    assert abs(exact.meta["l1"].value - mp.mpf("0.25")) < 1e-28
    with mp.workdps(30):
        norm = lower.l1_norm(lower.LowerParams(a=1, c=0, b=("0", "1", "-3")), ctx30).value
        assert abs(norm - mp.mpf("0.47398291001309106224")) < 1e-20


def test_fast_lower_penalty_extension():
    # outside the box, on non-finite input and, without a warning, on
    # values that leave the float range, the reward is -1e9
    assert _fast_lower_value(-1.0, 0.0, np.array([1.0]), 1.0) == -1e9
    assert _fast_lower_value(1.0, 50.0, np.array([1.0]), 1.0) == -1e9
    assert _fast_lower_value(1.0, 0.0, np.array([np.nan]), 1.0) == -1e9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _fast_lower_value(1.0, 0.5, np.array([1e308, 1e308]), 1.0) == -1e9
        assert _fast_lower_value(1.0, 0.5, np.array([0.0, 0.0]), 1.0) == -1e9
        assert _fast_lower_value(1.0, 0.5, np.array([1e307, -1e307, 1e307]), 1.0) > -1e9


def test_optimize_lower_recovers_endpoint(ctx40, tmp_path):
    # single-coefficient family at infinite penalty: the optimum is exactly 1
    path = tmp_path / "transcript.jsonl"
    cfg = SearchConfig(seed=3, restarts=6, budget=30_000)
    params, bound = optimize_lower(lower.INF, 1, cfg, ctx40, transcript_path=str(path))
    assert abs(bound.value - 1) < 1e-6
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[-1]["kind"] == "lower-final"
    # incumbent improvements are monotone
    vals = [r["value"] for r in rows if r["kind"] == "lower"]
    assert vals == sorted(vals)


def test_optimize_lower_seeded_no_improvement(seeded_lower_polish, ctx40):
    # polishing the shipped reference must not beat it by more than 1e-4
    key = "1"
    pub, p = tables.lower_reference()[key]
    params, bound = seeded_lower_polish
    base = lower.reward(p, key, ctx40)
    improvement = float(bound.value - base.value)
    assert improvement <= 1e-4
    assert float(bound.value) >= float(base.value) - 1e-9  # a polish never loses


def test_optimize_lower_cold_start_penalty_three(ctx40):
    # recorded-seed cold start at penalty 3 clears the 1.05 sanity floor
    # (the shipped reference value is 1.06082)
    cfg = SearchConfig(seed=3, restarts=10, budget=60_000)
    _, bound = optimize_lower("3", 12, cfg, ctx40)
    assert float(bound.value) >= 1.05


def test_optimize_upper_zero_penalty(ctx40):
    params, bound = optimize_upper("0", SearchConfig(seed=0, restarts=1, budget=10), ctx40)
    assert params.knots == ()
    assert abs(bound.value - 2) < 1e-6


@pytest.mark.parametrize("knots0", [
    "shipped",  # the 7 penalty-1 knots against n_max = 2: it returned (), value 2
    [], [0.3, 0.2], [0.2, 0.2], [0.0, 0.2], [-0.1, 0.2], [math.nan], [0.1, math.inf],
])
def test_optimize_upper_refuses_bad_seed(ctx40, knots0):
    if knots0 == "shipped":
        knots0 = [float(k) for k in tables.upper_reference()["1"][1].knots]
    with pytest.raises(ValueError, match="knots0"):
        optimize_upper("1", SearchConfig(n_max=2, budget=200), ctx40, knots0=knots0)


@pytest.mark.parametrize("x0", [[1.0], [1.0, 0.0, 0.5, 2.0], [1.0, 0.0], [[1.0, 0.0, 0.5]],
                                [math.nan, 0.0, 0.5]])
def test_optimize_lower_refuses_bad_seed(ctx40, x0):
    # one coefficient: x0 is (b_1, log a, c)
    with pytest.raises(ValueError, match="x0"):
        optimize_lower("1", 1, SearchConfig(restarts=1, budget=200), ctx40, x0=x0)


def test_optimize_upper_deterministic_transcripts(ctx40, tmp_path):
    cfg = SearchConfig(seed=9, n_max=2, restarts=2, budget=3_000)
    p1, b1 = optimize_upper("1", cfg, ctx40, transcript_path=str(tmp_path / "a.jsonl"))
    p2, b2 = optimize_upper("1", cfg, ctx40, transcript_path=str(tmp_path / "b.jsonl"))
    assert p1 == p2
    assert mp.mpf(b1.value) == mp.mpf(b2.value)
    assert (tmp_path / "a.jsonl").read_text() == (tmp_path / "b.jsonl").read_text()
    # incumbent trajectory is monotone non-increasing
    vals = [json.loads(l)["value"] for l in (tmp_path / "a.jsonl").read_text().splitlines()
            if json.loads(l)["kind"] == "upper"]
    assert vals == sorted(vals, reverse=True)


def test_optimize_upper_pinned_transcript(ctx40, tmp_path):
    # the float search and its certification reproduce these floats exactly;
    # any change to the float residual's order of operations shows here
    cfg = SearchConfig(seed=9, n_max=2, restarts=2, budget=3_000)
    path = tmp_path / "t.jsonl"
    optimize_upper("1", cfg, ctx40, transcript_path=str(path))
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert rows == [
        {"kind": "upper", "n": 0, "value": 2.0},
        {"kind": "upper", "n": 1, "value": 1.1673535082417554, "evals_used": 126},
        {"kind": "upper", "n": 2, "value": 1.1517581223248667, "evals_used": 594},
        {"kind": "upper-final", "value": 1.1517581223272249, "err": 1.0002705524267933e-08,
         "knots": ["0.1388884940903948", "0.1632217403675939"]},
    ]


def test_fast_sup_pinned_references():
    # the float sup estimate on the shipped knot sets, exact to the last bit
    pinned = {"1/4": 1.3350878861965594, "1/3": 1.2878033230802322,
              "1/2": 1.2307978386750966, "1": 1.147307735672915,
              "3": 1.0623929817918274}
    for key, (_, up) in tables.upper_reference().items():
        fv = fast_sup(float(up.penalty), np.array([float(k) for k in up.knots]))
        assert fv == pinned[key], key


# fast_sup on random_knot_sets(8, 12), exact to the last bit
RANDOM_KNOT_PINS = [13457.2314207451, 1.3947165793720488, 14.712104242104012,
                    4.059795036249843, 40.52617046206601, 2.1472896193707074,
                    2.0358947842557935, 1.4105578804502832, 17246.030806774703,
                    1047.5186705331384, 3.5707127236684233, 5.3228416489344585]


def test_fast_sup_pinned_random_knots():
    # seeded random knot sets: the float sup estimate is exact to the last bit
    for want, (A, knots) in zip(RANDOM_KNOT_PINS, random_knot_sets(8, len(RANDOM_KNOT_PINS))):
        assert fast_sup(A, knots) == want, (A, knots)


def test_fast_sup_equals_oracle():
    # the factored form agrees with the residual_np stages to 1e-12 relative
    refs = [(float(up.penalty), np.array([float(k) for k in up.knots]))
            for _, up in tables.upper_reference().values()]
    for A, knots in refs + list(random_knot_sets(16, 250)):
        want = fast_sup_oracle(A, knots)
        assert abs(fast_sup(A, knots) - want) <= 1e-12 * want, (A, knots)


def test_fast_sup_invalid_knots():
    # no knots is the bare exponential, sup 2 at t = 0; knot vectors that
    # are non-increasing, start at 0 or end past 30 are penalised, and so,
    # without a warning, are values that leave the float range
    assert fast_sup(1.0, np.array([])) == 2.0
    for knots in ([0.5, 0.5], [0.5, 0.4], [0.0, 0.5], [-0.1, 0.5], [0.5, 30.5]):
        assert fast_sup(1.0, np.array(knots)) == 1e9, knots
    assert fast_sup(1.0, np.array([0.5, 30.0])) != 1e9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fast_sup(1e308, np.array([])) == 2.0
        assert fast_sup(1e308, np.array([0.1, 0.2])) == 1e9
        assert fast_sup(math.inf, np.array([0.1])) == 1e9
        # NaN knots pass the ordering checks (NaN compares false) and end in
        # a non-finite g0; infinite ones fail the checks: all get 1e9, quietly
        for knots in ([math.nan], [math.nan, 0.5], [0.1, math.nan], [0.1, math.inf],
                      [-math.inf, 0.1]):
            assert fast_sup(1.0, np.array(knots)) == 1e9, knots


@pytest.mark.parametrize("stage", [0, 1, 2])
def test_fast_sup_nan_in_any_stage(monkeypatch, stage):
    # a NaN in the coarse, fine or tiny stage makes the estimate 1e9: the
    # final max propagates NaN whichever stage it comes from
    real, calls = upper._stage, []

    def poisoned(*args):
        t, v = real(*args)
        if len(calls) == stage:
            v[0, 0] = math.nan
        calls.append(stage)
        return t, v

    monkeypatch.setattr(upper, "_stage", poisoned)
    assert fast_sup(1.0, np.array([0.15, 0.21])) == 1e9
    assert len(calls) == 3


def test_fast_sup_piece_table_cache():
    # the per-(A, n) piece tables are shared and read-only; calls in reverse
    # order, penalties and knot counts interleaved, still give the pins of
    # test_fast_sup_pinned_random_knots (a table keyed on n alone would not)
    sets = list(random_knot_sets(8, len(RANDOM_KNOT_PINS)))
    assert len({(A, k.size) for A, k in sets}) > len({k.size for _, k in sets})
    upper._pieces.cache_clear()
    for want, (A, knots) in reversed(list(zip(RANDOM_KNOT_PINS, sets))):
        assert fast_sup(A, knots) == want, (A, knots)
    for A, knots in sets:
        for arr in upper._pieces(A, knots.size)[:2]:
            assert not arr.flags.writeable
    assert upper._pieces(1.0, 0)[2] == 2.0


def test_optimize_lower_pinned_transcript(ctx40, tmp_path):
    # the float lower objective reproduces these floats exactly; any change
    # to the rounding of its circle-form norm or its masses shows here; the
    # final err is the mpmath reward's radius, which moves with the L^1
    # quadrature's error estimate
    cfg = SearchConfig(seed=4, restarts=2, budget=800)
    path = tmp_path / "t.jsonl"
    optimize_lower("1", 3, cfg, ctx40, transcript_path=str(path))
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert rows == [
        {"kind": "lower", "restart": 0, "value": 1.0792990301987424, "nevals": 400},
        {"kind": "lower", "restart": 1, "value": 1.1144687602137529, "nevals": 400},
        {"kind": "lower-final", "value": 1.1144687602137517, "err": 2.2290574413043325e-34},
    ]
