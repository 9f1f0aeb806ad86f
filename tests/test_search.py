import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fel import lower, tables
from fel.search import (
    SearchConfig,
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


def test_fast_evaluators_match_certified(ctx40):
    from fel import upper

    for key, (_, up) in tables.upper_reference().items():
        fv = fast_sup(float(up.penalty), np.array([float(k) for k in up.knots]))
        cert = upper.sup_norm(up, ctx40)
        assert abs(fv - float(cert.value)) < 1e-6, key
    for key in ("1/4", "1"):
        from fractions import Fraction

        _, p = tables.lower_reference()[key]
        fv = _fast_lower_value(float(p.a), float(p.c), np.array([float(x) for x in p.b]),
                               float(Fraction(key)))
        exact = lower.reward(p, key, ctx40)
        assert abs(fv - float(exact.value)) < 1e-6, key


def test_fast_lower_penalty_extension():
    assert _fast_lower_value(-1.0, 0.0, np.array([1.0]), 1.0) == -1e9
    assert _fast_lower_value(1.0, 50.0, np.array([1.0]), 1.0) == -1e9
    assert _fast_lower_value(1.0, 0.0, np.array([np.nan]), 1.0) == -1e9


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


def test_fast_sup_pinned_random_knots():
    # seeded random knot sets: the float sup estimate is exact to the last bit
    pinned = [13457.2314207451, 1.3947165793720488, 14.712104242104012,
              4.059795036249843, 40.52617046206601, 2.1472896193707074,
              2.0358947842557935, 1.4105578804502832, 17246.030806774703,
              1047.5186705331384, 3.5707127236684233, 5.3228416489344585]
    for want, (A, knots) in zip(pinned, random_knot_sets(8, len(pinned))):
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


def test_optimize_lower_pinned_transcript(ctx40, tmp_path):
    # the float lower objective reproduces these floats exactly; any change
    # to the rounding of its head or tail integral shows here; the final
    # err is the mpmath reward's radius, which moves with the L^1
    # quadrature's error estimate
    cfg = SearchConfig(seed=4, restarts=2, budget=800)
    path = tmp_path / "t.jsonl"
    optimize_lower("1", 3, cfg, ctx40, transcript_path=str(path))
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert rows == [
        {"kind": "lower", "restart": 0, "value": 1.0792990321351725, "nevals": 400},
        {"kind": "lower", "restart": 1, "value": 1.1144687598003362, "nevals": 400},
        {"kind": "lower-final", "value": 1.1144687598003353, "err": 2.2290491173188145e-34},
    ]
