import random

import mpmath as mp
import pytest

from fel import tables
from fel.closed_form import (
    closed_lower_bound,
    closed_lower_bound_first_branch,
    implied_constant,
    large_order_constant,
)
from oracles import TentParams, simple_lower_bound, tent_optimal, tent_reward, tent_reward_quadrature


def test_closed_lower_bound_quarter(ctx40):
    with ctx40.workprec():
        v = closed_lower_bound("0.25", ctx40)
        expect = mp.mpf("2.5") - mp.mpf("2.5") * mp.log(mp.mpf("2.2")) / mp.log(4)
        assert abs(v - expect) < 1e-30
        assert abs(float(v) - 1.0781208) < 1e-6


def test_closed_lower_bound_clamps_to_one(ctx40):
    with ctx40.workprec():
        # at penalty 1/2 the tent branch drops below 1: 3 - 3 log(5/3)/log 2
        branch = closed_lower_bound_first_branch("0.5", ctx40)
        assert abs(branch - (3 - 3 * mp.log(mp.mpf(5) / 3) / mp.log(2))) < 1e-30
        assert branch < 1
        assert closed_lower_bound("0.5", ctx40) == 1


def test_domain_errors(ctx40):
    for bad in ("0", "1", "-0.3", "1.7"):
        with pytest.raises(ValueError):
            closed_lower_bound(bad, ctx40)
        with pytest.raises(ValueError):
            simple_lower_bound(bad, ctx40)


def test_simple_lower_bound_values(ctx40):
    with ctx40.workprec():
        assert abs(simple_lower_bound(mp.mpf(1) / 9, ctx40) - 1) < 1e-30
        assert abs(simple_lower_bound(mp.mpf(1) / 27, ctx40) - mp.mpf(4) / 3) < 1e-30
        # at penalty 1/4 the simple variant is much weaker
        v = simple_lower_bound("0.25", ctx40)
        assert abs(float(v) - 0.4150375) < 1e-6
        assert v < closed_lower_bound("0.25", ctx40)


def test_simple_below_sharp_on_grid(ctx40):
    with ctx40.workprec():
        for i in range(1, 40):
            A = mp.mpf(i) / 40
            assert simple_lower_bound(A, ctx40) <= closed_lower_bound(A, ctx40) + mp.mpf("1e-30")


def test_tent_params_validation():
    with pytest.raises(ValueError):
        TentParams(epsilon="2", shift="0.6", penalty="0.25")  # shift > 1/eps
    with pytest.raises(ValueError):
        TentParams(epsilon="-1", shift="0", penalty="0.25")


def test_tent_limit_at_zero_penalty(ctx40):
    # narrow tent, no shift, no penalty: the reward approaches 2
    with ctx40.workprec():
        v = tent_reward(TentParams(epsilon="1e-6", shift="0", penalty="0"), ctx40)
        assert abs(v - 2) < 1e-5


def test_tent_optimal_matches_branch(ctx40):
    with ctx40.workprec():
        for A in ("0.25", "0.1", "0.7"):
            tp = tent_optimal(A, ctx40)
            assert 0 <= tp.shift <= 1 / tp.epsilon
            closed = tent_reward(tp, ctx40)
            branch = closed_lower_bound_first_branch(A, ctx40)
            assert abs(closed - branch) < 1e-12


def test_tent_optimal_special_width(ctx40):
    with ctx40.workprec():
        tp = tent_optimal(mp.e ** (-mp.pi), ctx40)
        assert abs(tp.epsilon - 1) < 1e-30


def test_tent_closed_vs_quadrature_random(ctx40):
    rng = random.Random(21)
    with ctx40.workprec():
        for _ in range(10):
            A = mp.mpf(repr(rng.uniform(0.05, 0.95)))
            eps = mp.mpf(repr(rng.uniform(0.3, 3.0)))
            c = mp.mpf(repr(rng.uniform(0.0, 1.0))) / eps
            tp = TentParams(epsilon=eps, shift=c, penalty=A)
            closed = tent_reward(tp, ctx40)
            quad = tent_reward_quadrature(tp, ctx40)
            assert abs(closed - quad) < 1e-10


def test_implied_constant_values(ctx40):
    with ctx40.workprec():
        assert implied_constant("1.14600", ctx40) < mp.mpf("0.7615")
        assert implied_constant("1.14731", ctx40) > mp.mpf("0.7596")
        assert implied_constant("1.06082", ctx40) < mp.mpf(8) / 9
        with pytest.raises(ValueError):
            implied_constant("0", ctx40)
        with pytest.raises(ValueError):
            implied_constant("-2", ctx40)


def test_implied_constant_decreasing(ctx40):
    with ctx40.workprec():
        vals = [implied_constant(str(b), ctx40) for b in (1.0, 1.1, 1.2, 1.3, 2.0)]
        for lo, hi in zip(vals[:-1], vals[1:]):
            assert hi < lo


def test_large_order_constant(ctx40):
    with pytest.raises(ValueError):
        large_order_constant(5, ctx40)
    with ctx40.workprec():
        # sharp variant is never weaker than the simple one
        for ell in range(6, 101):
            sharp = large_order_constant(ell, ctx40)
            simple = large_order_constant(ell, ctx40, simple=True)
            assert sharp <= simple + mp.mpf("1e-30")
        # both decrease toward 1/4, logarithmically slowly
        v6 = large_order_constant(6, ctx40)
        v6_mil = large_order_constant(10**6, ctx40)
        assert v6 > v6_mil > mp.mpf("0.25")


def test_large_order_rederivation(ctx40):
    # the sharp variant equals implied_constant of the tent branch at 1/(order-1)
    with ctx40.workprec():
        for ell in (7, 17, 1001):
            direct = large_order_constant(ell, ctx40)
            re_derived = implied_constant(
                closed_lower_bound_first_branch(mp.mpf(1) / (ell - 1), ctx40), ctx40
            )
            assert abs(direct - re_derived) < 1e-30


def test_formula_below_reference_bounds(ctx40):
    # generic closed-form lower bound never beats the dedicated searches
    with ctx40.workprec():
        for key in ("1/4", "1/3", "1/2"):
            lo_pub, _ = tables.interval(key)
            from fractions import Fraction

            A = Fraction(key)
            v = closed_lower_bound(mp.mpf(A.numerator) / A.denominator, ctx40)
            assert v <= mp.mpf(str(lo_pub))
