import io
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import from_int, from_man_exp, from_str, mpf_add, mpf_div, to_str

import oracles
from fel import nt


def jacobi(n: int, m: int) -> int:
    """Jacobi symbol (n|m) for odd positive m, via binary reciprocity: the
    scalar oracle for the block kernel ``nt._least_prime_with_symbol``."""
    if m <= 0 or m % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    n %= m
    result = 1
    while n:
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                result = -result
        n, m = m, n
        if n % 4 == 3 and m % 4 == 3:
            result = -result
        n %= m
    return result if m == 1 else 0


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert oracles.is_prime_u64(n) == (n in primes)
    assert oracles.is_prime_u64(2**61 - 1)
    assert not oracles.is_prime_u64(2**62 - 1)


def test_is_prime_agrees_with_sieve():
    sieved = set(nt.primes_upto(200_000).tolist())
    assert all(oracles.is_prime_u64(n) == (n in sieved) for n in range(200_000))


def test_is_prime_small_witness_limit():
    # 151 * 751 * 28351 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert 151 * 751 * 28351 == 3_215_031_751
    assert not oracles.is_prime_u64(3_215_031_751)
    sympy = pytest.importorskip("sympy")
    assert oracles.is_prime_u64(3_215_031_749) == sympy.isprime(3_215_031_749)


def test_jacobi_examples():
    assert jacobi(2, 7) == 1    # 3^2 = 2 mod 7
    assert jacobi(1, 15) == 1
    assert jacobi(3, 7) == -1   # residues mod 7 are {1, 2, 4}
    assert jacobi(7, 21) == 0
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, -7)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-500, max_value=500),
       st.integers(min_value=-500, max_value=500),
       st.integers(min_value=0, max_value=400))
def test_jacobi_multiplicative(n1, n2, midx):
    m = 2 * midx + 3
    assert jacobi(n1 * n2, m) == jacobi(n1, m) * jacobi(n2, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=0, max_value=78497))
def test_euler_jacobi_consistency(n, pidx):
    primes = nt.primes_upto(10**4)
    p = int(primes[pidx % len(primes)])
    if p == 2:
        return
    euler = pow(n, (p - 1) // 2, p)
    sym = jacobi(n, p)
    assert sym == (1 if euler == 1 else (-1 if euler == p - 1 else 0))


def test_least_qnr_examples():
    assert oracles.least_qnr(3) == 2
    assert oracles.least_qnr(7) == 3
    assert oracles.least_qnr(23) == 5
    with pytest.raises(ValueError):
        oracles.least_qnr(15)
    with pytest.raises(ValueError):
        oracles.least_qnr(2)


def test_least_qnr_brute_force_oracle():
    # successive-prime search equals the naive Euler-criterion minimum
    for block in nt.segmented_primes(3, 10_000):
        for p in block.tolist():
            n = 2
            while pow(n, (p - 1) // 2, p) != p - 1:
                n += 1
            assert oracles.least_qnr(p) == n, p
            assert oracles.is_prime_u64(n)  # the minimum is always prime


def test_least_prime_qr_examples():
    assert oracles.least_prime_qr(7) == 2
    assert oracles.least_prime_qr(3) == 7   # 2, 3, 5 are non-residues or ramified
    assert oracles.least_prime_qr(5) == 11  # residues mod 5 are {1, 4}
    # brute-force cross-check over small primes
    for p in (11, 13, 17, 19, 23, 29, 163):
        r = oracles.least_prime_qr(p)
        for block in nt.segmented_primes(2, r):
            for q in block.tolist():
                assert jacobi(q, p) != 1
        assert jacobi(r, p) == 1


@pytest.mark.parametrize("want", [-1, 1])
def test_least_prime_with_symbol_oracle(want):
    # the block kernel equals a scalar search over Jacobi symbols for every
    # odd prime below 2e5; for p = 3 and 5 the least prime residue exceeds p
    ps = nt.primes_upto(200_000)[1:]
    small = nt.primes_upto(10_000).tolist()
    expect = [next(ell for ell in small if jacobi(ell, p) == want) for p in ps.tolist()]
    assert nt._least_prime_with_symbol(ps, want).tolist() == expect
    if want == 1:
        assert expect[:2] == [7, 11]


@pytest.mark.parametrize("q_lo, q_hi", [
    (4, 60),
    # first hits past the first q primes, so each modulus's prefix doubles
    (495, 500),
    (1990, 1992),
])
def test_least_prime_in_ap_examples(q_lo, q_hi):
    # every record of the ap scan is the first prime among a, a + q, a + 2q, ...
    recs = list(nt.scan("ap", q_lo, q_hi))
    assert [r.key for r in recs] == [(a, q) for q in range(q_lo, q_hi + 1) for a in range(1, q)
                                     if math.gcd(a, q) == 1]
    for r in recs:
        a, q = r.key
        n = a
        while not oracles.is_prime_u64(n):
            n += q
        assert r.value == n, r.key


def test_scan_ap_sieves_as_far_as_its_first_hits(monkeypatch):
    # from its first few primes, the pool is sieved only as far as the
    # moduli's first hits need, not to a bound guessed from q
    sieved = []
    real = nt.primes_upto

    def primes_upto(n):
        sieved.append(n)
        return real(n)

    monkeypatch.setattr(nt, "primes_upto", primes_upto)
    monkeypatch.setattr(nt, "_pool", np.array([2, 3, 5, 7], dtype=np.int64))
    largest = max(r.value for r in nt.scan("ap", 1990, 2000))
    assert largest == 155_269
    assert sieved and max(sieved) <= 4 * largest


def test_scan_refuses_beyond_sieve_budget(monkeypatch):
    # refused when scan is called, before any sieving; at the edges the
    # generator is only built
    sieved = []
    real = nt.primes_upto
    monkeypatch.setattr(nt, "primes_upto", lambda n: sieved.append(n) or real(n))
    budget = nt.SIEVE_BUDGET
    edge = (budget + 1) ** 2  # the first key whose base sieve passes the budget
    nt.scan("qnr", edge - 10, edge - 1)
    with pytest.raises(ValueError, match="sieve budget"):
        nt.scan("qnr", edge - 10, edge)
    nt.scan("prime-qr", 0, budget + 2)  # the budget's keys 3..budget + 2
    for lo, hi in ((0, budget + 3), (edge - budget - 1, edge - 1)):
        with pytest.raises(ValueError, match="sieve budget"):
            nt.scan("prime-qr", lo, hi)
    q = 12_253_885  # q log q <= budget < (q + 1) log (q + 1)
    assert q * math.log(q) <= budget < (q + 1) * math.log(q + 1)
    nt.scan("ap", 0, q)
    with pytest.raises(ValueError, match="sieve budget"):
        nt.scan("ap", 0, q + 1)
    assert sieved == []


def test_empty_scan_sieves_nothing(monkeypatch):
    sieved = []
    real = nt.primes_upto
    monkeypatch.setattr(nt, "primes_upto", lambda n: sieved.append(n) or real(n))
    assert list(nt.scan("qnr", 4 * 10**16, 10**16)) == []
    assert list(nt.segmented_primes(10**16, 10**16)) == []
    assert sieved == []


def test_scan_ap_pool_stays_within_budget(monkeypatch):
    # moduli 1990..2000 need the pool past 155 269; under a budget of 2e5 it
    # stops growing at the budget and the scan is refused there
    sieved = []
    real = nt.primes_upto
    monkeypatch.setattr(nt, "primes_upto", lambda n: sieved.append(n) or real(n))
    monkeypatch.setattr(nt, "_pool", np.array([2, 3, 5, 7], dtype=np.int64))
    monkeypatch.setattr(nt, "SIEVE_BUDGET", 200_000)
    with pytest.raises(ValueError, match="sieve budget"):
        list(nt.scan("ap", 1990, 2000))
    assert sieved and max(sieved) <= 200_000


def test_prime_sum_check_shares_the_sieve_budget(monkeypatch):
    monkeypatch.setattr(nt, "SIEVE_BUDGET", 9_999)
    with pytest.raises(ValueError, match="sieve budget"):
        nt.prime_sum_check(10**4, nt.raised_cosine_bump(0.1, 0.5))


def test_primes_upto_agrees_with_segments():
    direct = nt.primes_upto(50_000)
    segs = np.concatenate(list(nt.segmented_primes(2, 50_001, block=7_000)))
    assert np.array_equal(direct, segs)
    assert direct[0] == 2 and direct[-1] == 49999


@pytest.mark.parametrize("block", [1, 2, 3, 7, 7000])
def test_segmented_primes_edges(block):
    # every lo and hi near the squares of the odd sieving primes, against
    # Miller-Rabin; block i covers [max(lo, 2) + i block, ... + (i + 1) block)
    for lo in (0, 1, 2, 3, 4, 9):
        for sq in (9, 25, 49, 121):
            for hi in (sq - 1, sq, sq + 1):
                blocks = list(nt.segmented_primes(lo, hi, block))
                starts = range(max(lo, 2), hi, block)
                assert len(blocks) == len(starts)
                for start, b in zip(starts, blocks):
                    assert b.dtype == np.int64
                    assert b.tolist() == [n for n in range(start, min(start + block, hi))
                                          if oracles.is_prime_u64(n)], (lo, hi, block, start)


def test_primes_upto_small():
    for n in range(300):
        got = nt.primes_upto(n)
        assert got.dtype == np.int64
        assert got.tolist() == [k for k in range(n + 1) if oracles.is_prime_u64(k)], n


# raw mpfs whose printed digits hit the rounding and layout edges of
# to_str(x, 20), with the digits it prints (mpmath 1.3)
DIGIT_EDGES = [
    # an exact 21st digit 5 after an even 20th: half-up, not half-even
    (mpf_add(from_int(12345678901234567890), from_str("0.5", 10)), "12345678901234567891.0"),
    (from_int(123456789012345678905), "1.2345678901234567891e+20"),
    # runs of nines past the 20th digit carry into a new leading digit
    (from_str("0.0999999999999999999999", 103), "0.1"),
    (from_str("9.99999999999999999999", 103), "10.0"),
    # a carry that moves the number across a layout edge, both ways
    (from_str("9.99999999999999999999e-6", 103), "0.00001"),
    (mpf_add(from_int(99999999999999999999), from_str("0.5", 10)), "1.0e+20"),
    # each layout without a carry, on exact values
    (from_man_exp(1, -17), "7.62939453125e-6"),
    (from_man_exp(1, -16), "0.0000152587890625"),
    (from_int(10**20), "1.0e+20"),
    (from_man_exp(1, 70), "1.1805916207174113034e+21"),
    (from_str("0.026196057652603367311", 103), "0.026196057652603367311"),
]


@pytest.mark.parametrize("x, text", DIGIT_EDGES, ids=[t for _, t in DIGIT_EDGES])
def test_digits20_edges(x, text):
    assert nt._digits20(x) == to_str(x, 20) == text


@settings(max_examples=1000, deadline=None)
@given(st.integers(min_value=1, max_value=2**103 - 1), st.integers(min_value=-30, max_value=69))
@example(2125276685243901484417244977163, -6)
def test_digits20_equals_to_str(man, lead):
    # positive mpfs of up to 103 bits in [2^lead, 2^(lead + 1)), about 1e-9
    # to 1e21: the fixed, e- and e+ layouts of to_str(x, 20), the oracle
    x = from_man_exp(man, lead + 1 - man.bit_length())
    assert nt._digits20(x) == to_str(x, 20)


@settings(max_examples=2000, deadline=None)
@given(st.integers(min_value=1, max_value=2**200),
       st.builds(from_man_exp, st.integers(min_value=0, max_value=2**199 - 1).map(lambda k: 2 * k + 1),
                 st.integers(min_value=-300, max_value=300)))
@example(15, from_int(5))  # exact quotients
@example(7 << 150, from_man_exp(7, -10))
@example(2**103 + 1, from_man_exp(1, 7))  # a tie, kept even
@example(2**103 + 3, from_man_exp(1, -7))  # a tie, rounded up to even
@example(3 * (2**103 + 1), from_man_exp(3, 1))  # ties past an odd mantissa
@example(3 * (2**103 + 3), from_man_exp(3, 1))
@example(2**104 - 1, from_int(1))  # rounds up into a new bit
@example(1, from_man_exp(2**200 - 1, 300))
@example(1, from_int(1))
def test_ratio_is_mpf_div(value, denom):
    assert nt._ratio(value, denom) == mpf_div(from_int(value), denom, 103, "n")


def test_scan_qnr_small():
    recs = list(nt.scan("qnr", 3, 23))
    keys = [r.key for r in recs]
    assert keys == [3, 5, 7, 11, 13, 17, 19, 23]
    by_key = {r.key: r for r in recs}
    with mp.workdps(30):
        for p in (3, 7, 23):
            expect = mp.mpf(oracles.least_qnr(p)) / mp.log(p) ** 2
            assert abs(mp.make_mpf(by_key[p].ratio) - expect) < 1e-25
        assert float(mp.make_mpf(by_key[3].ratio)) == pytest.approx(2 / math.log(3) ** 2)
    # every recorded extremal value is prime
    assert all(oracles.is_prime_u64(r.value) for r in recs)


def test_scan_chunk_determinism():
    whole = list(nt.scan("qnr", 11, 20_000))
    assert list(nt.scan("qnr", 11, 7_000)) + list(nt.scan("qnr", 7_001, 20_000)) == whole


def test_scan_ap_chunk_determinism():
    whole = list(nt.scan("ap", 4, 120))
    assert list(nt.scan("ap", 4, 60)) + list(nt.scan("ap", 61, 120)) == whole


def test_scan_ap_modulus_one_at_30_digits():
    # the q = 1 record, 2 / log^2 2, carries the 30-digit ratio of every
    # other record
    [rec] = nt.scan("ap", 1, 1)
    assert (rec.key, rec.value) == ((0, 1), 2)
    with mp.workdps(50):
        ref = mp.mpf(2) / mp.log(2) ** 2
        assert abs(mp.make_mpf(rec.ratio) - ref) < mp.mpf(10) ** -29
    assert rec.csv_row() == "0 mod 1,2,4.1627379620112155957"


@pytest.mark.parametrize("n", [0, 1, nt._ROWS_PER_WRITE, nt._ROWS_PER_WRITE + 1, 3 * nt._ROWS_PER_WRITE])
def test_summarize_writes_every_row_across_chunks(n):
    recs = list(nt.scan("ap", 4, 60))[:n]
    assert len(recs) == n
    out = io.StringIO()
    s = nt.summarize(iter(recs), "ap", out)
    assert out.getvalue().splitlines() == ["key,value,ratio"] + [r.csv_row() for r in recs]
    assert s.count == n
    if n:  # the first record of largest ratio
        best = max(recs, key=lambda r: mp.make_mpf(r.ratio))
        assert (s.max_ratio, s.argmax) == (best.ratio, best.key)
    else:
        assert (s.max_ratio, s.argmax) == (None, None)


def test_scan_ap_small():
    recs = list(nt.scan("ap", 4, 10))
    by_key = {r.key: r.value for r in recs}
    assert by_key[(3, 4)] == 3
    assert by_key[(1, 4)] == 5
    assert by_key[(1, 7)] == 29
    assert by_key[(9, 10)] == 19
    q5 = [r for r in recs if r.key[1] == 5]
    assert len(q5) == 4  # one record per coprime residue


def test_scan_rejects_unknown_kind():
    with pytest.raises(ValueError):
        list(nt.scan("weird", 1, 10))


def test_bump_properties():
    g = nt.raised_cosine_bump(0.2, 0.8)
    xs = np.linspace(-1, 2, 10_001)
    v = g(xs)
    assert v.min() >= 0
    assert v[(xs < 0.2) | (xs > 0.8)].max() == 0
    assert abs(v.max() - 1.0) < 1e-4
    # exact L1 norm: half the width
    step = xs[1] - xs[0]
    assert abs(v.sum() * step - 0.3) < 1e-3
    with pytest.raises(ValueError):
        nt.raised_cosine_bump(1.0, 0.5)


def test_prime_sum_check_zero_function():
    g = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    g.support, g.dl1 = (0.1, 0.9), 0.0
    rep = nt.prime_sum_check(1000, g)
    assert rep.truncated_sum == 0 and rep.truncated_integral == 0
    assert rep.tail_sum == 0 and rep.tail_integral == 0


def test_prime_sum_check_truncated_and_tail():
    m = 10**4
    cut = math.log(m) / (2 * math.pi)
    g = nt.raised_cosine_bump(0.3 * cut, 1.5 * cut)
    rep = nt.prime_sum_check(m, g)
    # the sums straddle the cut, and both identities hold to a tiny
    # normalized residual at this scale
    assert rep.truncated_sum > 1
    assert rep.tail_sum > 1
    assert abs(rep.normalized_truncated) < 0.01
    assert abs(rep.normalized_tail) < 0.01
    # Chebyshev window report (consistency, not an RH assertion)
    assert abs(rep.psi_m - m) < rep.psi_window


def test_prime_sum_check_support_guards():
    with pytest.raises(ValueError):
        nt.prime_sum_check(100, nt.raised_cosine_bump(0.0, 10.0))
    with pytest.raises(ValueError):
        nt.prime_sum_check(10**15, nt.raised_cosine_bump(0.1, 0.2))


def psi_m(m):
    """psi(m) as ``fel nt --kind prime-sum`` reports it (prime powers below m)."""
    cut = math.log(m) / (2 * math.pi)
    return nt.prime_sum_check(m, nt.raised_cosine_bump(0.1 * cut, 0.9 * cut)).psi_m


def test_chebyshev_psi_values():
    # psi(100) = sum of log p over prime powers <= 100; neither m below is a
    # prime power, so counting n = m or not gives the same psi(m)
    expect = 0.0
    for p in nt.primes_upto(100).tolist():
        k = 1
        while p**k <= 100:
            expect += math.log(p)
            k += 1
    assert abs(psi_m(100) - expect) < 1e-9
    assert abs(psi_m(10**6) - 10**6) < math.sqrt(10**6) * math.log(10**6) ** 2
