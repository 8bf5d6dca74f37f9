import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from linniklab.arith import (
    PrimeTable,
    chi,
    chi_vec,
    divisor_sum,
    euler_phi,
    linnik_rows,
    linnik_sum,
    linnik_witness,
    r2,
    sieve_primes,
)
from linniklab import arith
from linniklab.dirichlet import n_s
from linniklab.errors import DomainError, ResourceError
from linniklab.expsums import bv_aggregate, e_term


def lattice_r2(nmax: int) -> np.ndarray:
    """Independent oracle: count ordered signed pairs a²+b² = n by brute force."""
    m = math.isqrt(nmax)
    a = np.arange(-m, m + 1)
    s = (a[:, None] ** 2 + a[None, :] ** 2).ravel()
    return np.bincount(s[(s >= 1) & (s <= nmax)], minlength=nmax + 1)


def test_r2_against_lattice_small(table4):
    counts = lattice_r2(2000)
    for n in range(1, 2001):
        assert r2(n, table4) == counts[n], n


def r2_by_spf_steps(ns: np.ndarray, spf: np.ndarray) -> np.ndarray:
    """Oracle: r₂ by dividing every entry by its smallest prime factor, one
    prime at a time, closing a prime power's factor when the prime changes;
    ``spf`` holds the smallest prime factor of every n ≤ max ns."""
    m = np.asarray(ns, dtype=np.int64).copy()
    sig = np.ones(m.shape, dtype=np.int64)
    cur_p = np.zeros(m.shape, dtype=np.int64)
    cur_e = np.zeros(m.shape, dtype=np.int64)

    def close(ix):
        r = cur_p[ix] & 3
        sig[ix] *= np.where(r == 1, cur_e[ix] + 1, np.where(r == 3, 1 - cur_e[ix] % 2, 1))

    idx = np.nonzero(m > 1)[0]
    while idx.size:
        p = np.full(idx.size, 2, dtype=np.int64)
        odd = m[idx] % 2 == 1
        p[odd] = spf[m[idx][odd]]
        fresh = p != cur_p[idx]
        ch = idx[fresh]
        close(ch)
        cur_p[ch] = p[fresh]
        cur_e[ch] = 0
        cur_e[idx] += 1
        m[idx] //= p
        idx = idx[m[idx] > 1]
    close(np.arange(m.size))
    return 4 * sig


def test_linnik_rows_matches_scalar():
    limit = 10**5
    table = sieve_primes(limit)
    r, wx = linnik_rows(table, 0, limit)
    assert r.dtype == wx.dtype == np.int64
    assert r.tolist() == [r2(int(p) - 1, table) for p in table.primes]
    # r2 itself, on every n, against the lattice count
    counts = lattice_r2(limit)
    assert [r2(n, table) for n in range(1, limit + 1)] == counts[1:].tolist()
    special = [limit, *(2**k for k in range(17)), *(3**k for k in range(11)),
               *(3 * 5**k for k in range(7))]
    assert [r2(n, table) for n in special] == counts[special].tolist()


def test_linnik_rows_on_shifted_primes_matches_spf_steps(table6):
    r, _ = linnik_rows(table6, 0, 10**6)
    want = r2_by_spf_steps(table6.primes - 1, eager_spf(10**6))
    assert r.dtype == np.int64 and np.array_equal(r, want)


def test_linnik_rows_on_every_prime_to_ten_million(table7):
    r, wx = linnik_rows(table7, 0, 10**7)
    ps = table7.primes
    assert r.size == wx.size == ps.size == 664_579
    assert np.array_equal(r, 4 * divisor_sum(ps - 1, 1, 10**7, chi=True))
    # every witness, found or not, against the one-pass-per-x oracle
    assert np.array_equal(wx, witness_table(10**7)[0][ps - 1])
    assert linnik_sum(table7, 0, 10**7) == int(r.sum())


def test_linnik_rows_small_primes_and_both_kinds_of_weight(table4):
    # p = 2 is apart; the points x = 0 (5 − 1 = 0² + 2², 17 − 1 = 0² + 4²)
    # and x = y (3 − 1 = 1² + 1², 19 − 1 = 3² + 3²) weigh 4, 11 − 1 = 1² + 3²
    # weighs 8, and 7 − 1 and 13 − 1 have no witness
    r, wx = linnik_rows(table4, 0, 19)
    assert table4.primes[:8].tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert r.tolist() == [4, 4, 4, 0, 8, 0, 4, 4]
    assert wx.tolist() == [0, 1, 0, -1, 1, -1, 0, 3]
    # 101 − 1 = 0² + 10² = 6² + 8²: x = 0 and x < y on one prime
    r, wx = linnik_rows(table4, 100, 101)
    assert r.tolist() == [12] and wx.tolist() == [0]


@pytest.mark.parametrize("block", [1, 7, 1000, 2**15])
def test_linnik_rows_on_any_window(table4, monkeypatch, block):
    full_r, full_x = linnik_rows(table4, 0, 10**4)
    # rows joined into blocks of at least `block` points, so a block ends
    # after every row, or every few, or spans the whole range
    monkeypatch.setattr(arith, "_ROW_BLOCK", block)
    ps = table4.primes.tolist()
    rng = random.Random(26)
    ends = [0, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 17, 18, 19, 100, 9973, 9999, 10**4]
    windows = [(lo, hi) for lo in ends for hi in ends]
    windows += [sorted(rng.sample(ps, 2)) for _ in range(200)]       # prime ends
    windows += [sorted(rng.uniform(0, 10**4) for _ in range(2)) for _ in range(100)]
    for lo, hi in windows:
        sl = table4.prime_slice(lo, hi)
        r, wx = linnik_rows(table4, lo, hi)
        assert np.array_equal(r, full_r[sl]) and np.array_equal(wx, full_x[sl]), (lo, hi)
        assert linnik_sum(table4, lo, hi) == int(full_r[sl].sum()), (lo, hi)
    for lo, hi in ((5, 6), (7, 7), (8, 10), (100, 50), (9973, 10**4)):
        r, wx = linnik_rows(table4, lo, hi)                             # no prime
        assert r.shape == wx.shape == (0,) and r.dtype == wx.dtype == np.int64
        assert linnik_sum(table4, lo, hi) == 0


def test_linnik_rows_refuses_primes_past_its_counters():
    # a table past the default budget can only come from a larger one given
    # to sieve_primes; 2³¹ + 11 is prime, and its witness x could pass 2¹⁵
    table = PrimeTable(limit=2**31 + 11, primes=np.array([2, 3, 2**31 - 1, 2**31 + 11]))
    assert linnik_rows(table, 0, 2**31)[0].tolist() == [4, 4, 0]
    with pytest.raises(DomainError, match="uint16"):
        linnik_rows(table, 0, 2**31 + 11)


def test_r2_known_values(table4):
    # 5 = (±1)²+(±2)² and swaps -> 8; 25 adds (0,±5),(±5,0),(±3,±4),(±4,±3)
    assert r2(1, table4) == 4
    assert r2(2, table4) == 4
    assert r2(3, table4) == 0
    assert r2(5, table4) == 8
    assert r2(25, table4) == 12
    assert r2(3 * 7, table4) == 0
    assert r2(9, table4) == 4  # (0,±3),(±3,0)


def test_r2_multiplicative_structure(table4):
    # coprime multiplicativity of r2/4
    rng = random.Random(13)
    for _ in range(200):
        a = rng.randrange(1, 80)
        b = rng.randrange(1, 80)
        if math.gcd(a, b) != 1:
            continue
        assert r2(a * b, table4) * 4 == r2(a, table4) * r2(b, table4)


def test_chi_values_and_period():
    assert [chi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    with pytest.raises(DomainError):
        chi(0)
    with pytest.raises(DomainError):
        chi(-3)
    ns = np.arange(1, 101, dtype=np.int64)
    v = chi_vec(ns)
    assert all(int(v[n - 1]) == chi(n) for n in range(1, 101))


def test_r2_chi_divisor_identity(table4):
    # r(n) = 4 * sum_{d|n} chi(d), the character-sum form
    sympy = pytest.importorskip("sympy")
    for n in range(1, 600):
        assert r2(n, table4) == 4 * sum(chi(d) for d in sympy.divisors(n))


def _brute_window_sums(n_max, weight, inside):
    """Σ weight(d) over the divisors d of each n ≤ n_max with inside(d)."""
    sympy = pytest.importorskip("sympy")
    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        out[n] = sum(weight(d) for d in sympy.divisors(n) if inside(d))
    return out


def test_divisor_sum_integer_endpoints():
    # D = 5, X = 100: X/D = 20 exactly, so divisors 5 and 20 sit on the cuts
    x, dd = 100.0, 5.0
    ns = np.arange(101)
    for lo, hi, inside in (
        (1, 6, lambda v: v <= dd),
        (6, 20, lambda v: dd < v < x / dd),
        (20, 101, lambda v: v >= x / dd),
    ):
        got = divisor_sum(ns, lo, hi, chi=True)
        assert got.tolist() == _brute_window_sums(100, chi, inside)


def test_divisor_sum_fractional_cut():
    x, dd = 3000.0, 17.5
    ns = np.arange(3001)
    got = divisor_sum(ns, 18, 172, chi=True)      # 17.5 < d < 171.43
    assert got.tolist() == _brute_window_sums(3000, chi, lambda v: dd < v < x / dd)
    ones = divisor_sum(ns, 1, 3001, chi=False)    # counts, not OR
    assert ones.tolist() == _brute_window_sums(3000, lambda v: 1, lambda v: True)


def test_divisor_sum_empty_window():
    ns = np.arange(501)
    for lo, hi in ((1, 1), (11, 11), (40, 12)):   # 10.2 < d < 10.9 is [11, 11)
        for c in (True, False):
            assert not divisor_sum(ns, lo, hi, chi=c).any()
    assert divisor_sum(np.array([0]), 0, 10, chi=False).tolist() == [0]
    with pytest.raises(DomainError):
        divisor_sum(np.array([10, -1]), 1, 10, chi=False)


def test_divisor_sum_matches_brute_on_every_window():
    n_max = 5000
    # every divisor pair (n, d), by enumerating the multiples of each d
    pairs = [(k * d, d) for d in range(1, n_max + 1) for k in range(1, n_max // d + 1)]
    pn, pd = np.array(pairs).T
    # χ reads only the odd part of n: every n ≤ n_max, then only even n and
    # only powers of 2, whose largest odd parts (4999, 2499, 1) set √N apart
    for ns in (np.arange(n_max + 1), np.arange(0, n_max + 1, 2),
               np.array([0, *(2**k for k in range(13))])):
        top = int(ns.max())
        odd_top = max(int(n) // (int(n) & -int(n)) for n in ns if n)
        roots = {math.isqrt(top), math.isqrt(odd_top)}
        edges = {0, 1, 2, 3, 4, 5, 1000, top - 1, top, top + 1, top + 2, 10**6,
                 *(r + k for r in roots for k in (-1, 0, 1, 2))}
        for lo in sorted(edges):
            for hi in sorted(edges):
                inside = (lo <= pd) & (pd < hi) & (pn <= top)
                for c in (True, False):
                    w = chi_vec(pd) if c else np.ones_like(pd)
                    want = np.bincount(pn[inside], weights=w[inside], minlength=top + 1)
                    got = divisor_sum(ns, lo, hi, chi=c)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want[ns]), (top, lo, hi, c)
    # any order, repeats and dtype of ns; the answer is read at each entry
    ns = np.arange(n_max + 1)
    sub = np.array([2999, 12, 0, 1, 12, 2048, 60], dtype=np.int32)
    full = divisor_sum(ns, 5, 400, chi=True)
    assert np.array_equal(divisor_sum(sub, 5, 400, chi=True), full[sub])
    assert divisor_sum(np.zeros(0, dtype=np.int64), 1, 10, chi=True).shape == (0,)


def test_divisor_sum_at_a_highly_composite_n():
    # 720720 = 2⁴·3²·5·7·11·13 has τ = 240 divisors, its odd part 45045 has
    # 48, and 5·13·17·29·37 has 32, all ≡ 1 (mod 4): the int16 accumulator
    # holds every window's sum, which is read back in int64
    ns = np.array([720720, 45045, 5 * 13 * 17 * 29 * 37])
    top = int(ns.max())
    divs = [np.array([d for d in range(1, math.isqrt(n) + 1) if n % d == 0]) for n in ns]
    divs = [np.union1d(ds, n // ds) for n, ds in zip(ns.tolist(), divs)]
    for lo, hi in ((1, top + 1), (1, 100), (100, top + 1), (27, 1000), (848, 849)):
        for c in (True, False):
            want = [int((chi_vec(ds) if c else np.ones_like(ds))[(lo <= ds) & (ds < hi)].sum())
                    for ds in divs]
            got = divisor_sum(ns, lo, hi, chi=c)
            assert got.dtype == np.int64
            assert got.tolist() == want, (lo, hi, c)
    assert divisor_sum(ns, 1, top + 1, chi=False).tolist() == [240, 48, 32]
    # 7 divides 720720 once, so r₂(720720) = 0; every divisor of the last n counts
    assert divisor_sum(ns, 1, top + 1, chi=True).tolist() == [0, 0, 32]


def test_divisor_sum_refuses_past_the_memory_budget(monkeypatch):
    # the int16 accumulator is exact up to MEMORY_BUDGET; past it nothing is
    # allocated.  For χ the slots run over the odd parts
    monkeypatch.setattr(arith, "MEMORY_BUDGET", 1001)
    monkeypatch.setattr(np, "zeros", None)
    for c in (True, False):
        with pytest.raises(ResourceError, match="int16"):
            divisor_sum(np.array([5, 1003]), 1, 10, chi=c)
    monkeypatch.undo()
    monkeypatch.setattr(arith, "MEMORY_BUDGET", 1001)
    assert divisor_sum(np.array([1001, 1000]), 1, 10, chi=False).tolist() == [2, 5]
    assert divisor_sum(np.array([1001 * 2**40]), 1, 10, chi=True).tolist() == [0]


def test_euler_phi(table4):
    for n in range(1, 300):
        direct = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        assert euler_phi(n, table4) == direct


def test_linnik_witness_iff_r2_positive(table4):
    n = 1000
    ps = table4.primes[table4.primes <= n]
    for p in ps:
        p = int(p)
        wit = linnik_witness(p, table4)
        if r2(p - 1, table4) > 0 or p == 2:
            assert wit is not None
            x, y = wit
            assert x * x + y * y + 1 == p
        else:
            assert wit is None


def test_linnik_witness_canonical_order(table4):
    # smallest x first, then the matching y
    assert linnik_witness(5, table4) == (0, 2)
    assert linnik_witness(3, table4) == (1, 1)
    assert linnik_witness(2, table4) == (0, 1)
    assert linnik_witness(83, table4) == (1, 9)
    assert linnik_witness(7, table4) is None


def witness_table(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: least (x, y), x ≤ y, with x² + y² = n for every n ≤ n_max, −1
    if none, from one pass per x, the largest first, so the least x writes
    last."""
    wx = np.full(n_max + 1, -1, dtype=np.int64)
    wy = np.full(n_max + 1, -1, dtype=np.int64)
    for x in range(math.isqrt(n_max // 2), -1, -1):
        y = np.arange(x, math.isqrt(n_max - x * x) + 1, dtype=np.int64)
        wx[x * x + y * y] = x
        wy[x * x + y * y] = y
    return wx, wy


def test_witness_table_matches_brute():
    n_max = 2 * 10**4
    least = {}
    for x in range(math.isqrt(n_max // 2) + 1):   # x ascending: first hit is least
        for y in range(x, math.isqrt(n_max - x * x) + 1):
            least.setdefault(x * x + y * y, (x, y))
    table = sieve_primes(n_max)
    wx, wy = witness_table(n_max)
    for n in range(n_max + 1):
        assert (int(wx[n]), int(wy[n])) == least.get(n, (-1, -1)), n
    r, rx = linnik_rows(table, 0, n_max)
    for p, x, rp in zip(table.primes.tolist(), rx.tolist(), r.tolist()):
        assert linnik_witness(p, table) == least.get(p - 1)
        assert x == least.get(p - 1, (-1, -1))[0] and (rp > 0) == (p - 1 in least), p


def test_is_prime_and_linnik_witness_build_no_table(table7):
    limit = 20_000
    table = sieve_primes(limit)
    want = _NAIVE_SPF[: limit + 1]
    for n in range(limit + 1):
        assert table.is_prime(n) == (n >= 2 and want[n] == n), n
    for p in (2, 3, 7, 19_997):
        linnik_witness(p, table)
    for name in ("spf", "_spf", "witnesses", "_witnesses", "log_weights", "_logs"):
        assert not hasattr(table, name), name
    # the sweep over one prime near 1e7 keeps O(√p) live, against 20 MB for
    # a uint16 column over [0, p]
    for p, want in ((9_999_991, None), (9_999_971, (399, 3137))):
        tracemalloc.start()
        try:
            got = linnik_witness(p, table7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and peak < 2**20, (p, got, peak / 2**20)


def test_prime_table_basics(table4):
    assert table4.prime_count(10**4) == 1229
    assert table4.prime_count(10.0) == 4
    assert table4.is_prime(9973)
    assert not table4.is_prime(9999)
    # (lo, hi] boundary semantics at prime endpoints
    sl = table4.prime_slice(7.0, 13.0)
    assert list(table4.primes[sl]) == [11, 13]
    sl = table4.prime_slice(6.9, 13.0)
    assert list(table4.primes[sl]) == [7, 11, 13]
    # past the sieve's reach a count would silently stop at π(limit)
    for reach in (lambda: table4.prime_slice(0.0, 10**4 + 0.5),
                  lambda: table4.prime_count(10**4 + 1)):
        with pytest.raises(DomainError, match="table limit 10000"):
            reach()


def test_nan_prime_range_is_an_error():
    # NaN fails every comparison, so the limit check alone lets a NaN end
    # through, and searchsorted would put it past every prime: π(nan) = π(limit)
    t = sieve_primes(1000)
    for call in (lambda: t.prime_count(math.nan),
                 lambda: t.prime_slice(math.nan, 100),
                 lambda: t.prime_slice(0, math.nan),
                 lambda: e_term(t, math.nan, 4, 1),
                 lambda: bv_aggregate(t, math.nan, 3),
                 lambda: n_s(0.0, math.nan, t)):
        with pytest.raises(DomainError, match="NaN"):
            call()


def naive_spf(nmax: int) -> np.ndarray:
    """Independent oracle: smallest factor of each n ≤ nmax by trial division (0, 1 ↦ 1)."""
    out = [1, 1]
    for n in range(2, nmax + 1):
        out.append(next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n))
    return np.array(out, dtype=np.int32)


_NAIVE_SPF = naive_spf(25_000)


def assert_is_prime_matches(table, want: np.ndarray):
    """is_prime agrees with the smallest factors ``want`` at every n ≤ limit,
    even n, 0 and 1 included."""
    assert not table.is_prime(0) and not table.is_prime(1)
    for n, w in enumerate(want[2:].tolist(), start=2):
        assert table.is_prime(n) == (w == n), n


def assert_sieve_matches_naive(limit: int):
    table = sieve_primes(limit)
    want = _NAIVE_SPF[: limit + 1]
    assert_is_prime_matches(table, want)
    n = np.arange(limit + 1)
    primes = n[(n >= 2) & (want == n)]
    assert table.primes.dtype == np.int64 and np.array_equal(table.primes, primes), limit


@pytest.mark.parametrize("limit", range(2, 301))
def test_sieve_matches_naive_small(limit):
    assert_sieve_matches_naive(limit)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 97, 101, 149])
def test_sieve_matches_naive_at_prime_squares(p):
    for limit in (p * p - 1, p * p, p * p + 1):
        if limit >= 2:
            assert_sieve_matches_naive(limit)


@pytest.mark.parametrize("segment", [64, 1000])
def test_sieve_matches_naive_across_segments(monkeypatch, segment):
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    edges = [m * segment + d for m in (1, 2, 3, 7, 19) for d in (-1, 0, 1)]
    for limit in [*edges, 19_999, 20_000, 20_001, 20_449, 24_999]:
        assert_sieve_matches_naive(limit)


def eager_spf(limit: int) -> np.ndarray:
    """Oracle: one unsegmented pass per prime p ≤ √limit over all its multiples
    from p², descending, so the smallest factor writes last (0, 1 ↦ 1)."""
    spf = np.arange(limit + 1, dtype=np.int32)
    spf[:2] = 1
    for p in reversed([p for p in range(2, math.isqrt(limit) + 1) if _NAIVE_SPF[p] == p]):
        spf[p * p :: p] = p
    return spf


@pytest.mark.parametrize("limit", [2, 3, 4, 2**19 - 1, 2**19 + 1, 2**20 + 1, 10**6])
def test_byte_sieve_and_lazy_spf_match_eager_sieve(limit):
    table = sieve_primes(limit)
    want = eager_spf(limit)
    n = np.arange(limit + 1)
    primes = n[(n >= 2) & (want == n)]
    assert table.primes.dtype == np.int64 and np.array_equal(table.primes, primes)
    assert_is_prime_matches(table, want)


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 10**4, 10**4 + 1])
def test_is_prime_and_factorize_at_the_ends(limit):
    table = sieve_primes(limit)
    assert r2(1, table) == 4 and not table.is_prime(1)
    assert r2(2, table) == 4 and table.is_prime(2)
    if limit >= 4:
        assert r2(4, table) == 4 and not table.is_prime(4)
    # 10⁴ = 2⁴·5⁴ and 10⁴ + 1 = 73·137, both primes ≡ 1 (mod 4)
    want = {2: 4, 3: 0, 4: 4, 5: 8, 10**4: 20, 10**4 + 1: 16}[limit]
    assert r2(limit, table) == want
    assert table.is_prime(limit) == (limit in (2, 3, 5))
    r, _ = linnik_rows(table, 0, limit)
    assert r.tolist() == [r2(int(p) - 1, table) for p in table.primes]
    for n in (limit + 1, limit + 2):
        with pytest.raises(DomainError):
            r2(n, table)
        with pytest.raises(DomainError):
            table.is_prime(n)
        with pytest.raises(DomainError):
            linnik_rows(table, 0, n)


def test_sieve_validation():
    with pytest.raises(DomainError):
        sieve_primes(1)
    with pytest.raises(ResourceError):
        sieve_primes(10**9, memory_budget=10**6)


def test_sieve_rejects_non_finite_limit():
    with pytest.raises(DomainError):
        sieve_primes(math.nan)
    with pytest.raises(DomainError):
        sieve_primes(math.inf)


def primes_upto_unsegmented(n: int) -> np.ndarray:
    """Oracle: one byte sieve over all the odd slots, each odd p ≤ √n
    clearing its odd multiples from p² in one strided write."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)
    odd[0] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1))


def assert_primes_match_unsegmented(n: int):
    got, want = arith.primes_upto(n), primes_upto_unsegmented(n)
    assert got.dtype == np.int64 and np.array_equal(got, want), n


def test_segmented_sieve_matches_unsegmented():
    for n in range(3001):
        assert_primes_match_unsegmented(n)
    # a segment of _SEGMENT odd slots covers 2·_SEGMENT numbers
    for k in (1, 2, 3):
        for delta in range(-3, 4):
            assert_primes_match_unsegmented(2 * k * arith._SEGMENT + delta)
    for n in (10**6, 10**7 + 1):
        assert_primes_match_unsegmented(n)


@pytest.mark.parametrize("segment", [1, 7, 50])
def test_segmented_sieve_strides_longer_than_a_segment(monkeypatch, segment):
    # with segments shorter than √n slots, a prime's stride skips whole
    # segments, and past the first the next slots are no longer sorted
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    for n in (2, 3, 9, 25, 49, 2 * segment + 1, 4999, 5000, 12_345, 29_929, 30_001):
        assert_primes_match_unsegmented(n)


def test_sieve_primes_peak_memory():
    # the primes ≤ 1e7 are 5.1 MiB of int64; the unsegmented sieve peaked at
    # 15.2 MiB with its full-length bytes and index temporaries, the segments
    # leave the per-segment indices and their one concatenation.  Measured on
    # primes_upto: once a 1e7 column is kept, sieve_primes(1e7) sieves nothing
    tracemalloc.start()
    try:
        primes = arith.primes_upto(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes.size == 664_579
    assert peak < 12 * 2**20, peak / 2**20


@pytest.fixture
def empty_column(monkeypatch):
    """sieve_primes starting from no kept column; the kept one comes back after."""
    monkeypatch.setattr(arith, "_kept", (1, np.zeros(0, dtype=np.int64)))


def test_tables_are_prefixes_of_one_read_only_column(empty_column):
    seg = 2 * arith._SEGMENT
    rising = [2, 3, 4, 10**4, seg - 1, seg + 1, 2 * seg - 1, 2 * seg + 1, 10**6, 10**7]
    top = 1
    for limit in rising + rising[::-1] + rising + [10**6, 10**6, 3, 3]:
        kept = arith._kept
        table = sieve_primes(limit)
        # only a limit above every earlier one sieves and replaces the column
        assert (arith._kept is not kept) == (limit > top), limit
        top = max(top, limit)
        assert arith._kept[0] == top
        assert table.limit == limit
        assert np.shares_memory(table.primes, arith._kept[1])
        assert table.primes.dtype == np.int64
        assert np.array_equal(table.primes, arith.primes_upto(limit)), limit
        with pytest.raises(ValueError):
            table.primes[0] = 4


def test_concurrent_sieves_each_get_their_own_primes(empty_column):
    # racing callers may both sieve and either may keep its column, but every
    # table must hold the primes to its own limit
    limits = [2, 97, 1000, 4099, 10**4, 30_011, 10**5, 2 * arith._SEGMENT + 1]
    want = {n: arith.primes_upto(n) for n in limits}

    def worker(k):
        rng = random.Random(k)
        for _ in range(40):
            n = rng.choice(limits)
            table = sieve_primes(n)
            if table.limit != n or not np.array_equal(table.primes, want[n]):
                return n
        return None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            bad = [n for n in pool.map(worker, range(8), timeout=120) if n is not None]
    finally:
        sys.setswitchinterval(interval)
    assert bad == []


def test_table_cut_from_a_longer_column_keeps_its_limit(empty_column):
    sieve_primes(10**7)
    table = sieve_primes(10**6)
    assert arith._kept[0] == 10**7 and table.primes.size == 78_498
    assert table.prime_count(10**6) == 78_498 and not table.is_prime(10**6 - 1)
    with pytest.raises(DomainError):
        table.prime_count(2e6)
    with pytest.raises(DomainError):
        table.is_prime(1_000_003)
    assert sieve_primes(10**7).is_prime(1_000_003)
    # the row reader covers the table's own limit, not the column's
    assert linnik_rows(table, 0, 10**6)[0].size == 78_498
    with pytest.raises(DomainError):
        linnik_rows(table, 0, 2e6)


@pytest.mark.parametrize("kept", [None, 10**4], ids=["fresh", "kept"])
def test_sieve_primes_takes_only_integer_limits(empty_column, monkeypatch, kept):
    # a float limit is refused before the budget check, whether or not the
    # kept column already covers it; numpy ints are integers
    if kept:
        sieve_primes(kept)
    monkeypatch.setattr(arith, "primes_upto", None)
    for bad in (1e4, 2.0, 1e4 + 0.5, "10000", Fraction(10**4)):
        with pytest.raises(DomainError, match="integer"):
            sieve_primes(bad, memory_budget=10)
    if kept:
        assert sieve_primes(np.int64(10**4)).primes.size == 1229
    assert arith._kept[0] == (kept or 1)


def test_sieve_primes_checks_before_sieving(empty_column, monkeypatch):
    def refuse(n):
        raise AssertionError("sieved")

    monkeypatch.setattr(arith, "primes_upto", refuse)
    with pytest.raises(DomainError):
        sieve_primes(1)
    with pytest.raises(ResourceError):
        sieve_primes(10**9, memory_budget=10**6)
    assert arith._kept[0] == 1
    # a limit inside the kept column is still held to the budget
    monkeypatch.setattr(arith, "_kept", (10**4, primes_upto_unsegmented(10**4)))
    with pytest.raises(ResourceError):
        sieve_primes(10**3, memory_budget=10**3)
    with pytest.raises(DomainError):
        sieve_primes(1)
