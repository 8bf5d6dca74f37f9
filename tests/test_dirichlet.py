import math
import tracemalloc

import numpy as np
import pytest

from linniklab.arith import (
    chi,
    chi_vec,
    divisor_sum,
    euler_phi,
    linnik_rows,
    primes_upto,
    r2,
    sieve_primes,
)
from linniklab.dirichlet import (
    chi_phi_partial,
    f_zero,
    linnik_constant,
    linnik_empirical,
    n_s,
)
from linniklab.errors import DomainError


def test_n_s_small_truncations(table4):
    # p=2 contributes factor 1; p=3 gives 1 − 1/(3·2); p=5 gives 1 + 1/(5·4)
    assert n_s(0.0, 2, table4).value == 1.0
    assert abs(n_s(0.0, 3, table4).value - 5.0 / 6.0) < 1e-15
    assert abs(n_s(0.0, 5, table4).value - 0.875) < 1e-15
    # s = 1: p=3 term is 1 − 1/(9·2), p=5 term 1 + 1/(25·4)
    want = (1.0 - 1.0 / 18.0) * (1.0 + 1.0 / 100.0)
    assert abs(n_s(1.0, 5, table4).value - want) < 1e-15


def test_n_s_tail_bound_is_honest(table6):
    # the certified bound must cover the actual movement when the cutoff
    # grows tenfold
    for pmax in (100, 1000, 10_000):
        a = n_s(0.0, pmax, table6)
        b = n_s(0.0, 10 * pmax, table6)
        moved = abs(math.log(a.value) - math.log(b.value))
        assert moved <= a.tail_bound
        assert a.tail_bound == 2.0 / pmax
    # higher s: tail 2/(s+1)·pmax^-(s+1)
    a = n_s(1.0, 100, table6)
    b = n_s(1.0, 1000, table6)
    assert abs(math.log(a.value) - math.log(b.value)) <= a.tail_bound
    assert a.tail_bound == 1.0 / 100.0**2


def test_n_s_bracket_consistency(table6, table7):
    a = n_s(0.0, 10**6, table6)
    b = n_s(0.0, 10**7, table7)
    lo, hi = a.bracket()
    assert lo <= b.value <= hi
    lo7, hi7 = b.bracket()
    assert hi7 - lo7 < hi - lo  # tighter truncation, tighter bracket


def test_constant_identities(table6):
    # power-of-two scaling commutes with rounding: the 4× identity is bitwise
    assert linnik_constant(10**6, table6) == 4.0 * f_zero(10**6, table6)
    assert f_zero(10**6, table6) == 0.25 * math.pi * n_s(0.0, 10**6, table6).value
    # rough magnitude pin: f(0) is a positive density below 1
    assert 0.3 < f_zero(10**6, table6) < 0.9


def test_chi_phi_small_values():
    # by hand: 1 − 1/2 + 1/4 − 1/6 + 1/6 = 3/4
    [(d, v)] = chi_phi_partial(10)
    assert d == 10 and abs(v - 0.75) < 1e-15
    # checkpoints slice the same cumulative sum
    pts = chi_phi_partial(100, checkpoints=[1, 2, 10, 99, 100])
    assert pts[0] == (1, 1.0)
    assert pts[1] == (2, 1.0)          # even d contributes nothing
    assert abs(pts[2][1] - 0.75) < 1e-15
    assert pts[3][1] == pts[4][1]      # 100 is even
    seq = chi_phi_partial(100, checkpoints=list(range(1, 101)))
    direct = 0.0
    for d in range(1, 101):
        if d % 2 == 1:
            phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
            direct += (1.0 if d % 4 == 1 else -1.0) / phi
        assert abs(seq[d - 1][1] - direct) < 1e-12


def cumsum_chi_over_phi(dmax: int) -> np.ndarray:
    """Reference partial sums: np.cumsum of χ(d)/euler_phi(d) for d ≤ dmax."""
    table = sieve_primes(max(dmax, 2))
    terms = np.zeros(dmax + 1)
    for d in range(1, dmax + 1):
        terms[d] = chi(d) / euler_phi(d, table)
    return np.cumsum(terms)


@pytest.mark.parametrize("dmax", [1, 2, 3, 4, 8, 9, 24, 25, 26, 2 * 10**4])
def test_chi_phi_matches_euler_phi_bitwise(dmax):
    want = cumsum_chi_over_phi(dmax)
    got = chi_phi_partial(dmax, checkpoints=list(range(1, dmax + 1)))
    assert [c for c, _ in got] == list(range(1, dmax + 1))
    assert np.array_equal(np.array([v for _, v in got]), want[1:]), dmax


def chi_phi_full_range(dmax: int) -> np.ndarray:
    """Oracle: the partial sums Σ_{d ≤ D} χ(d)/φ(d) for every D ≤ dmax from a
    φ sieve over all d ≤ dmax, even d included as zero terms."""
    phi = np.arange(dmax + 1, dtype=np.int64)
    cof = phi.copy()
    for p in primes_upto(math.isqrt(dmax)).tolist():
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= dmax:
            cof[q::q] //= p
            q *= p
    big = np.flatnonzero(cof > 1)
    phi[big] -= phi[big] // cof[big]
    d = np.arange(dmax + 1, dtype=np.int64)
    terms = np.zeros(dmax + 1)
    odd = d[1:][d[1:] % 2 == 1]
    signs = np.where(odd % 4 == 1, 1.0, -1.0)
    terms[odd] = signs / phi[odd]
    return np.cumsum(terms)


@pytest.mark.parametrize("dmax", [1, 2, 3, 4, 1000, 10**5 + 1])
def test_chi_phi_odd_sieve_matches_full_range_bitwise(dmax):
    # every checkpoint, odd and even, against the sieve over all d ≤ dmax
    want = chi_phi_full_range(dmax)
    got = chi_phi_partial(dmax, checkpoints=list(range(1, dmax + 1)))
    assert np.array_equal(np.array([v for _, v in got]), want[1:]), dmax
    assert chi_phi_partial(dmax) == [(dmax, float(want[dmax]))]


def chi_phi_odd_int64(dmax: int) -> np.ndarray:
    """Oracle: the odd-slot partial sums as an int64 φ sieve divided into a
    ±1 sign column, slot j standing for D = 2j + 1."""
    phi = np.arange(1, dmax + 1, 2, dtype=np.int64)
    cof = phi.copy()
    for p in primes_upto(math.isqrt(dmax))[1:].tolist():
        phi[p // 2::p] -= phi[p // 2::p] // p
        q = p
        while q <= dmax:
            cof[q // 2::q] //= p
            q *= p
    big = np.flatnonzero(cof > 1)
    phi[big] -= phi[big] // cof[big]
    signs = np.ones(phi.size)
    signs[1::2] = -1.0
    return np.cumsum(signs / phi)


@pytest.mark.parametrize("dmax", [1, 2, 3, 999, 10**4 + 1, 10**6])
def test_chi_phi_int32_matches_int64_signs_bitwise(dmax):
    want = chi_phi_odd_int64(dmax)
    got = chi_phi_partial(dmax, checkpoints=list(range(1, dmax + 1)))
    vals = np.array([v for _, v in got])
    assert np.array_equal(vals.view(np.uint64),
                          want[np.arange(dmax) // 2].view(np.uint64)), dmax


def test_chi_phi_peak_memory():
    # int32 φ and cofactor, and one ±1/φ column summed in place: 10.6 MiB at
    # D = 1e6, against 21.8 MiB for int64 columns and a separate sign column
    tracemalloc.start()
    try:
        chi_phi_partial(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20, peak / 2**20


def n_s_unblocked(s: float, pmax: float, table) -> float:
    """Oracle: the truncated product N(s) as one whole-array expression."""
    n = table.prime_count(pmax)
    ps = table.primes[:n].astype(np.float64)
    terms = chi_vec(table.primes[:n]) / (ps ** (s + 1.0) * (ps - 1.0))
    return math.exp(float(np.sum(np.log1p(terms))))


@pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
def test_blocked_n_s_matches_unblocked_bitwise(table6, s):
    # 2¹⁶ − 1, 2¹⁶ and 2¹⁶ + 1 primes put the cut just inside, at and just
    # past the first block's end
    edges = [int(table6.primes[2**16 + k - 1]) for k in (-1, 0, 1)]
    for pmax in (2, 3, *edges, 10**6):
        got = n_s(s, pmax, table6)
        assert got.value == n_s_unblocked(s, pmax, table6), (s, pmax)
        assert got.tail_bound == 2.0 / (s + 1.0) * pmax ** (-(s + 1.0))


def test_linnik_constant_peak_memory(table7):
    # per block only the 5.1 MiB log1p column over the primes ≤ 1e7 stays;
    # the whole-array expression peaked at 20.3 MiB
    tracemalloc.start()
    try:
        linnik_constant(10**7, table7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20, peak / 2**20


def test_chi_phi_converges_to_f_zero(table6):
    tail = chi_phi_partial(10**4)[0][1]
    assert abs(tail - f_zero(10**6, table6)) < 1e-3


def test_chi_phi_validation():
    with pytest.raises(DomainError):
        chi_phi_partial(0)
    with pytest.raises(DomainError):
        chi_phi_partial(10, checkpoints=[11])
    with pytest.raises(DomainError):
        chi_phi_partial(10, checkpoints=[0])


def test_n_s_validation(table4):
    with pytest.raises(DomainError):
        n_s(-0.5, 100, table4)
    with pytest.raises(DomainError):
        n_s(0.0, 1, table4)
    with pytest.raises(DomainError):
        n_s(0.0, 2 * 10**4, table4)


def test_n_s_rejects_non_finite_s(table4):
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            n_s(bad, 100, table4)


def test_linnik_empirical(table4):
    rep = linnik_empirical(table4, 1e4)
    direct = sum(r2(int(p) - 1, table4) for p in table4.primes)
    assert rep["sum"] == direct
    want_main = linnik_constant(10**4, table4) * 1e4 / math.log(1e4)
    assert abs(rep["main_term"] - want_main) < 1e-12 * want_main
    assert rep["ratio"] == rep["sum"] / rep["main_term"]
    # desk-scale sanity: arithmetic count within 2x of the main term
    assert 0.5 < rep["ratio"] < 2.0
    with pytest.raises(DomainError):
        linnik_empirical(table4, 2.0)
    with pytest.raises(DomainError):
        linnik_empirical(table4, 2e4)


def test_linnik_empirical_rejects_nan(table4):
    # NaN compares false with everything, so it must not pass as X > 2
    with pytest.raises(DomainError):
        linnik_empirical(table4, math.nan)


def test_lattice_count_every_integer_x():
    # the lattice count against the r₂ sums by trial division and by the
    # per-prime rows, for every X ≤ 3000
    table = sieve_primes(3000)
    ps = table.primes
    scalar = np.cumsum([r2(int(p) - 1, table) for p in ps])
    bulk = np.cumsum(linnik_rows(table, 0, 3000)[0])
    assert np.array_equal(scalar, bulk)
    for x in range(3, 3001):
        n = table.prime_count(x)
        assert linnik_empirical(table, x)["sum"] == bulk[n - 1], x


@pytest.mark.parametrize("x", [2.5, 100.5, 10**4])
def test_lattice_count_fractional_x_and_table_limit(table4, x):
    ps = table4.primes[: table4.prime_count(x)]
    want = int(np.sum(linnik_rows(table4, 0, x)[0]))
    assert want == sum(r2(int(p) - 1, table4) for p in ps)
    assert linnik_empirical(table4, x)["sum"] == want


def test_lattice_count_at_one_million(table6):
    # against the divisor character sums of every p − 1
    ps = table6.primes
    want = 4 * int(np.sum(divisor_sum(ps - 1, 1, 10**6, chi=True)))
    assert linnik_empirical(table6, 1e6)["sum"] == want
