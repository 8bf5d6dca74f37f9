import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from linniklab.arith import chi_vec, euler_phi, sieve_primes
from linniklab.errors import DomainError, ResourceError
from linniklab.expsums import (
    _two_prod,
    bv_aggregate,
    e_term,
    i_j,
    major_arc_gap,
    minor_arc_report,
    phase_mod1,
    s_ld,
)

LN210 = math.log(210.0)


def test_s_at_alpha_zero_is_chebyshev():
    tab = sieve_primes(100)
    v = s_ld(tab, 1, 1, (1.0, 10.0), 0.0)
    assert abs(v.real - LN210) < 1e-12 and v.imag == 0.0
    # half-open range: (2, 10] drops p = 2
    v2 = s_ld(tab, 1, 1, (2.0, 10.0), 0.0)
    assert abs(v2.real - (LN210 - math.log(2.0))) < 1e-12


def test_s_hand_value_single_prime():
    tab = sieve_primes(100)
    # J = (6, 7] contains only p = 7
    v = s_ld(tab, 1, 1, (6.0, 7.0), 0.25)
    want = math.log(7.0) * cmath.exp(2j * math.pi * (0.25 * 7 % 1.0))
    assert abs(v - want) < 1e-12


def test_s_conjugate_symmetry(table4):
    rng = random.Random(5)
    for _ in range(12):
        alpha = rng.uniform(-3, 3)
        v = s_ld(table4, 1, 1, (100.0, 1e4), alpha)
        w = s_ld(table4, 1, 1, (100.0, 1e4), -alpha)
        assert abs(w - v.conjugate()) < 1e-8


def test_residue_partition(table4):
    alpha = 0.371
    j = (10.0, 5000.0)
    full = s_ld(table4, 1, 1, j, alpha)
    parts = s_ld(table4, 1, 4, j, alpha) + s_ld(table4, 3, 4, j, alpha)
    # no prime dividing 4 lies in (10, 5000], so the classes partition J
    assert abs(full - parts) < 1e-9
    j2 = (1.0, 5000.0)
    full2 = s_ld(table4, 1, 2, j2, alpha)
    corr = math.log(2.0) * cmath.exp(2j * math.pi * (2 * alpha % 1.0))
    assert abs(s_ld(table4, 1, 1, j2, alpha) - (full2 + corr)) < 1e-9


def test_chi_twisted_combination(table4):
    # Σ_l χ(l)·S_{l,4} equals the χ-twisted prime sum, computed directly
    alpha = -0.2183
    j = (3.0, 9000.0)
    combo = s_ld(table4, 1, 4, j, alpha) - s_ld(table4, 3, 4, j, alpha)
    sl = table4.prime_slice(*j)
    ps = table4.primes[sl]
    ws = np.log(ps.astype(np.float64))
    ang = 2.0 * math.pi * phase_mod1(alpha, ps)
    direct = complex(np.sum(ws * chi_vec(ps) * np.cos(ang)),
                     np.sum(ws * chi_vec(ps) * np.sin(ang)))
    assert abs(combo - direct) < 1e-9


def test_s_validation(table4):
    with pytest.raises(DomainError):
        s_ld(table4, 1, 0, (1.0, 10.0), 0.0)
    with pytest.raises(DomainError):
        s_ld(table4, 2, 4, (1.0, 10.0), 0.0)
    with pytest.raises(DomainError):
        s_ld(table4, 1, 1, (10.0, 10.0), 0.0)
    with pytest.raises(DomainError):
        s_ld(table4, 1, 1, (1.0, 2e4), 0.0)


def test_alpha_must_be_finite(table4):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            s_ld(table4, 1, 1, (1.0, 10.0), bad)
        with pytest.raises(DomainError):
            i_j((1.0, 10.0), bad)


def s_ld_unblocked(table, l, d, j, alpha):
    """Oracle: ``s_ld`` as one whole-array expression over the class."""
    sl = table.prime_slice(*j)
    ps = table.primes[sl]
    ws = np.log(ps.astype(np.float64))
    if d > 1:
        mask = np.mod(ps, d) == l % d
        ps, ws = ps[mask], ws[mask]
    if ps.size == 0:
        return 0.0 + 0.0j
    ang = (2.0 * math.pi) * phase_mod1(alpha, ps)
    return complex(float(np.sum(ws * np.cos(ang))),
                   float(np.sum(ws * np.sin(ang))))


@pytest.mark.parametrize("alpha", [0.1, 1 / 3, 1e-9, 12345.678])
@pytest.mark.parametrize("l,d", [(1, 1), (1, 4), (3, 4), (2, 7), (6, 7)])
def test_blocked_s_ld_matches_unblocked_bitwise(table6, l, d, alpha):
    # (0, 1e6] holds 78,498 primes, more than one block of 2¹⁶; the d = 1
    # ranges also cut a block short at either end
    for j in [(0.0, 1e6), (2.0, 9.9e5), (1e5, 1e6)]:
        assert s_ld(table6, l, d, j, alpha) == s_ld_unblocked(table6, l, d, j, alpha)


def test_blocked_s_ld_block_edges_and_empty_class(table6):
    # exactly one block of 2¹⁶ primes, and one prime past it
    for n in (2**16, 2**16 + 1):
        j = (0.0, float(table6.primes[n - 1]))
        assert table6.primes[table6.prime_slice(*j)].size == n
        assert s_ld(table6, 1, 1, j, 0.3) == s_ld_unblocked(table6, 1, 1, j, 0.3)
    # no prime ≤ 1e6 is 1 mod 999983 (1 and 999984 are not prime), nor
    # 3 mod 4 in (13, 18], which holds 17 alone
    assert s_ld(table6, 1, 999983, (0.0, 1e6), 0.3) == 0.0 + 0.0j
    assert s_ld(table6, 3, 4, (13.0, 18.0), 0.3) == 0.0 + 0.0j
    assert s_ld(table6, 1, 4, (13.0, 18.0), 0.3) == s_ld_unblocked(table6, 1, 4, (13.0, 18.0), 0.3)


def test_s_ld_peak_memory(table7):
    # the whole-array expression peaks at 35.5 MiB over the primes ≤ 1e7;
    # per block only the two full-length cos and sin columns (10.1 MiB) stay
    tracemalloc.start()
    try:
        s_ld(table7, 1, 1, (0.0, 1e7), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak / 2**20


def phase_mod1_np_mod(alpha, y):
    """Oracle: ``phase_mod1`` with both reductions taken by ``np.mod``."""
    p, err = _two_prod(np.float64(alpha), np.asarray(y, dtype=np.float64))
    return np.mod(np.mod(p, 1.0) + err, 1.0)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.array_equal(got[ok].view(np.uint64), want[ok].view(np.uint64))


def test_phase_mod1_matches_np_mod_bitwise():
    rng = np.random.default_rng(20261019)
    ints = np.concatenate([np.arange(0, 1000), [2**31 - 1, 2**31],
                           rng.integers(0, 2**31, 20_000)]).astype(np.float64)
    reals = np.concatenate([[-0.0, 0.0, 0.5, -0.5, -2.5, 1e-300, -1e-300],
                            rng.uniform(-2.0**31, 2.0**31, 20_000),
                            rng.uniform(-1.0, 1.0, 1000)])
    alphas = [0.0, -0.0, 5e-324, -5e-324, 1e-9, 0.5, 1.0, -0.2082, 12345.678,
              -7.5e5, 1e13 / 1e7, math.pi]
    alphas += rng.uniform(-1e4, 1e4, 30).tolist()
    for alpha in alphas:
        for y in (ints, reals):
            assert_same_bits(phase_mod1(alpha, y), phase_mod1_np_mod(alpha, y))
        for y in (7.0, -7.0, 0.25, 2.0**31):       # 0-d input, as i_j passes
            assert_same_bits(phase_mod1(alpha, y), phase_mod1_np_mod(alpha, y))
    # products that overflow, and NaN, reduce to NaN either way
    special = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308])
    with np.errstate(invalid="ignore", over="ignore"):
        for alpha in (1.0, 10.0, -0.5):
            assert_same_bits(phase_mod1(alpha, special),
                             phase_mod1_np_mod(alpha, special))


def test_phase_reduction_vs_exact_rational():
    rng = random.Random(20260814)
    for _ in range(300):
        alpha = rng.uniform(-4.0, 4.0)
        y = rng.randrange(2, 10**12)
        got = float(phase_mod1(alpha, y))
        exact = Fraction(alpha) * y % 1
        d = abs(got - float(exact))
        assert min(d, 1.0 - d) <= 1e-14, (alpha, y)
    # wraparound exactness for a dyadic α
    assert float(phase_mod1(0.5, 12345678901)) == 0.5
    assert float(phase_mod1(0.25, 10**12)) == 0.0


def _i_mp(j, alpha):
    # independent evaluation at 60 digits through the endpoint difference
    with mpmath.workdps(60):
        lo, hi, a = mpmath.mpf(j[0]), mpmath.mpf(j[1]), mpmath.mpf(alpha)
        if a == 0:
            return complex(hi - lo)
        v = (mpmath.expjpi(2 * a * hi) - mpmath.expjpi(2 * a * lo)) / (
            2j * mpmath.pi * a
        )
        return complex(v)


def test_i_alpha_zero_exact():
    assert i_j((100.0, 7100.0), 0.0) == 7000.0 + 0.0j


def test_i_matches_high_precision_difference_form():
    j = (1000.0, 7000.0)
    L = 6000.0
    for alpha in (1e-9, 1e-7, 0.001, 0.1237, 0.9999, 3.75,
                  1.0 / 6000.0, 2.0 / 6000.0, 0.4999999999 / 6000.0):
        got = i_j(j, alpha)
        want = _i_mp(j, alpha)
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-11 * L, alpha
        # triangle bounds: |I| ≤ |J| and ≤ 1/(π|α|)
        assert abs(got) <= L * (1 + 1e-12)
        if alpha:
            assert abs(got) <= 1.0 / (math.pi * abs(alpha)) * (1 + 1e-12)


def test_i_near_integer_alpha_length():
    # α|J| within one ulp of 1: the naive endpoint difference loses every
    # digit; the product form must stay within 1e-11·|J| of the true value
    j = (0.0, 6000.0)
    alpha = 1.0 / 6000.0
    got = i_j(j, alpha)
    want = _i_mp(j, alpha)
    assert abs(got - want) <= 1e-11 * 6000.0
    assert abs(got) < 1e-8  # genuinely tiny, not O(1) garbage


def test_e_term_values(table4):
    assert abs(e_term(table4, 10.0, 1, 1) - (LN210 - 10.0)) < 1e-12
    # θ(9973) − 9973 with the table's own weights
    n = table4.prime_count(9973.0)
    want = float(np.sum(np.log(table4.primes[:n].astype(np.float64)))) - 9973.0
    assert abs(e_term(table4, 9973.0, 1, 1) - want) < 1e-9


def test_e_term_against_sympy_recount(table4):
    sympy = pytest.importorskip("sympy")
    for q, a, x in ((3, 1, 997.0), (3, 2, 997.0), (4, 1, 2500.0), (4, 3, 2500.0)):
        s = sum(math.log(p) for p in sympy.primerange(2, int(x) + 1) if p % q == a)
        assert abs(e_term(table4, x, q, a) - (s - x / euler_phi(q, table4))) < 1e-9


def test_e_term_validation(table4):
    with pytest.raises(DomainError):
        e_term(table4, 10.0, 4, 2)
    with pytest.raises(DomainError):
        e_term(table4, 2e4, 3, 1)
    with pytest.raises(DomainError):
        e_term(table4, 0.0, 1, 1)


def test_bv_single_modulus_value(table4):
    # Q=1: sup_y |θ(y) − y| on (0,10] is at y=10: 10 − ln 210
    assert abs(bv_aggregate(table4, 10.0, 1) - (10.0 - LN210)) < 1e-12


def test_bv_against_dense_grid():
    tab = sieve_primes(50)
    x, q_max = 30.0, 3
    got = bv_aggregate(tab, x, q_max)
    # independent dense-grid evaluation of each sup
    ys = np.linspace(1e-9, x, 600001)
    total = 0.0
    for q in range(1, q_max + 1):
        best = 0.0
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            ps = [int(p) for p in tab.primes if p <= x and p % q == a % q]
            ws = np.cumsum([math.log(p) for p in ps])
            idx = np.searchsorted(ps, ys, side="right")
            ev = np.where(idx > 0, np.concatenate(([0.0], ws))[idx], 0.0)
            best = max(best, float(np.max(np.abs(ev - ys / euler_phi(q, tab)))))
        total += best
    assert abs(got - total) < 1e-3
    assert got >= total - 1e-12  # grid can only undershoot the sup


def test_bv_zero_q_and_budget(table4):
    assert bv_aggregate(table4, 100.0, 0) == 0.0
    with pytest.raises(ResourceError):
        bv_aggregate(table4, 1e4, 1000, work_budget=10_000)
    with pytest.raises(DomainError):
        bv_aggregate(table4, 1e4, -1)


def test_major_arc_gap(table4):
    rep = major_arc_gap(table4, 1e4, 1e-5, lambda0=0.5, delta=1e-4)
    assert rep["alpha_exceeds_delta"] is False
    assert rep["s"] == s_ld(table4, 1, 1, (5e3, 1e4), 1e-5)
    assert rep["i"] == i_j((5e3, 1e4), 1e-5)
    assert rep["gap_over_x"] == abs(rep["s"] - rep["i"]) / 1e4
    assert major_arc_gap(table4, 1e4, 1e-3, delta=1e-4)["alpha_exceeds_delta"] is True
    assert major_arc_gap(table4, 1e4, 1e-3)["alpha_exceeds_delta"] is None
    with pytest.raises(DomainError):
        major_arc_gap(table4, 1e4, 0.0, lambda0=1.5)


def test_major_arc_gap_explicit_range_and_class(table4):
    # an explicit J leaves λ₀ unread, even outside (0, 1)
    for lam0 in (0.5, 0.0, 2.0):
        rep = major_arc_gap(table4, 1e3, 0.1, lambda0=lam0, j=(10.0, 500.0), l=3, d=4)
        assert rep["s"] == s_ld(table4, 3, 4, (10.0, 500.0), 0.1)
        assert rep["i"] == i_j((10.0, 500.0), 0.1)
        assert rep["gap_over_x"] == abs(rep["s"] - rep["i"]) / 1e3
    for bad_x in (0.0, -5.0, math.nan):
        with pytest.raises(DomainError):
            major_arc_gap(table4, bad_x, 0.1, j=(1.0, 100.0))


def test_minor_arc_report(table4):
    rep = minor_arc_report(table4, 1e4, 1, 5, 0.2)
    assert rep["ratio"] == rep["s_abs"] / rep["bound"]
    lx = math.log(1e4)
    want = (1e4 / math.sqrt(5) + 1e4**0.8 + math.sqrt(5e4)) * lx**4
    assert abs(rep["bound"] - want) < 1e-6
    assert rep["s_abs"] == abs(s_ld(table4, 1, 1, (0.0, 1e4), 0.2))


def test_minor_arc_validation(table4):
    with pytest.raises(DomainError):
        minor_arc_report(table4, 1e4, 1, 0, 0.2)
    with pytest.raises(DomainError):
        minor_arc_report(table4, 1e4, 0, 5, 0.0)
    with pytest.raises(DomainError):
        minor_arc_report(table4, 1e4, 2, 4, 0.5)
    with pytest.raises(DomainError):
        minor_arc_report(table4, 1e4, 1, 5, 0.2 + 0.05)
    with pytest.raises(DomainError):
        minor_arc_report(table4, 5e4, 1, 5, 0.2)
