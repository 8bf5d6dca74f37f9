import math
import random
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from linniklab import gamma as gamma_mod
from linniklab.arith import linnik_rows, r2, sieve_primes
from linniklab.cfrac import certified_named
from linniklab.errors import DomainError, NumericError, ResourceError
from linniklab.gamma import (
    Instance,
    b_j_volume,
    find_triples,
    gamma_sharp,
    gamma_smoothed,
    gamma_split,
    hooley_f_omega,
    hooley_sigma_prime,
)
from linniklab.smoothing import kernel_new, theta_eval

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


def _r2(ps, table):
    """Oracle: r(p − 1) for each p, by trial division."""
    return np.array([r2(int(p) - 1, table) for p in ps], dtype=np.int64)


def _grid(inst, table):
    # full residual cube for the O(P³) reference evaluations
    sl = table.prime_slice(inst.lambda0 * inst.x, inst.x)
    ps = table.primes[sl]
    w = np.log(ps.astype(np.float64))
    l1, l2, l3, eta = inst.floats
    res = ((l1 * ps + eta)[:, None] + l2 * ps[None, :])[:, :, None] + l3 * ps[None, None, :]
    return ps, w, res


def _brute_sharp(inst, table):
    ps, w, res = _grid(inst, table)
    # guard: no residual within 1e-9 of the window edge, so float rounding
    # cannot flip a boundary triple between the two evaluation routes
    assert float(np.min(np.abs(np.abs(res) - inst.eps))) > 1e-9
    r2w = _r2(ps, table) * w
    inwin = (np.abs(res) < inst.eps).astype(np.float64)
    val = float(np.einsum("i,j,ijk,k->", w, w, inwin, r2w))
    return val, int(inwin.sum())


def _brute_smoothed(inst, kern, table):
    ps, w, res = _grid(inst, table)
    r2w = _r2(ps, table) * w
    th = theta_eval(kern, res)
    return float(np.einsum("i,j,ijk,k->", w, w, th, r2w))


def _chi_int(n):
    return 1 if n % 4 == 1 else (-1 if n % 4 == 3 else 0)


def _brute_split_sums(inst, kern, table, d_split):
    sympy = pytest.importorskip("sympy")
    ps, w, res = _grid(inst, table)
    th = theta_eval(kern, res)
    t_hi = inst.x / d_split
    s = np.zeros((3, len(ps)))
    for i, p in enumerate(ps):
        for dv in sympy.divisors(int(p) - 1):
            c = _chi_int(dv)
            if dv <= d_split:
                s[0, i] += c
            elif dv < t_hi:
                s[1, i] += c
            else:
                s[2, i] += c
    return [float(np.einsum("i,j,ijk,k->", w, w, th, s[m] * w)) for m in range(3)]


# ------------------------------------------------------------------- Γ sharp

def test_parity_forces_empty_window(table4):
    # all primes in (3, 30] are odd, so p1−p2−p3 is odd and never in (−.5,.5)
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.1)
    assert gamma_sharp(inst, table4) == (0.0, 0)


def test_sharp_matches_brute_x30(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05)
    val, cnt = gamma_sharp(inst, table4)
    want, wcnt = _brute_sharp(inst, table4)
    assert cnt == wcnt and cnt == 8
    assert abs(val - want) <= 1e-12 * abs(want)


def test_sharp_matches_brute_x300_x500(table4):
    for x in (300.0, 500.0):
        inst = Instance(1.0, -1.0, -1.0, eta=0.3, eps=2.5, x=x, lambda0=0.05)
        val, cnt = gamma_sharp(inst, table4)
        want, wcnt = _brute_sharp(inst, table4)
        assert cnt == wcnt
        assert abs(val - want) <= 1e-12 * abs(want)
    # irrational coefficients
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.2, eps=1.0, x=300.0, lambda0=0.05)
    val, cnt = gamma_sharp(inst, table4)
    want, wcnt = _brute_sharp(inst, table4)
    assert cnt == wcnt and cnt > 0
    assert abs(val - want) <= 1e-12 * abs(want)


def test_sharp_eps_zero(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.0, x=100.0, lambda0=0.1)
    assert gamma_sharp(inst, table4) == (0.0, 0)


def test_sharp_monotone_in_eps(table4):
    prev_v, prev_c = -1.0, -1
    for eps in (0.3, 0.8, 1.3, 2.0, 3.0, 5.0):
        inst = Instance(SQ2, -1.0, -SQ3, eta=0.1, eps=eps, x=500.0, lambda0=0.1)
        v, c = gamma_sharp(inst, table4)
        assert v >= prev_v and c >= prev_c
        prev_v, prev_c = v, c


def test_sharp_scaling_invariance(table4):
    base = Instance(SQ2, -1.0, -SQ3, eta=0.2, eps=1.0, x=400.0, lambda0=0.05)
    v0, c0 = gamma_sharp(base, table4)
    assert c0 > 0
    for c in (0.5, 3.0):
        scaled = Instance(c * SQ2, -c, -c * SQ3, eta=c * 0.2, eps=c * 1.0,
                          x=400.0, lambda0=0.05)
        v, cc = gamma_sharp(scaled, table4)
        assert cc == c0
        assert abs(v - v0) <= 1e-12 * abs(v0)


# ---------------------------------------------------------------- Γ smoothed

def test_smoothed_matches_brute(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05)
    kern = kernel_new(0.5, 3)
    got = gamma_smoothed(inst, kern, table4)
    want = _brute_smoothed(inst, kern, table4)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    assert got <= gamma_sharp(inst, table4)[0]
    inst2 = Instance(SQ2, -1.0, -SQ3, eta=0.2, eps=1.0, x=300.0, lambda0=0.05)
    kern2 = kernel_new(1.0, 2)
    got2 = gamma_smoothed(inst2, kern2, table4)
    want2 = _brute_smoothed(inst2, kern2, table4)
    assert abs(got2 - want2) <= 1e-12 * max(1.0, abs(want2))
    assert 0.0 < got2 <= gamma_sharp(inst2, table4)[0]


def test_smoothed_plateau_equals_sharp(table4):
    # residuals are n + 0.5 for integer n; the in-window ones, ±0.5 and ±1.5,
    # all sit on the closed plateau [−3ε/4, 3ε/4] where θ is exactly 1
    inst = Instance(1.0, -1.0, -1.0, eta=0.5, eps=2.0, x=30.0, lambda0=0.05)
    sharp, cnt = gamma_sharp(inst, table4)
    smooth = gamma_smoothed(inst, kernel_new(2.0, 4), table4)
    assert cnt > 0
    assert abs(smooth - sharp) <= 1e-12 * sharp


def test_smoothed_matches_exact_theta_at_k20(table4):
    # dyadic λ, η make every residual exact in both routes, and ε = 2.5 with
    # k = 20 makes A and δ = 1/32 exact, so float θ is the only approximation
    inst = Instance(1.0, -1.0078125, -0.998046875, eta=0.3125, eps=2.5, x=300.0,
                    lambda0=0.05)
    k = 20
    kern = kernel_new(2.5, k)
    ps, w, res = _grid(inst, table4)
    r2w = _r2(ps, table4) * w
    a, delta, eps = Fraction(kern.a), Fraction(kern.delta), Fraction(inst.eps)
    terms, band = [], 0
    for i, j, m in zip(*np.nonzero(np.abs(res) < inst.eps)):
        r = abs(Fraction(float(res[i, j, m])))
        th = Fraction(1)
        if r > 3 * eps / 4:
            band += 1
            u = (r - a) / delta + Fraction(k, 2)
            th -= sum((-1) ** n * math.comb(k, n) * (u - n) ** k
                      for n in range(math.floor(u) + 1)) / math.factorial(k)
        terms.append(float(th) * w[i] * w[j] * r2w[m])
    want = math.fsum(terms)
    assert band > 100
    assert abs(gamma_smoothed(inst, kern, table4) - want) <= 1e-13 * want


def test_smoothed_kernel_mismatch(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05)
    with pytest.raises(DomainError):
        gamma_smoothed(inst, kernel_new(0.25, 3), table4)


# ------------------------------------------------------------------- Γ split

def test_split_matches_divisor_oracle(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05)
    kern = kernel_new(0.5, 3)
    br = gamma_split(inst, kern, table4, d_split=5.0)
    want = _brute_split_sums(inst, kern, table4, 5.0)
    for got, ref in zip((br.g1, br.g2, br.g3), want):
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    assert abs(br.gamma0 - 4.0 * sum(want)) <= 1e-12 * max(1.0, br.gamma0)
    assert br.gamma == gamma_sharp(inst, table4)[0]
    assert br.triple_count == 8

    inst2 = Instance(SQ2, -1.0, -SQ3, eta=0.2, eps=1.0, x=300.0, lambda0=0.05)
    kern2 = kernel_new(1.0, 2)
    br2 = gamma_split(inst2, kern2, table4, d_split=9.0)
    want2 = _brute_split_sums(inst2, kern2, table4, 9.0)
    for got, ref in zip((br2.g1, br2.g2, br2.g3), want2):
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_split_identity_and_ordering(table4):
    rng = random.Random(20260814)
    for _ in range(6):
        lam = [rng.choice((-1, 1)) * rng.uniform(0.3, 3.0) for _ in range(3)]
        if math.copysign(1, lam[0]) == math.copysign(1, lam[1]) == math.copysign(1, lam[2]):
            lam[2] = -lam[2]
        x = rng.uniform(1000.0, 3000.0)
        eps = rng.uniform(0.5, 4.0)
        inst = Instance(lam[0], lam[1], lam[2], eta=rng.uniform(-5, 5),
                        eps=eps, x=x, lambda0=rng.uniform(0.03, 0.2))
        kern = kernel_new(eps, rng.choice((2, 3, 5)))
        d = rng.uniform(2.0, math.sqrt(x) - 1.0)
        br = gamma_split(inst, kern, table4, d_split=d)
        # identity re-checked from the returned fields
        assert abs(4.0 * (br.g1 + br.g2 + br.g3) - br.gamma0) \
            <= 1e-9 * max(1.0, abs(br.gamma0))
        assert br.gamma >= br.gamma0 >= 0.0


def test_split_d_invariance(table4):
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.2, eps=1.0, x=300.0, lambda0=0.05)
    kern = kernel_new(1.0, 2)
    runs = [gamma_split(inst, kern, table4, d_split=d) for d in (4.2, 9.0, 16.5)]
    base = runs[0]
    for br in runs[1:]:
        # gamma0's column does not depend on D: bitwise identical
        assert br.gamma0 == base.gamma0
        assert br.gamma == base.gamma
        assert br.triple_count == base.triple_count
        s0 = base.g1 + base.g2 + base.g3
        s1 = br.g1 + br.g2 + br.g3
        assert abs(s1 - s0) <= 1e-12 * max(1.0, abs(s0))


def test_split_mass_check_catches_r2_error(table4, monkeypatch):
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.2, eps=1.0, x=300.0, lambda0=0.05)
    kern = kernel_new(1.0, 2)
    base = table4.primes[table4.prime_slice(inst.lambda0 * inst.x, inst.x)]
    bad_p3 = int(base[len(base) // 2])

    def r2_off_at_one(table, lo, hi):
        r, wx = linnik_rows(table, lo, hi)
        r[table.primes[table.prime_slice(lo, hi)] == bad_p3] += 4
        return r, wx

    monkeypatch.setattr(gamma_mod, "linnik_rows", r2_off_at_one)
    with pytest.raises(NumericError, match=f"p3={bad_p3}"):
        gamma_split(inst, kern, table4, d_split=9.0)


def test_split_validation(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05)
    kern = kernel_new(0.5, 3)
    for bad_d in (1.0, 0.5, math.sqrt(30.0), 12.0):
        with pytest.raises(DomainError):
            gamma_split(inst, kern, table4, d_split=bad_d)
    with pytest.raises(DomainError):
        gamma_split(inst, kernel_new(0.4, 3), table4, d_split=3.0)


def test_thread_determinism(table4):
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.1, eps=2.0, x=2000.0, lambda0=0.3)
    kern = kernel_new(2.0, 4)
    runs = [gamma_split(inst, kern, table4, d_split=11.0, threads=t)
            for t in (1, 4)]
    for field in ("gamma", "gamma0", "g1", "g2", "g3", "triple_count"):
        assert getattr(runs[0], field) == getattr(runs[1], field)


def _box_scan(inst, eng, weights):
    # lo and hi for every pair of the box, with the scan's float expressions;
    # returns the sharp Γ of the weight triple, the count, the hits (p1, p2,
    # p3, residual) in (p₁, p₂) order, the lo < hi mask and the two window edges
    lams = inst.floats
    l1, l2, eta = lams[eng.perm[0]], lams[eng.perm[1]], lams[3]
    l2p2 = l2 * eng.p2.astype(np.float64)
    nc = (-(l1 * eng.p1.astype(np.float64) + eta))[:, None] - l2p2
    lo_edge, hi_edge = nc - inst.eps, nc + inst.eps
    mag = abs(l1) * float(eng.p1.max()) + float(np.abs(l2p2).max()) + abs(eta)
    if inst.eps <= 2.0 * float(np.spacing(mag)):
        lo_edge = np.minimum(lo_edge, np.nextafter(nc, -np.inf))
        hi_edge = np.maximum(hi_edge, np.nextafter(nc, np.inf))
    lo = eng.zs.searchsorted(lo_edge, side="right")
    hi = eng.zs.searchsorted(hi_edge, side="left")
    hits = ([], [], [], [])
    for i, j in zip(*np.nonzero(hi > lo)):
        for k in range(lo[i, j], hi[i, j]):
            for col, v in zip(hits, (eng.p1[i], eng.p2[j], eng.p3[eng.order[k]],
                                     eng.zs[k] - nc[i, j])):
                col.append(v)
    w1, w2, w3 = weights
    pref = np.concatenate([[0.0], np.cumsum(w3[eng.order])])
    val = float(np.sum(w1[:, None] * w2[None, :] * (pref[hi] - pref[lo])))
    return val, int((hi - lo).sum()), hits, hi > lo, (lo_edge, hi_edge)


def _engine_sorting(inst, table, s=2, masks=(None, None, None)):
    # the scan engine that sorts the caller's slot s (0-based)
    ps = gamma_mod._slot_primes(inst, table, masks)
    return gamma_mod._pick_slot(inst, ps, (s,))


def _run_pairs(eng):
    # every (row, column) of the live runs, row after row
    off, cum = eng.runs()
    return [(i, off[i] + k) for i in range(len(cum) - 1) for k in range(cum[i], cum[i + 1])]


def test_live_strip_matches_full_box(table4):
    s = 2.0 ** 30
    cases = [
        (Instance(SQ2, -1.0, -SQ3, eta=0.3, eps=0.5, x=3000.0, lambda0=0.3), None),
        (Instance(SQ2, 1.0, -SQ3, eta=0.3, eps=0.5, x=3000.0, lambda0=0.3), None),
        (Instance(-SQ2, 1.0, SQ3, eta=-0.7, eps=0.2, x=3000.0, lambda0=0.3), None),
        (Instance(-SQ2, -1.0, SQ3, eta=-0.7, eps=2.0, x=1000.0, lambda0=0.1), None),
        # a strip narrower than the prime gaps: empty runs lie between live rows
        (Instance(1.0, -1.0, -0.01, eta=0.3, eps=0.5, x=1000.0, lambda0=0.1), None),
        # −c + ε lands on zs[0] at (p₁,p₂) = (7, 997) and −c − ε on zs[−1] at (2, 2)
        (Instance(1.0, 1.0, -1.0, eta=-4.5, eps=2.5, x=1000.0, lambda0=0.001), "ends"),
        # −c + ε lands on zs[0] at (293, 2) and −c − ε on zs[−1] at (2, 293)
        (Instance(1.0, -1.0, -1.0, eta=147.5, eps=145.5, x=300.0, lambda0=0.001), "ends"),
        # require_linnik={1,2,3}: all three positions masked to Linnik primes
        (Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=2.0, x=3000.0, lambda0=0.3), "linnik"),
        (Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=2.0, x=3000.0, lambda0=0.3), "one-p2"),
        # λ₂p₂ and ε below half an ulp of −c: the clamped edges keep pairs whose
        # λ₂p₂ lies past the exact run ends, so only the margin keeps them in
        (Instance(1.0, 1e-17, -1.0, eta=0.0, eps=1e-16, x=100.0, lambda0=0.01), None),
        (Instance(1.0, -1e-18, -1.0, eta=0.0, eps=1e-17, x=100.0, lambda0=0.01), None),
        (Instance(s, -s, -s, eta=0.0, eps=5e-8, x=30.0, lambda0=0.05), None),
        (Instance(s, -s, -s, eta=0.0, eps=1.5e-7, x=30.0, lambda0=0.05), None),
    ]
    trimmed = 0
    for inst, kind in cases:
        base = table4.primes[table4.prime_slice(inst.lambda0 * inst.x, inst.x)]
        masks = (None, None, None)
        if kind == "linnik":
            lin = _r2(base, table4) > 0
            masks = (lin, lin, lin)
        elif kind == "one-p2":
            masks = (None, np.arange(len(base)) == len(base) // 2, None)
        eng = _engine_sorting(inst, table4, masks=masks)
        weights = (np.log(eng.p1.astype(np.float64)), np.log(eng.p2.astype(np.float64)),
                   _r2(eng.p3, table4) * np.log(eng.p3.astype(np.float64)))
        want, wcnt, whits, live, (lo_edge, hi_edge) = _box_scan(inst, eng, weights)
        got, cnt, _, hits = eng.scan(weights, collect=True)
        if kind == "ends":
            assert (hi_edge == eng.zs[0]).any() and (lo_edge == eng.zs[-1]).any()
        assert cnt == wcnt > 0, (inst, kind)
        for h, w in zip(hits, whits):
            assert np.array_equal(h, np.array(w, dtype=h.dtype)), (inst, kind)
        assert abs(got - want) <= 1e-12 * abs(want)
        # every pair with lo < hi lies in its row's live run
        in_run = np.zeros_like(live)
        for i, j in _run_pairs(eng):
            in_run[i, j] = True
        assert not (live & ~in_run).any()
        trimmed += int((~in_run).sum())
    assert trimmed > 0
    # −c − ε overflows: no rounding margin is provable, so the scan refuses
    inst = Instance(1.0, -1.0, -1.0, eta=1e308, eps=1e308, x=100.0, lambda0=0.1)
    with pytest.raises(DomainError):
        gamma_sharp(inst, table4)
    with warnings.catch_warnings(), pytest.raises(DomainError):
        warnings.simplefilter("ignore")     # not in theorem mode
        find_triples(inst, table4, require_linnik=frozenset())


def test_split_bounds_each_chunk_once(table4, monkeypatch):
    # Γ, the triple count and the per-p₃ pair mass share one pair sweep,
    # whose chunks tile the live pairs in order
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.1, eps=2.0, x=2000.0, lambda0=0.3)
    monkeypatch.setattr(gamma_mod, "_CHUNK", 1000)
    calls = []
    bounds = gamma_mod._Engine._bounds

    def spy(self, off, cum, k0, k1):
        rows, cols, *rest = bounds(self, off, cum, k0, k1)
        calls.append((k0, k1, list(zip(rows.tolist(), cols.tolist()))))
        return (rows, cols, *rest)

    monkeypatch.setattr(gamma_mod._Engine, "_bounds", spy)
    gamma_split(inst, kernel_new(2.0, 4), table4, d_split=11.0)
    pairs = _run_pairs(gamma_mod._oriented_engine(inst, table4))
    spans = [(k0, k1) for k0, k1, _ in sorted(calls)]
    assert len(spans) == len(set(spans)) >= 3
    assert spans == [(k, min(k + 1000, len(pairs))) for k in range(0, len(pairs), 1000)]
    assert [p for *_, chunk in sorted(calls) for p in chunk] == pairs


def test_threads_capped_by_chunks_and_cpus(table4, monkeypatch):
    # a pool starts only where each worker gets _POOL_CHUNKS chunks, and never
    # with more workers than the CPUs the process may run on
    asked = []

    class Pool:
        # records the pool size and runs the chunks inline; no thread starts
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def cpus(affinity, count):
        # the CPU sources: the affinity set where the platform has one
        if affinity is None:
            monkeypatch.delattr(gamma_mod.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(gamma_mod.os, "sched_getaffinity",
                                lambda pid: set(range(affinity)), raising=False)
        monkeypatch.setattr(gamma_mod.os, "cpu_count", lambda: count)

    assert gamma_mod._POOL_CHUNKS == 16
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.1, eps=2.0, x=1e4, lambda0=0.1)
    _, cum = gamma_mod._oriented_engine(inst, table4).runs()
    live = int(cum[-1])
    want = gamma_sharp(inst, table4)
    monkeypatch.setattr(gamma_mod, "ThreadPoolExecutor", Pool)
    for chunk, chunks, threads, (affinity, count), workers in (
            # 22 chunks at the default 2¹⁴: too few for two workers
            (gamma_mod._CHUNK, 22, 10**6, (64, 64), None),
            # 31 chunks, one short of two workers' 32
            (-(-live // 31), 31, 10**6, (64, 64), None),
            (-(-live // 32), 32, 10**6, (64, 64), 2),
            (2**10, 348, 10**6, (64, 64), 348 // 16),
            (2**10, 348, 10**6, (3, 64), 3),
            (2**10, 348, 2, (64, 64), 2),
            # one CPU in the affinity set of a two-CPU machine
            (2**10, 348, 10**6, (1, 2), None),
            # no affinity set: the CPU count, if known
            (2**10, 348, 10**6, (None, 3), 3),
            (2**10, 348, 10**6, (None, None), None)):
        monkeypatch.setattr(gamma_mod, "_CHUNK", chunk)
        assert -(-live // chunk) == chunks
        cpus(affinity, count)
        asked.clear()
        got = gamma_sharp(inst, table4, threads=threads)
        assert got[1] == want[1] and abs(got[0] - want[0]) <= 1e-12 * want[0]
        assert asked == ([] if workers is None else [workers])


def test_results_independent_of_threads_and_chunking(table4, monkeypatch):
    # an odd chunk of 7 live pairs splits rows mid-way; the sums may regroup,
    # but counts and hits may not move, and no thread count may move anything
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.1, eps=0.5, x=1000.0, lambda0=0.3,
                    ratio_irrational=True)
    kern = kernel_new(0.5, 4)

    def runs():
        return [(gamma_split(inst, kern, table4, d_split=7.0, threads=t),
                 gamma_sharp(inst, table4, threads=t),
                 find_triples(inst, table4, require_linnik=frozenset(),
                              max_results=10**6, threads=t))
                for t in (1, 3, 8)]

    default = runs()
    monkeypatch.setattr(gamma_mod, "_CHUNK", 7)
    small = runs()
    for res in (default, small):
        assert res[1] == res[0] and res[2] == res[0]
    split, sharp, wits = default[0]
    split7, sharp7, wits7 = small[0]
    assert split7.triple_count == split.triple_count == sharp7[1] == sharp[1] > 0
    assert wits7 == wits and len(wits) == sharp[1]
    assert abs(sharp7[0] - sharp[0]) <= 1e-12 * sharp[0]
    assert abs(split7.gamma0 - split.gamma0) <= 1e-12 * split.gamma0


def test_results_identical_on_both_sides_of_the_pool_threshold(table4, monkeypatch):
    # a named-constant instance, scanned with and without a Linnik mask, in
    # chunks too few for a pool and in chunks enough for eight workers: every
    # result is bit-identical for 1, 2 and 8 threads
    sqrt2, sqrt3 = (certified_named(n).value for n in ("sqrt2", "sqrt3"))
    inst = Instance(sqrt2, -1, -sqrt3, "0.1", eps=0.5, x=2000.0, lambda0=0.3,
                    ratio_irrational=True)
    kern = kernel_new(inst.eps, 4)
    lin = linnik_rows(table4, inst.lambda0 * inst.x, inst.x)[0] > 0
    linniks = {frozenset(): (None,) * 3, frozenset({3}): (None, None, lin)}
    assert type(gamma_mod._oriented_engine(inst, table4, lattice=True)) is gamma_mod._Engine
    lives = [int(gamma_mod._oriented_engine(inst, table4, m).runs()[1][-1])
             for m in linniks.values()]
    monkeypatch.setattr(gamma_mod.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)

    def results(threads):
        rows = [find_triples(inst, table4, require_linnik=lk, max_results=10**6,
                             threads=threads) for lk in linniks]
        hits = [[h.tolist() for h in gamma_mod._oriented_engine(inst, table4, m).scan(
            (None,) * 3, threads=threads, collect=True)[3]] for m in linniks.values()]
        return (rows, hits, gamma_sharp(inst, table4, threads),
                gamma_smoothed(inst, kern, table4, threads),
                gamma_split(inst, kern, table4, 7.0, threads))

    real_pool, workers = gamma_mod.ThreadPoolExecutor, set()

    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError("a sweep below the pool threshold started a pool")

    # at most 20 chunks per sweep: under 2·_POOL_CHUNKS, so no pool starts
    monkeypatch.setattr(gamma_mod, "_CHUNK", -(-max(lives) // 20))
    assert max(-(-n // gamma_mod._CHUNK) for n in lives) < 2 * gamma_mod._POOL_CHUNKS
    monkeypatch.setattr(gamma_mod, "ThreadPoolExecutor", NoPool)
    small = [results(t) for t in (1, 2, 8)]
    assert small[1] == small[0] and small[2] == small[0]
    rows, hits, sharp, smoothed, split = small[0]
    assert all(rows) and all(h[0] for h in hits) and sharp[1] == split.triple_count > 0

    # at least 130 chunks per sweep: pools of 2 and of 8 workers
    def pool(max_workers):
        workers.add(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(gamma_mod, "_CHUNK", min(lives) // 130)
    assert min(-(-n // gamma_mod._CHUNK) for n in lives) >= 8 * gamma_mod._POOL_CHUNKS
    monkeypatch.setattr(gamma_mod, "ThreadPoolExecutor", pool)
    large = [results(t) for t in (1, 2, 8)]
    assert workers == {2, 8}
    assert large[1] == large[0] and large[2] == large[0]
    # the chunking regroups sums only: rows, hits and counts stay put
    assert large[0][:2] == small[0][:2] and large[0][2][1] == sharp[1]


def test_one_orientation_pass_per_scan(table4, monkeypatch):
    # the picker forms each orientation's keys and live runs once and hands
    # the winner to the engine: per scan, one slot-prime pass and three
    # live-run searches, one per orientation
    calls = dict.fromkeys(("_run_ends", "_slot_primes"), 0)
    for name in calls:
        def counted(*args, real=getattr(gamma_mod, name), name=name, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(gamma_mod, name, counted)
    sqrt2 = certified_named("sqrt2").value
    inst = Instance(sqrt2, -1, "-1.7", 0, eps=0.05, x=1e4, lambda0=0.5, ratio_irrational=True)
    assert type(gamma_mod._oriented_engine(inst, table4, lattice=True)) is gamma_mod._Engine
    for run in (lambda: find_triples(inst, table4), lambda: gamma_sharp(inst, table4)):
        calls.update(dict.fromkeys(calls, 0))
        assert run()
        assert calls == {"_run_ends": 3, "_slot_primes": 1}


def test_sharp_keeps_exact_hits_below_float_resolution(table4):
    # every exact hit has |λ₁p₁+λ₂p₂| ≥ 2³¹, where half an ulp exceeds ε:
    # both window edges round onto the hit itself, whose residual is 0 < ε
    # (ε = 1.5e-7: for p₃ = 2, −c = −2³¹ and only the lower edge rounds onto it)
    s = 2.0 ** 30
    for eps in (5e-8, 1.5e-7):
        inst = Instance(s, -s, -s, eta=0.0, eps=eps, x=30.0, lambda0=0.05,
                        ratio_irrational=True)
        val, cnt = gamma_sharp(inst, table4)
        want, wcnt = _brute_sharp(inst, table4)
        assert cnt == wcnt == 8
        assert abs(val - want) <= 1e-12 * abs(want)
        assert [(w.p1, w.p2, w.p3, w.residual) for w in find_triples(inst, table4)] == \
            [(5, 2, 3, 0.0), (5, 3, 2, 0.0), (7, 2, 5, 0.0), (7, 5, 2, 0.0),
             (13, 2, 11, 0.0), (13, 11, 2, 0.0), (19, 2, 17, 0.0), (19, 17, 2, 0.0)]


def test_bucket_lookup_matches_searchsorted(table4):
    # the window lookup equals searchsorted on both sides for keys on, next to
    # and between the zs entries, on every bucket edge, past both ends and at ±inf
    s = 2.0 ** 30
    cases = [
        # the instances of test_live_strip_matches_full_box
        (Instance(SQ2, -1.0, -SQ3, eta=0.3, eps=0.5, x=3000.0, lambda0=0.3), None),
        (Instance(SQ2, 1.0, -SQ3, eta=0.3, eps=0.5, x=3000.0, lambda0=0.3), None),
        (Instance(-SQ2, 1.0, SQ3, eta=-0.7, eps=0.2, x=3000.0, lambda0=0.3), None),
        (Instance(-SQ2, -1.0, SQ3, eta=-0.7, eps=2.0, x=1000.0, lambda0=0.1), None),
        (Instance(1.0, -1.0, -0.01, eta=0.3, eps=0.5, x=1000.0, lambda0=0.1), None),
        (Instance(1.0, 1.0, -1.0, eta=-4.5, eps=2.5, x=1000.0, lambda0=0.001), None),
        (Instance(1.0, -1.0, -1.0, eta=147.5, eps=145.5, x=300.0, lambda0=0.001), None),
        (Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=2.0, x=3000.0, lambda0=0.3), "linnik"),
        (Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=2.0, x=3000.0, lambda0=0.3), "one-p2"),
        (Instance(1.0, 1e-17, -1.0, eta=0.0, eps=1e-16, x=100.0, lambda0=0.01), None),
        (Instance(1.0, -1e-18, -1.0, eta=0.0, eps=1e-17, x=100.0, lambda0=0.01), None),
        (Instance(s, -s, -s, eta=0.0, eps=5e-8, x=30.0, lambda0=0.05), None),
        (Instance(s, -s, -s, eta=0.0, eps=1.5e-7, x=30.0, lambda0=0.05), None),
        # λ₃ > 0; one prime, 29, so zs spans 0; p₃ ranges holding both 2 and 3
        (Instance(SQ2, -1.0, SQ3, eta=0.1, eps=0.5, x=3000.0, lambda0=0.1), None),
        (Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.95), None),
        (Instance(1.0, -1.0, -SQ3, eta=0.0, eps=0.5, x=3.0, lambda0=0.5), None),
        (Instance(1.0, -1.0, -SQ3, eta=0.0, eps=0.5, x=50.0, lambda0=0.01), None),
    ]
    for inst, kind in cases:
        base = table4.primes[table4.prime_slice(inst.lambda0 * inst.x, inst.x)]
        masks = (None, None, None)
        if kind == "linnik":
            lin = _r2(base, table4) > 0
            masks = (lin, lin, lin)
        elif kind == "one-p2":
            masks = (None, np.arange(len(base)) == len(base) // 2, None)
        eng = _engine_sorting(inst, table4, masks=masks)
        zs = eng.zs
        edges = zs[0] + np.arange(eng.top + 2) / eng.binv
        keys = np.concatenate([
            zs, edges, [zs[0] - 1.0, zs[-1] + 1.0, -1e300, 1e300, -np.inf, np.inf]])
        keys = np.concatenate([keys, np.nextafter(keys, -np.inf), np.nextafter(keys, np.inf)])
        for side in ("left", "right"):
            got = eng._search(keys, side)
            assert np.array_equal(got, zs.searchsorted(keys, side=side)), (inst, side)
    # −c − ε overflows; λ₁p₁ and λ₂p₂ overflow to ∓inf, so every pair key
    # would be NaN; λ₃p₃ overflows to +inf from p₃ = 19 on: each is refused
    for inst in (Instance(1.0, -1.0, -1.0, eta=1e308, eps=1e308, x=100.0, lambda0=0.1),
                 Instance(1e308, -1e308, -1.0, eta=0.0, eps=1.0, x=100.0, lambda0=0.1),
                 Instance(1.0, -1.0, 1e307, eta=0.0, eps=1.0, x=100.0, lambda0=0.1)):
        with pytest.raises(DomainError):
            gamma_sharp(inst, table4)
        with warnings.catch_warnings(), pytest.raises(DomainError):
            warnings.simplefilter("ignore")     # not in theorem mode
            find_triples(inst, table4)
    # a subnormal λ₃p₃ span, narrower than any bucket a float can map: only
    # the 21 pairs p₁ = p₂ are in window, each with all 21 p₃
    inst = Instance(1.0, -1.0, 1e-320, eta=0.5, eps=1.0, x=100.0, lambda0=0.1)
    assert gamma_sharp(inst, table4)[1] == 21 ** 2


def test_clamped_edges_count_only_window_triples(table4):
    # λ₂p₂ and ε both lie below half an ulp of −c, so clamped edges around
    # a sorted λ₃p₃ would admit every p₂ of a row; the scan sorts the λ₂p₂
    # column instead (25 live pairs, not 625), and exactly the 4·25 triples
    # p₃ = p₁, p₂ ≤ 7 are in window
    inst = Instance(1.0, 1e-17, -1.0, eta=0.0, eps=1e-16, x=100.0, lambda0=0.01,
                    ratio_irrational=True)
    ps = [int(p) for p in table4.primes[table4.prime_slice(1.0, 100.0)]]
    l1, l2, l3, eps = (Fraction(v) for v in (inst.lambda1, inst.lambda2,
                                              inst.lambda3, inst.eps))
    brute = sum(abs(l1 * a + l2 * b + l3 * c) < eps for a in ps for b in ps for c in ps)
    wits = find_triples(inst, table4, require_linnik=frozenset(), max_results=10**6)
    assert brute == len(wits) == 100
    assert gamma_sharp(inst, table4)[1] == 100


# --------------------------------------------------------- sorted-slot choice

def _live_when_sorting(inst, table, s, masks=(None, None, None)):
    # live pairs of the scan that sorts the caller's slot s (0-based)
    return int(_engine_sorting(inst, table, s, masks).runs()[1][-1])


@pytest.mark.parametrize("lam, eta, eps, linnik", [
    ((SQ2, -1.0, -SQ3), 0.3, 2.0, frozenset()),
    ((SQ2, -1.0, -SQ3), -0.4, 2.0, frozenset({3})),
    ((SQ2, -1.0, -SQ3), 0.1, 3.0, frozenset({1, 2, 3})),
    ((SQ2, 0.7, -SQ3), 0.2, 1.5, frozenset({3})),
    ((-SQ2, -1.3, SQ3), -0.6, 1.5, frozenset()),
], ids=["no-masks", "linnik-p3", "linnik-all", "lambda2-positive", "lambda3-positive"])
def test_every_sorted_slot_gives_the_same_results(table4, monkeypatch, lam, eta, eps,
                                                  linnik):
    inst = Instance(*lam, eta=eta, eps=eps, x=1000.0, lambda0=0.3, ratio_irrational=True)
    # no residual lies within 1e-9 of ±ε, so no orientation's rounding can
    # move a triple across the window edge
    _, _, res = _grid(inst, table4)
    assert float(np.min(np.abs(np.abs(res) - inst.eps))) > 1e-9
    kern = kernel_new(inst.eps, 4)
    base = table4.primes[table4.prime_slice(inst.lambda0 * inst.x, inst.x)]
    lin = _r2(base, table4) > 0
    masks = tuple(lin if i in linnik else None for i in (1, 2, 3))
    runs = {}
    pick = gamma_mod._pick_slot
    for s in (2, 1, 0):
        # float λ keep every Γ call on the pair scan
        monkeypatch.setattr(gamma_mod, "_pick_slot",
                            lambda inst, ps, s=s, **kw: pick(inst, ps, (s,), **kw))
        rows = [(w.p1, w.p2, w.p3, w.x, w.y, w.residual)
                for w in find_triples(inst, table4, require_linnik=linnik,
                                      max_results=10**6)]
        # the scan's hits, float residuals included, in a fixed order
        hits = gamma_mod._oriented_engine(inst, table4, masks).scan((None,) * 3, collect=True)[3]
        hits = sorted(zip(*(h.tolist() for h in hits)))
        runs[s] = (gamma_sharp(inst, table4), gamma_split(inst, kern, table4, d_split=7.0),
                   rows, hits)
    (sharp, split, rows, hits) = runs[2]
    assert sharp[1] == split.triple_count > 0 and rows
    for s in (1, 0):
        sharp_s, split_s, rows_s, hits_s = runs[s]
        assert rows_s == rows and hits_s == hits
        assert sharp_s[1] == sharp[1] and split_s.triple_count == split.triple_count
        assert abs(sharp_s[0] - sharp[0]) <= 1e-12 * sharp[0]
        for f in ("gamma", "gamma0", "g1", "g2", "g3"):
            a, b = getattr(split_s, f), getattr(split, f)
            assert abs(a - b) <= 1e-12 * abs(b), (s, f)


def test_picker_sorts_the_slot_with_fewest_live_pairs(table4):
    # the argmin of the three live counts, ties to p₃ and then p₂
    ties = set()
    for inst in (Instance(SQ2, -1.0, -SQ3, eta=0.3, eps=0.5, x=3000.0, lambda0=0.3),
                 Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=0.01, x=1e4, lambda0=0.5),
                 Instance(1.0, 1e-17, -1.0, eta=0.0, eps=1e-16, x=100.0, lambda0=0.01),
                 Instance(-3.0, 1.0, 0.2, eta=0.5, eps=0.5, x=1000.0, lambda0=0.1),
                 # λ₂ = λ₃ (p₂, p₃ tie) and λ₁ = λ₂ (p₁, p₂ tie below a larger L₃)
                 Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=1000.0, lambda0=0.1),
                 Instance(-1.0, -1.0, 3.0, eta=0.0, eps=0.5, x=1000.0, lambda0=0.1)):
        ps = gamma_mod._slot_primes(inst, table4, (None,) * 3)
        live = {s: _live_when_sorting(inst, table4, s) for s in (2, 1, 0)}
        want = min(live.values())
        picked = gamma_mod._pick_slot(inst, ps)
        assert (picked.perm[2], picked.live) == (next(s for s in (2, 1, 0) if live[s] == want),
                                                 want)
        ties |= {tuple(s for s in (2, 1, 0) if live[s] == want)}
    assert {(2, 1), (1, 0)} <= ties


def test_linnik_finder_scans_a_third_of_the_pairs(table4):
    # only p₃ is masked to Linnik primes, so a pair slot holding it is short
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=0.01, x=1e4, lambda0=0.5,
                    ratio_irrational=True)
    base = table4.primes[table4.prime_slice(inst.lambda0 * inst.x, inst.x)]
    masks = (None, None, _r2(base, table4) > 0)
    chosen = int(gamma_mod._oriented_engine(inst, table4, masks).runs()[1][-1])
    assert 0 < 3 * chosen < _live_when_sorting(inst, table4, 2, masks)


# ------------------------------------------------------------ lattice engine

def _exact_count(inst, table):
    # |n₁p₁ + n₂p₂ + n₃p₃ + n_η| < n_ε over the whole cube, in integers: the
    # sorted n₂p₂ + n₃p₃ of every pair, searched at each p₁'s open window
    _, n1, n2, n3, n_eta, n_eps = inst.lattice
    ps = table.primes[table.prime_slice(inst.lambda0 * inst.x, inst.x)].astype(np.int64)
    pair = np.sort(((n2 * ps)[:, None] + n3 * ps).ravel())
    c = n1 * ps + n_eta
    return int((pair.searchsorted(n_eps - c, "left")
                - pair.searchsorted(-n_eps - c, "right")).sum())


def _forced_engines():
    # stand-ins for _oriented_engine: the lattice, and the scan sorting each slot
    def lattice(inst, table, *args, **kw):
        return gamma_mod._Lattice(inst, gamma_mod._slot_primes(inst, table, (None,) * 3))

    def sorting(s):
        def engine(inst, table, *args, **kw):
            return _engine_sorting(inst, table, s)
        return engine

    return {"lattice": lattice, **{s: sorting(s) for s in (2, 1, 0)}}


_decimal_instances = pytest.mark.parametrize("lam, eta, eps, g", [
    (("1.4", "-1", "-1.7"), "0.30007", 2.0, 2),
    (("1.5", "-1", "-1.7"), "-0.40003", 2.0, 5),
    (("1.3", "-1", "-1.7"), "0.10009", 3.0, 1),
    (("1.4", "0.7", "-1.7"), "0.20001", 1.5, 7),
    (("-1.4", "-1.3", "1.7"), "-0.60007", 1.5, 1),
    # M = 1 and the window holds five σ: each p₃ gathers five entries
    (("-1", "-1", "1"), "0.30007", 2.5, 1),
], ids=["gcd-2", "gcd-5", "gcd-1", "lambda2-positive", "lambda3-positive", "five-shifts"])


@_decimal_instances
def test_lattice_matches_the_scan_under_every_sorted_slot(table4, monkeypatch, lam, eta,
                                                          eps, g):
    # the instances of test_every_sorted_slot_gives_the_same_results made
    # decimal, and one more; g = gcd(n₁, n₂) once n₁, n₂, n₃ are divided by
    # their gcd
    inst = Instance(*lam, eta, eps=eps, x=1000.0, lambda0=0.3)
    den, n1, n2, n3, n_eta, n_eps = inst.lattice
    f = math.gcd(n1, n2, n3)
    assert math.gcd(n1 // f, n2 // f) == g
    # no residual lies within 1e-9 of ±ε, so the float scan counts exactly
    _, _, res = _grid(inst, table4)
    assert float(np.min(np.abs(np.abs(res) - inst.eps))) > 1e-9
    # the same window times den, where the scan's floats are exact integers;
    # on inst, θ sees the floats of 1.4 and 0.7, and Γ₂ (which cancels)
    # moves by about 1.5e-12 relative
    scaled = Instance(*map(float, (n1, n2, n3, n_eta)), eps=float(n_eps), x=1000.0,
                      lambda0=0.3)

    runs = {}
    for name, engine in _forced_engines().items():
        monkeypatch.setattr(gamma_mod, "_oriented_engine", engine)
        runs[name] = [(gamma_sharp(i, table4),
                       gamma_split(i, kernel_new(i.eps, 4), table4, d_split=7.0))
                      for i in (inst, scaled)]
    (sharp, split), _ = runs["lattice"]
    assert sharp[1] == split.triple_count == _exact_count(inst, table4) > 0
    for name, ((sharp_f, split_f), (sharp_x, split_x)) in runs.items():
        for sharp_s, split_s in ((sharp_f, split_f), (sharp_x, split_x)):
            assert sharp_s[1] == split_s.triple_count == sharp[1], name
            assert abs(sharp_s[0] - sharp[0]) <= 1e-12 * sharp[0], name
        for f in ("gamma", "gamma0", "g1", "g2", "g3"):
            a, b = getattr(split_x, f), getattr(split, f)
            assert abs(a - b) <= 1e-12 * abs(b), (name, f)


@_decimal_instances
def test_mass_is_the_pair_mass_of_every_p3(table4, monkeypatch, lam, eta, eps, g):
    # mass[j] = Σ θ(residual)·ln p₁·ln p₂ over the window hits of the j-th p₃,
    # the hits taken from the box scan; on the scan under every sorted slot θ
    # reads the scan's float residual, on the lattice the correctly rounded
    # exact one.  Each gamma_split column is fsum(column·mass)
    inst = Instance(*lam, eta, eps=eps, x=1000.0, lambda0=0.3)
    kern = kernel_new(inst.eps, 4)
    w = gamma_mod._weights(inst, table4)
    ps = gamma_mod._slot_primes(inst, table4, (None,) * 3)[0]
    _, _, hits, _, _ = _box_scan(inst, _engine_sorting(inst, table4), w)
    p1, p2, p3, res = (np.array(h) for h in hits)
    den, n1, n2, n3, n_eta, _ = inst.lattice
    exact = np.array([(n1 * int(a) + n2 * int(b) + n3 * int(c) + n_eta) / den
                      for a, b, c in zip(p1, p2, p3)])
    logs = np.log(ps.astype(np.float64))
    pair = logs[ps.searchsorted(p1)] * logs[ps.searchsorted(p2)]

    def brute(r):
        want = np.zeros(len(ps))
        for j, v in zip(ps.searchsorted(p3), theta_eval(kern, r) * pair):
            want[j] += v
        return want

    cut1, cut2 = gamma_mod._edge(7.0, strict=True), gamma_mod._edge(inst.x / 7.0, strict=False)
    cols = [gamma_mod.divisor_sum(ps - 1, lo, hi, chi=True)
            for lo, hi in ((1, cut1), (cut1, cut2), (cut2, int(ps.max())))]
    cols.append(linnik_rows(table4, inst.lambda0 * inst.x, inst.x)[0])
    for name, engine in _forced_engines().items():
        mass = engine(inst, table4).scan(w, kern)[2]
        want = brute(exact if name == "lattice" else res)
        assert want.any(), name
        assert np.all(np.abs(mass - want) <= 1e-13 * want), name
        monkeypatch.setattr(gamma_mod, "_oriented_engine", engine)
        split = gamma_split(inst, kern, table4, d_split=7.0)
        assert [split.g1, split.g2, split.g3, split.gamma0] == \
            [math.fsum(c * logs * mass) for c in cols], name


def test_every_engine_counts_the_one_exact_instance(table4, monkeypatch):
    # the instance is its rationals: the lattice, the scan under every sorted
    # slot and the finder's scan with its integer re-check all count 1.5, and
    # so does a brute force in integers
    inst = Instance("1.5", "-1", "-1.7", "0.3", eps=2.0, x=3000.0, lambda0=0.1)
    want = _exact_count(inst, table4)
    for name, engine in _forced_engines().items():
        monkeypatch.setattr(gamma_mod, "_oriented_engine", engine)
        assert gamma_sharp(inst, table4)[1] == want, name
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # not in theorem mode
        found = find_triples(inst, table4, require_linnik=frozenset(), max_results=10**7)
    assert len(found) == want > 0


@pytest.mark.parametrize("lam, x, lambda0", [
    (("1.4", "-1", "-1.7"), 3000.0, 0.1),       # M = 35, odd
    (("1.5", "-1", "-1.7"), 3000.0, 0.1),       # M = 6, even
    (("1.4", "0.7", "-1.7"), 3000.0, 0.1),      # λ₂ > 0
    (("1.4", "-1", "-1.7"), 1000.0, 0.0015),    # λ₀X = 1.5 < 2: p = 2 is in range
    (("1.5", "-1", "-1.7"), 1000.0, 0.0015),
    (("1.4", "0.7", "-1.7"), 1000.0, 0.0015),
], ids=["m-odd", "m-even", "lambda2-positive", "m-odd-with-2", "m-even-with-2",
        "lambda2-positive-with-2"])
@pytest.mark.parametrize("eta", ["0.30007", "0", "-0.5"])
def test_lattice_counts_equal_a_brute_force_in_integers(table4, lam, x, lambda0, eta):
    # p₁ is classed mod 2|m₂| and p₂ mod 2|m₁|; η = 0 and −0.5 put triples on
    # |r| = ε, where only an exact count is right
    inst = Instance(*lam, eta, eps=2.0, x=x, lambda0=lambda0)
    ps = gamma_mod._slot_primes(inst, table4, (None,) * 3)
    lat = gamma_mod._Lattice(inst, ps)
    w = gamma_mod._weights(inst, table4)
    sharp, count, _, _ = lat.scan(w)
    assert count == _exact_count(inst, table4) > 0
    # Γ over the same integer window, per p₁; a pair with a one-prime class
    # takes its weights without an FFT
    _, n1, n2, n3, n_eta, n_eps = inst.lattice
    p = ps[0].astype(np.int64)
    rest, w23 = (n2 * p)[:, None] + n3 * p, w[1][:, None] * w[2]
    want = math.fsum(float(w[0][i] * w23[np.abs(rest + (n1 * q + n_eta)) < n_eps].sum())
                     for i, q in enumerate(p.tolist()))
    assert sharp == pytest.approx(want, rel=1e-12)
    # every class holds one parity, so p = 2 sits alone in its class on each side
    for side, (p, mod, _, _) in enumerate(lat.sides):
        classes = [p[pos] for pos in np.split(*lat.classes[side])]
        assert all(len(set((q % 2).tolist())) == 1 for q in classes)
        assert ([2] in [q.tolist() for q in classes]) == (ps[0][0] == 2)


def test_dispatch_keeps_a_one_prime_class_instance_on_the_lattice(table4):
    # λ₀X = 1.5 puts p = 2 in range, a one-prime class on each side, and
    # η = 0 puts triples on |r| = ε, where the float scan counts 9,758
    inst = Instance("1.4", "0.7", "-1.7", "0", eps=2.0, x=1e3, lambda0=0.0015)
    assert type(gamma_mod._oriented_engine(inst, table4, lattice=True)) is gamma_mod._Lattice
    assert gamma_sharp(inst, table4)[1] == _exact_count(inst, table4) == 9270


def test_lattice_fft_length_at_the_bench_sizes(table6):
    # the split-1e5 instance at seed 0, the dense X = 1e6 split (λ₀ = 0.1, η = 0.3),
    # and M even at X = 1e5: odd primes fill every place of a class mod 2|m|
    for lam, eta, x, want in ((("1.4", "-1", "-1.7"), "-0.3791", 1e5, 2**14),
                              (("1.4", "-1", "-1.7"), "0.3", 1e6, 2**18),
                              (("1.5", "-1", "-1.7"), "0.3", 1e5, 2**16)):
        inst = Instance(*lam, eta, eps=2.0, x=x, lambda0=0.1)
        lat = gamma_mod._Lattice(inst, gamma_mod._slot_primes(inst, table6, (None,) * 3))
        assert lat.n_fft == want, (lam, x)


def test_lattice_counts_the_boundary_instance_exactly():
    # 899,712 triples lie on |r| = ε; the float scan keeps a share of them
    table = sieve_primes(10**5)
    inst = Instance("1.4", "-1", "-1.7", "0.3", eps=2.0, x=1e5, lambda0=0.1)
    assert isinstance(gamma_mod._oriented_engine(inst, table, lattice=True), gamma_mod._Lattice)
    assert gamma_sharp(inst, table)[1] == 7_971_043


def test_lattice_refuses_counts_past_the_rounding_bound(table4, monkeypatch):
    inst = Instance("1.4", "-1", "-1.7", "0.30007", eps=2.0, x=1e4, lambda0=0.1)
    ps = gamma_mod._slot_primes(inst, table4, (None,) * 3)
    sharp = gamma_mod._weights(inst, table4)
    assert gamma_mod._Lattice(inst, ps).round_bound < 1e-10
    # an a priori bound of ½ or more: refused before any FFT
    monkeypatch.setattr(gamma_mod, "_FFT_C", 1e20)
    lat = gamma_mod._Lattice(inst, ps)
    assert lat.round_bound >= 0.5
    monkeypatch.setattr(np.fft, "irfft", None)
    with pytest.raises(NumericError, match="rounding"):
        lat.scan(sharp)
    monkeypatch.undo()
    # a bound below the rounding the FFT does make: the count that strays is caught
    monkeypatch.setattr(gamma_mod, "_FFT_C", 1e-30)
    with pytest.raises(NumericError, match="strayed"):
        gamma_mod._Lattice(inst, ps).scan(sharp)


def test_dispatch_takes_the_lattice_only_where_cheaper(monkeypatch):
    table = sieve_primes(10**5)
    built = []
    init = gamma_mod._Engine.__init__

    def spy(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(gamma_mod._Engine, "__init__", spy)

    def engine(inst):
        # the engine's type; the pick builds one _Engine for the scan, and
        # none for the lattice
        built.clear()
        kind = type(gamma_mod._oriented_engine(inst, table, lattice=True))
        assert len(built) == (kind is gamma_mod._Engine), inst
        return kind

    # the split-1e5 bench instance at seed 0, and at X = 3e4
    for x in (1e5, 3e4):
        assert engine(Instance("1.4", "-1", "-1.7", "-0.3791", eps=2.0, x=x, lambda0=0.1)) \
            is gamma_mod._Lattice
    scan = [
        # float-only: λ's denominator is a power of two near 2⁵²
        Instance(1.4, -1.0, -1.7, eta=-0.3791, eps=2.0, x=1e5, lambda0=0.1),
        # a named constant, whose certified value has a denominator near 2²⁹⁶
        Instance(certified_named("sqrt2").value, -1, "-1.7", 0, eps=2.0, x=1e5, lambda0=0.1),
        Instance("1.0000000000000000001", -1, -1, 0, eps=1.0, x=200.0, lambda0=0.1),
        # too small for the FFTs to pay: the instance of test_gamma_sharp_golden
        Instance(1, -1, -1, 0, eps=0.5, x=30.0, lambda0=0.05),
    ]
    for inst in scan:
        assert engine(inst) is gamma_mod._Engine, inst
    # a lattice whose cost ties the scan's, _NS_PER_LIVE_PAIR per live pair,
    # stays on the scan, and one a float below it does not
    tie = Instance("1.4", "-1", "-1.7", "-0.3791", eps=2.0, x=3e4, lambda0=0.1)
    live = gamma_mod._pick_slot(tie, gamma_mod._slot_primes(tie, table, (None,) * 3)).live
    scan_ns = gamma_mod._NS_PER_LIVE_PAIR * live
    lattice_init = gamma_mod._Lattice.__init__
    for cost, want in ((scan_ns, gamma_mod._Engine),
                       (math.nextafter(scan_ns, 0), gamma_mod._Lattice)):
        def priced(self, *args, cost=cost):
            lattice_init(self, *args)
            self.cost = cost

        monkeypatch.setattr(gamma_mod._Lattice, "__init__", priced)
        assert engine(tie) is want
    # the finder's call has no lattice path
    seed0 = Instance("1.4", "-1", "-1.7", "-0.3791", eps=2.0, x=1e5, lambda0=0.1)
    assert type(gamma_mod._oriented_engine(seed0, table)) is gamma_mod._Engine


# -------------------------------------------------------------------- volume

def test_volume_plateau_exact():
    # θ ≡ 1 across the whole box: volume is (0.7·100)² · |J| = 70³
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=240.0, x=100.0, lambda0=0.3)
    b = b_j_volume(inst, kernel_new(240.0, 3), (30.0, 100.0))
    assert abs(b - 343000.0) <= 1e-9 * 343000.0


def test_volume_matches_monte_carlo():
    # frozen oracle: 1e8 uniform samples on (50,100]³, default_rng(20260814),
    # gave 898.1496973455305; quadrature landed 4.0e-4 away (inside the MC
    # ±1.2e-3 one-sigma band)
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=20.0, x=100.0, lambda0=0.5)
    b = b_j_volume(inst, kernel_new(20.0, 4), (50.0, 100.0))
    assert abs(b - 898.1496973455305) <= 1e-3 * 898.1496973455305


def test_volume_x_doubling_bracket():
    # plane cuts the box interior at λ₀ = 0.3, so B ≈ c·ε·X²
    norms = []
    for x in (100.0, 200.0):
        inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=x, lambda0=0.3)
        v = b_j_volume(inst, kernel_new(0.5, 3), (0.3 * x, x))
        norms.append(v / (0.5 * x * x))
    assert 0.99 <= norms[1] / norms[0] <= 1.01


def test_volume_corner_degenerate_is_x_free():
    # at λ₀ = 1/2 with these signs the window only clips the box corner, so
    # the volume is O(ε³) and independent of X
    vals = []
    for x in (100.0, 200.0):
        inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=x, lambda0=0.5)
        vals.append(b_j_volume(inst, kernel_new(0.5, 3), (0.5 * x, x)))
    assert abs(vals[0] - vals[1]) <= 1e-9 * vals[0]


def test_volume_eps_doubling():
    vals = []
    for eps in (0.5, 1.0):
        inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=eps, x=100.0, lambda0=0.3)
        vals.append(b_j_volume(inst, kernel_new(eps, 3), (30.0, 100.0)))
    assert 1.99 <= vals[1] / vals[0] <= 2.01


def test_volume_validation():
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=1.0, x=100.0, lambda0=0.3)
    with pytest.raises(DomainError):
        b_j_volume(inst, kernel_new(1.0, 3), (10.0, 100.0))   # J below the box
    with pytest.raises(DomainError):
        b_j_volume(inst, kernel_new(1.0, 3), (60.0, 120.0))   # J above the box
    with pytest.raises(DomainError):
        b_j_volume(inst, kernel_new(0.5, 3), (30.0, 100.0))   # eps mismatch


def test_volume_cubic_branch_matches_truncated_sum():
    # past u = k the closed cubic of `_ih_h` is the full alternating sum
    for k in range(1, 9):
        for u in (Fraction(k), Fraction(k) + Fraction(1, 3), Fraction(7 * k + 5, 2)):
            direct = sum((-1) ** j * math.comb(k, j) * (u - j) ** (k + 3)
                         for j in range(k + 1)) / math.factorial(k + 3)
            assert gamma_mod._ih_h(u, k) == direct


def test_volume_band_corner_matches_1d_integral():
    # only the corner (X, λ₀X, λ₀X) meets the window, and the box is wide
    # against ε, so B_J = Θ₃(η) = ∫_{−∞}^η θ(v)·(η−v)²/2 dv; η in either
    # transition band or on the plateau puts that corner inside θ's support
    kern = kernel_new(0.5, 3)
    knots = sorted(s * kern.a + (j - kern.k / 2) * kern.delta
                   for s in (-1, 1) for j in range(kern.k + 1))
    for eta in (0.45, 0.3, -0.42):
        inst = Instance(1.0, -1.0, -1.0, eta=eta, eps=0.5, x=100.0, lambda0=0.5)
        want = mpmath.quad(lambda v: theta_eval(kern, float(v)) * (eta - v) ** 2 / 2,
                           [t for t in knots if t < eta] + [eta])
        assert b_j_volume(inst, kern, (50.0, 100.0)) == pytest.approx(float(want), rel=1e-12)


_SQ2_VOLUME = (Instance(SQ2, -1.0, -SQ3, eta=0.3, eps=0.01, x=1e7, lambda0=0.5),
               kernel_new(0.01, 16))


def test_volume_j_additive():
    inst, kern = _SQ2_VOLUME
    whole = b_j_volume(inst, kern, (5e6, 1e7))
    parts = b_j_volume(inst, kern, (5e6, 7.3e6)) + b_j_volume(inst, kern, (7.3e6, 1e7))
    assert abs(parts - whole) <= 4 * math.ulp(whole)


def test_volume_reflection_and_swap_bit_identical():
    # θ is even and the corner sum is exact, so (λ, η) → (−λ, −η) and
    # λ₁ ↔ λ₂ give the same rational, hence the same float
    inst, kern = _SQ2_VOLUME
    want = b_j_volume(inst, kern, (5e6, 1e7))
    neg = Instance(-SQ2, 1.0, SQ3, eta=-0.3, eps=0.01, x=1e7, lambda0=0.5)
    swap = Instance(-1.0, SQ2, -SQ3, eta=0.3, eps=0.01, x=1e7, lambda0=0.5)
    assert b_j_volume(neg, kern, (5e6, 1e7)) == want
    assert b_j_volume(swap, kern, (5e6, 1e7)) == want


def test_volume_matches_frozen_quadrature():
    # the nested adaptive quadrature this closed form replaced gave
    # 829494728.6512498 on this instance (relative target 1e−6)
    inst, kern = _SQ2_VOLUME
    want = 829494728.6512498
    assert abs(b_j_volume(inst, kern, (5e6, 1e7)) - want) <= 1e-9 * want


def test_volume_plateau_exact_past_f64_cutoff():
    # the rational sum is exact for any k, well past the θ table's k = 25
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=240.0, x=100.0, lambda0=0.3)
    assert b_j_volume(inst, kernel_new(240.0, 30), (30.0, 100.0)) == 343000.0


# ------------------------------------------------------------- triple finder

def test_find_triples_x30(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05,
                    ratio_irrational=True)
    wits = find_triples(inst, table4)
    rows = [(w.p1, w.p2, w.p3) for w in wits]
    assert rows == [(5, 2, 3), (5, 3, 2), (7, 2, 5), (7, 5, 2),
                    (13, 2, 11), (13, 11, 2), (19, 2, 17), (19, 17, 2)]
    for w in wits:
        assert w.residual == 0.0
        assert w.x * w.x + w.y * w.y + 1 == w.p3
    assert (wits[2].x, wits[2].y) == (0, 2)   # 5 = 0² + 2² + 1
    # truncation keeps the sorted prefix
    assert [(w.p1, w.p2, w.p3) for w in find_triples(inst, table4, max_results=2)] \
        == rows[:2]


def test_find_triples_all_positions_linnik(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05,
                    ratio_irrational=True)
    wits = find_triples(inst, table4, require_linnik={1, 2, 3})
    assert [(w.p1, w.p2, w.p3) for w in wits] == \
        [(5, 2, 3), (5, 3, 2), (19, 2, 17), (19, 17, 2)]
    for w in wits:
        for p, wit in ((w.p1, w.witness1), (w.p2, w.witness2),
                       (w.p3, (w.x, w.y))):
            assert wit is not None
            assert wit[0] ** 2 + wit[1] ** 2 + 1 == p


def test_find_triples_searches_witnesses_without_the_table():
    table = sieve_primes(20_000)
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.3, eps=0.5, x=2e4, lambda0=0.1,
                    ratio_irrational=True)
    runs = {req: find_triples(inst, table, require_linnik=req, max_results=2000)
            for req in (frozenset({1, 2, 3}), frozenset())}
    assert not hasattr(table, "_witnesses")          # no array over [0, X]
    least = {}
    for x in range(math.isqrt(10_000) + 1):          # x ascending: first hit is least
        for y in range(x, math.isqrt(20_000 - x * x) + 1):
            least.setdefault(x * x + y * y + 1, (x, y))

    def lookup(p):
        return least.get(p, (-1, -1))

    for req, wits in runs.items():
        assert len(wits) > 1000
        # the rows repeat primes, so each slot's search maps back to many rows
        assert len({w.p3 for w in wits}) < len(wits)
        for w in wits:
            assert (w.x, w.y) == lookup(w.p3)
            for i, (p, wit) in enumerate(((w.p1, w.witness1), (w.p2, w.witness2)), 1):
                want = lookup(p) if i in req else None
                assert wit == (None if want == (-1, -1) else want)
    assert any(w.x < 0 for w in runs[frozenset()])   # a non-Linnik p3 reads −1


def test_find_triples_missing_witness_is_an_error(table4, monkeypatch):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05,
                    ratio_irrational=True)

    def sweep_with(p, r_p, x_p):
        def corrupted(table, lo, hi):
            r, wx = linnik_rows(table, lo, hi)
            at = table.primes[table.prime_slice(lo, hi)] == p
            r[at], wx[at] = r_p, x_p
            return r, wx
        monkeypatch.setattr(gamma_mod, "linnik_rows", corrupted)

    # 5 − 1 = 0² + 2²: x² > p − 1, p − 1 − x² not a square, and x > y
    for x in (3, 1, 2):
        sweep_with(5, 4, x)
        with pytest.raises(NumericError, match=f"p=5 the witness x={x}"):
            find_triples(inst, table4)
    # a sweep that finds 3 − 1 = 1² + 1² not Linnik drops p3 = 3 from the
    # rows it masks, and prints (−1, −1) for it where p3 is not masked
    sweep_with(3, 0, -1)
    assert [(w.p1, w.p2, w.p3) for w in find_triples(inst, table4)][:2] \
        == [(5, 3, 2), (7, 2, 5)]
    wits = find_triples(inst, table4, require_linnik={1})
    assert (wits[0].p3, wits[0].x, wits[0].y, wits[0].witness1) == (3, -1, -1, (0, 2))
    assert all(w.x >= 0 for w in wits[1:])


def test_find_triples_sorted_by_residual(table4):
    with mpmath.workprec(256):
        hp = (mpmath.sqrt(2), mpmath.mpf(-1), -mpmath.sqrt(3), mpmath.mpf(0))
    exact = (certified_named("sqrt2").value, -1, certified_named("-sqrt3").value, 0)
    inst = Instance(*exact, eps=0.01, x=1e4, lambda0=0.5, ratio_irrational=True)
    wits = find_triples(inst, table4, max_results=50)
    assert len(wits) >= 1
    resid = [abs(w.residual) for w in wits]
    assert resid == sorted(resid)
    with mpmath.workprec(256):
        for w in wits:
            r = hp[0] * w.p1 + hp[1] * w.p2 + hp[2] * w.p3 + hp[3]
            assert abs(r) < 0.01
            assert float(r) == w.residual
            assert w.x * w.x + w.y * w.y + 1 == w.p3
            assert 5000.0 < min(w.p1, w.p2, w.p3) and max(w.p1, w.p2, w.p3) <= 10000


def test_find_triples_warns_outside_theorem_mode(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.05)
    with pytest.warns(UserWarning):
        find_triples(inst, table4)
    inst_ok = Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=0.5, x=30.0, lambda0=0.05,
                       ratio_irrational=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        find_triples(inst_ok, table4)


def test_find_triples_empty_cases(table4):
    inst0 = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.0, x=100.0, lambda0=0.1,
                     ratio_irrational=True)
    assert find_triples(inst0, table4) == []
    # no primes at all in (29.1, 30]
    inst1 = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=0.97,
                     ratio_irrational=True)
    assert find_triples(inst1, table4) == []


def test_find_triples_validation_and_budget(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=1000.0, lambda0=0.1,
                    ratio_irrational=True)
    with pytest.raises(DomainError):
        find_triples(inst, table4, require_linnik={0, 3})
    with pytest.raises(DomainError):
        find_triples(inst, table4, max_results=0)
    with pytest.raises(ResourceError):
        find_triples(inst, table4, work_budget=10)


def test_find_triples_thread_determinism(table4):
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=0.05, x=5000.0, lambda0=0.3,
                    ratio_irrational=True)
    a = find_triples(inst, table4, threads=1)
    b = find_triples(inst, table4, threads=4)
    assert a == b and len(a) > 0


# ----------------------------------------------------------------- budgeting

def test_work_budget(table4):
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=1e4, lambda0=0.5)
    with pytest.raises(ResourceError):
        gamma_sharp(inst, table4, work_budget=1000)


def test_hits_budget(table4, monkeypatch):
    # 2¹⁴·n3 ≈ 1.7e7 window hits in one chunk of live pairs with an
    # everything-in-window eps, over a budget of 2²⁴
    monkeypatch.setattr(gamma_mod, "HITS_BUDGET", 2**24)
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=1e9, x=1e4, lambda0=0.1)
    with pytest.raises(ResourceError):
        gamma_smoothed(inst, kernel_new(1e9, 2), table4)


def test_finder_caps_total_hits(table4, monkeypatch):
    # every chunk collects fewer than HITS_BUDGET hits, but all of them together
    # are one too many
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=0.01, x=1e4, lambda0=0.1,
                    ratio_irrational=True)
    total = gamma_sharp(inst, table4)[1]
    monkeypatch.setattr(gamma_mod, "HITS_BUDGET", total)
    assert len(find_triples(inst, table4, require_linnik=frozenset(), threads=2)) == 100
    monkeypatch.setattr(gamma_mod, "HITS_BUDGET", total - 1)
    for threads in (1, 2):
        with pytest.raises(ResourceError, match="hits budget"):
            find_triples(inst, table4, require_linnik=frozenset(), threads=threads)
    # eight workers on 202 chunks, switching threads often: the running total
    # is checked in chunk order as the chunks are consumed, so no lost update
    # lets the last hit through, and at half the hits the error names the
    # same count for any thread count
    small = Instance(SQ2, -1.0, -SQ3, eta=0.1, eps=0.5, x=1000.0, lambda0=0.3,
                     ratio_irrational=True)
    monkeypatch.setattr(gamma_mod, "_CHUNK", 8)
    monkeypatch.setattr(gamma_mod.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    _, cum = gamma_mod._oriented_engine(small, table4).runs()
    assert -(-int(cum[-1]) // 8) // gamma_mod._POOL_CHUNKS >= 8
    total = gamma_sharp(small, table4)[1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for budget in (total - 1, total // 2):
            monkeypatch.setattr(gamma_mod, "HITS_BUDGET", budget)
            texts = []
            for threads in (1, 8, 8, 8, 8, 8, 8, 8, 8):
                with pytest.raises(ResourceError, match="hits budget") as err:
                    find_triples(small, table4, require_linnik=frozenset(), threads=threads)
                texts.append(str(err.value))
            assert texts == [texts[0]] * 9, budget
    finally:
        sys.setswitchinterval(interval)
    assert texts[0] == "1.36e+02 collected window hits exceed the hits budget"


def test_sharp_enumerates_no_hits(table4):
    # the sharp Γ reads prefix sums only, so a window holding every triple
    # stays clear of HITS_BUDGET (the smoothed twin trips it: test_hits_budget)
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=1e9, x=1e4, lambda0=0.1)
    _, cnt = gamma_sharp(inst, table4)
    n = len(table4.primes[table4.prime_slice(1e3, 1e4)])
    assert cnt == n ** 3


def test_instance_validation(table4):
    with pytest.raises(DomainError):
        Instance(0.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0)
    with pytest.raises(DomainError):
        Instance(1.0, -1.0, -1.0, eta=0.0, eps=-0.5, x=30.0)
    with pytest.raises(DomainError):
        Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=30.0, lambda0=1.0)
    with pytest.raises(DomainError):
        Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=0.0)
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=0.5, x=2e4)
    with pytest.raises(DomainError):
        gamma_sharp(inst, table4)   # X beyond the sieve limit
    good = dict(lambda1=1.0, lambda2=-1.0, lambda3=-1.0, eta=0.0, eps=0.5,
                x=30.0, lambda0=0.5)
    for key in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                Instance(**{**good, key: bad})


def test_instance_holds_exact_rationals():
    # each coefficient is held as the exact rational given, whatever its type
    inst = Instance("1.0000000000000000001", -1, 0.5, Fraction(1, 3), eps=0.5, x=30.0)
    exact = (inst.lambda1, inst.lambda2, inst.lambda3, inst.eta)
    assert exact == (Fraction(10 ** 19 + 1, 10 ** 19), -1, Fraction(1, 2), Fraction(1, 3))
    assert all(type(v) is Fraction for v in exact)
    assert inst.floats == (1.0, -1.0, 0.5, 1 / 3)
    # a float is held as its binary value, so floats gives it back
    held = Instance(1.0, -1.0, -1.0, eta=0.1, eps=0.5, x=30.0)
    assert held.eta == Fraction(0.1) and held.floats[3] == 0.1
    # floats rounds once to nearest, ties to even, where float(num)/float(den)
    # would overflow
    big, half = 10 ** 400, Fraction(1, 2 ** 53)
    for v, want in ((1 + half, 1.0), (1 + 3 * half, 1 + 4 * half),
                    (1 + half + Fraction(1, big), 1 + 2 * half),
                    (Fraction(big + 1, big), 1.0), (Fraction(2 * big - 1, 3 * big), 2 / 3)):
        assert Instance(v, -1, -1, 0, eps=0.5, x=30.0).floats[0] == want, v
    # rebuilt from its exact fields, an instance keeps them, not their floats
    moved = Instance(*exact, eps=0.25, x=inst.x)
    assert (moved.lambda1, moved.lambda2, moved.lambda3, moved.eta) == exact
    assert moved.lattice[0] == 3 * 10 ** 19
    good = dict(lambda1=1, lambda2=-1, lambda3=-1, eta=0, eps=0.5, x=30.0)
    for key in ("lambda1", "lambda2", "lambda3", "eta"):
        for bad in (mpmath.mpf(1), math.nan, math.inf, -math.inf, "abc", "1e400",
                    Fraction(10 ** 400)):
            with pytest.raises(DomainError, match="finite"):
                Instance(**{**good, key: bad})
    # a coefficient whose float is 0 is refused, as 0 is; η may round to 0
    for key in ("lambda1", "lambda2", "lambda3"):
        for bad in ("1e-400", "-1e-400", 0):
            with pytest.raises(DomainError, match="nonzero finite"):
                Instance(**{**good, key: bad})
    tiny = Instance(**{**good, "eta": "1e-400"})
    assert tiny.eta == Fraction(1, 10 ** 400) and tiny.floats[3] == 0.0


def test_theorem_mode_flag():
    assert Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=0.5, x=100.0,
                    ratio_irrational=True).theorem_mode is True
    assert Instance(SQ2, -1.0, -SQ3, eta=0.0, eps=0.5, x=100.0).theorem_mode \
        is False
    assert Instance(SQ2, 1.0, SQ3, eta=0.0, eps=0.5, x=100.0,
                    ratio_irrational=True).theorem_mode is False


# -------------------------------------------------------- divisor statistics

def test_hooley_sigma_matches_brute(table4):
    sympy = pytest.importorskip("sympy")

    def brute(x, d, lambda0):
        total = 0
        for p in sympy.primerange(int(lambda0 * x) + 1, int(x) + 1):
            if p <= lambda0 * x:
                continue
            s = sum(_chi_int(dv) for dv in sympy.divisors(p - 1)
                    if d < dv < x / d)
            total += s * s
        return total

    assert hooley_sigma_prime(table4, 100.0, 5.0, lambda0=0.1) \
        == brute(100.0, 5.0, 0.1)
    assert hooley_sigma_prime(table4, 1000.0, 9.0) == brute(1000.0, 9.0, 0.0)


def test_hooley_sigma_empty_range(table4):
    # D → √X: the middle range (D, X/D) contains only 10, and χ(10) = 0
    assert hooley_sigma_prime(table4, 100.0, 9.999) == 0


def test_hooley_sigma_validation(table4):
    with pytest.raises(DomainError):
        hooley_sigma_prime(table4, 100.0, 11.0)
    with pytest.raises(DomainError):
        hooley_sigma_prime(table4, 100.0, 5.0, lambda0=1.0)
    with pytest.raises(DomainError):
        hooley_sigma_prime(table4, 2e4, 5.0)


def test_hooley_f_omega_matches_brute(table4):
    sympy = pytest.importorskip("sympy")
    x, om = 100.0, 0.5
    lo = math.sqrt(x) * math.log(x) ** (-om)
    hi = math.sqrt(x) * math.log(x) ** om
    want = sum(
        1 for p in sympy.primerange(2, 101)
        if any(lo < dv < hi for dv in sympy.divisors(p - 1))
    )
    assert hooley_f_omega(table4, x, om) == want


def test_hooley_f_omega_saturates(table4):
    # interval covers 1, so every prime counts
    assert hooley_f_omega(table4, 100.0, 10.0) == table4.prime_count(100.0)
    with pytest.raises(DomainError):
        hooley_f_omega(table4, 100.0, 0.0)


def test_hooley_f_omega_rejects_non_finite_omega(table4):
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            hooley_f_omega(table4, 100.0, bad)


def test_hooley_f_omega_rejects_x_at_most_one(table4):
    # ln X ≤ 0 there: 0.0 ** -omega divides by zero, and X < 1 is complex
    for bad in (1.0, 0.5):
        with pytest.raises(DomainError):
            hooley_f_omega(table4, bad, 0.5)


def _weight_array_divisor_sum(w, n_max):
    """acc[n] = Σ_{d|n} w[d] for n ≤ n_max: the weight-array form of
    ``divisor_sum``, whose windows are weights zeroed outside them."""
    acc = np.zeros(n_max + 1, dtype=np.int64)
    s = math.isqrt(n_max)
    for d in np.flatnonzero(w[1 : s + 1]) + 1:
        acc[d::d] += w[d]
    big = np.flatnonzero(w[s + 1 :]) + (s + 1)
    for m in range(1, s + 1):
        ds = big[: np.searchsorted(big, n_max // m, side="right")]
        acc[m * ds] += w[ds]
    return acc


def _window_columns(ps, x, d_split):
    """The split columns a₁, a₂, a₃ and the Hooley mid column at the p − 1,
    from χ and masks over [0, max p − 1] compared with the float cuts."""
    n_max = int(ps.max()) - 1
    d = np.arange(n_max + 1)
    chi_d = (d & 1) * (1 - (d & 2))
    t_hi = x / d_split
    return [_weight_array_divisor_sum(np.where(win, chi_d, 0), n_max)[ps - 1]
            for win in (d <= d_split, (d_split < d) & (d < t_hi), d >= t_hi)]


@pytest.mark.parametrize("x, d_split", [(1e4, 20.0), (1e4, 17.5), (1e4, 99.9),
                                        (1e4, 25.0), (100.0, 5.0)])
def test_divisor_windows_match_the_weight_arrays(table4, monkeypatch, x, d_split):
    seen, divisor_sum = [], gamma_mod.divisor_sum

    def spy(*args, **kwargs):
        seen.append(divisor_sum(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(gamma_mod, "divisor_sum", spy)
    inst = Instance(SQ2, -1.0, -SQ3, eta=0.2, eps=0.5, x=x, lambda0=0.1)
    gamma_split(inst, kernel_new(0.5, 2), table4, d_split=d_split)
    ps = table4.primes[table4.prime_slice(0.1 * x, x)]
    want = _window_columns(ps, x, d_split)
    assert len(seen) == 3
    for got, ref in zip(seen, want):
        assert np.array_equal(got, ref)

    for lam0 in (0.0, 0.1):
        ps = table4.primes[table4.prime_slice(lam0 * x, x)]
        mid = _window_columns(ps, x, d_split)[1]
        assert hooley_sigma_prime(table4, x, d_split, lam0) == int(np.sum(mid * mid))
    ps = table4.primes[: table4.prime_count(x)]
    d = np.arange(int(ps.max()))
    lx = math.log(x)
    for om in (1e-20, 0.5, 1.0, 10.0):
        lo, hi = math.sqrt(x) * lx ** (-om), math.sqrt(x) * lx ** om
        hits = _weight_array_divisor_sum((lo < d) & (d < hi), len(d) - 1)[ps - 1]
        assert hooley_f_omega(table4, x, om) == int(np.count_nonzero(hits > 0))
