"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints `CRITERION n: PASS|FAIL — detail` on the real stdout (so the
verdicts survive pytest's capture) *before* asserting, and also enforces the
criterion's wall-clock budget.  Frozen tolerances come from calibration runs
recorded in the project notes; they are pinned here, never loosened at runtime.
"""

import math
import random
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

from fourier_check import fourier_inverse_check
from linniklab.arith import r2, sieve_primes
from linniklab.cfrac import certified_named
from linniklab.dirichlet import chi_phi_partial, f_zero, linnik_constant, \
    linnik_empirical, n_s
from linniklab.expsums import major_arc_gap, minor_arc_report, s_ld
from linniklab.gamma import Instance, find_triples, gamma_sharp, \
    gamma_smoothed, gamma_split, hooley_f_omega, hooley_sigma_prime
from linniklab.schedule import THETA0, eps_positivity_report
from linniklab.smoothing import kernel_new, theta_eval, theta_fourier, theta_fourier_bound

@pytest.fixture(scope="module")
def table5():
    return sieve_primes(10**5)


def _say(capsys, n, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    # bypass pytest's fd-level capture so the verdict line always lands on
    # the real stdout (and in any tee'd log), pass or fail
    with capsys.disabled():
        print(f"CRITERION {n}: {verdict} — {detail}", flush=True)


def _grid(inst, table):
    # residual cube in the engine's association order, so θ weights agree
    # bitwise between the brute einsum and the chunked scan
    sl = table.prime_slice(inst.lambda0 * inst.x, inst.x)
    ps = table.primes[sl]
    w = np.log(ps.astype(np.float64))
    l1, l2, l3, eta = inst.floats
    res = ((l1 * ps + eta)[:, None] + l2 * ps[None, :])[:, :, None] + l3 * ps[None, None, :]
    return ps, w, res


def _chi_int(n):
    return 1 if n % 4 == 1 else (-1 if n % 4 == 3 else 0)


def test_criterion_01_representation_identity(table4, capsys):
    t0 = time.perf_counter()
    n_max = 10**4
    lattice = np.zeros(n_max + 1, dtype=np.int64)
    side = int(math.isqrt(n_max))
    for a in range(-side, side + 1):
        rest = n_max - a * a
        if rest < 0:
            continue
        b = np.arange(-int(math.isqrt(rest)), int(math.isqrt(rest)) + 1)
        np.add.at(lattice, a * a + b * b, 1)
    got = np.array([r2(n, table4) for n in range(1, n_max + 1)])
    bad = int(np.count_nonzero(got != lattice[1:]))
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 5.0
    _say(capsys, 1, ok, f"character-sum r2 vs lattice count on n ≤ 1e4: "
                f"{bad} mismatches, {dt:.2f}s")
    assert bad == 0
    assert dt < 5.0


def test_criterion_02_split_identity_random_instances(table4, capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    checked = 0
    for _ in range(20):
        x = rng.uniform(1e3, 1e4)
        l1 = rng.uniform(0.5, 2.5)
        l2 = -rng.uniform(0.5, 2.5)
        l3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.5)
        inst = Instance(l1, l2, l3, eta=rng.uniform(-3.0, 3.0),
                        eps=rng.uniform(0.5, 2.5), x=x,
                        lambda0=rng.uniform(0.05, 0.3))
        kern = kernel_new(inst.eps, 3)
        d1 = rng.uniform(1.5, 0.9 * math.sqrt(x))
        d2 = rng.uniform(1.5, 0.9 * math.sqrt(x))
        b1 = gamma_split(inst, kern, table4, d1)
        b2 = gamma_split(inst, kern, table4, d2)
        for b in (b1, b2):
            assert abs(4.0 * (b.g1 + b.g2 + b.g3) - b.gamma0) \
                <= 1e-9 * max(1.0, abs(b.gamma0))
        # the cut position reshuffles g1/g2/g3 but never the totals
        assert (b1.gamma0, b1.gamma, b1.triple_count) \
            == (b2.gamma0, b2.gamma, b2.triple_count)
        checked += 1
    dt = time.perf_counter() - t0
    ok = checked == 20 and dt < 60.0
    _say(capsys, 2, ok, f"gamma0 = 4(g1+g2+g3) and D-invariance on {checked} random "
                f"desk instances, {dt:.2f}s")
    assert ok


def test_criterion_03_oracle_equivalence(table4, capsys):
    sympy = pytest.importorskip("sympy")
    t0 = time.perf_counter()
    details = []
    for x in (300.0, 500.0):
        inst = Instance(1.0, -1.0, -1.0, eta=0.3, eps=2.5, x=x, lambda0=0.05)
        kern = kernel_new(inst.eps, 2)
        d_split = 9.0
        ps, w, res = _grid(inst, table4)
        assert float(np.min(np.abs(np.abs(res) - inst.eps))) > 1e-9
        r2w = np.array([r2(int(p) - 1, table4) for p in ps]) * w
        inwin = (np.abs(res) < inst.eps).astype(np.float64)
        want_sharp = float(np.einsum("i,j,ijk,k->", w, w, inwin, r2w))
        want_count = int(inwin.sum())
        th = theta_eval(kern, res)
        want_smooth = float(np.einsum("i,j,ijk,k->", w, w, th, r2w))
        s = np.zeros((3, len(ps)))
        t_hi = x / d_split
        for i, p in enumerate(ps):
            for dv in sympy.divisors(int(p) - 1):
                c = _chi_int(dv)
                if dv <= d_split:
                    s[0, i] += c
                elif dv < t_hi:
                    s[1, i] += c
                else:
                    s[2, i] += c
        want_g = [float(np.einsum("i,j,ijk,k->", w, w, th, s[m] * w))
                  for m in range(3)]

        val, cnt = gamma_sharp(inst, table4)
        assert cnt == want_count
        assert abs(val - want_sharp) <= 1e-12 * abs(want_sharp)
        sm = gamma_smoothed(inst, kern, table4)
        assert abs(sm - want_smooth) <= 1e-12 * abs(want_smooth)
        b = gamma_split(inst, kern, table4, d_split)
        assert b.triple_count == want_count
        assert abs(b.gamma - want_sharp) <= 1e-12 * abs(want_sharp)
        assert abs(b.gamma0 - want_smooth) <= 1e-12 * abs(want_smooth)
        for got_g, wg in zip((b.g1, b.g2, b.g3), want_g):
            assert abs(got_g - wg) <= 1e-12 * max(1.0, abs(wg))
        details.append(f"X={x:g}: {cnt} triples")
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    _say(capsys, 3, ok, f"sharp/smoothed/split equal the O(P³) oracle "
                f"({'; '.join(details)}), {dt:.2f}s")
    assert ok


def test_criterion_04_kernel_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_env = 0.0
    for eps in (0.01, 0.1, 1.0):
        for k in (1, 2, 4, 11):
            kern = kernel_new(eps, k)
            y = np.linspace(-1.25 * eps, 1.25 * eps, 100001)
            th = theta_eval(kern, y)
            ay = np.abs(y)
            assert np.all(th[ay <= 0.75 * eps] == 1.0)
            assert np.all(th[ay >= eps] == 0.0)
            assert np.all((th >= 0.0) & (th <= 1.0))
            xs = np.concatenate([
                10.0 ** rng.uniform(-3, 4, 5000),
                rng.uniform(1e-3, 1e4, 5000),
            ])
            hat = theta_fourier(kern, xs)
            env = theta_fourier_bound(kern, xs)
            ratio = float(np.max(np.abs(hat) / env))
            worst_env = max(worst_env, ratio)
            assert ratio <= 1.0 + 1e-12
            assert abs(theta_fourier(kern, 0.0) - 1.75 * eps) <= 1e-12 * 1.75 * eps
    worst_inv = 0.0
    for eps, k in ((1.0, 4), (0.1, 4), (0.1, 11), (0.01, 11)):
        kern = kernel_new(eps, k)
        for frac in (0.0, 0.3, 0.75, 0.9, 1.1):
            rep = fourier_inverse_check(kern, frac * eps, 1e-6)
            worst_inv = max(worst_inv, rep["abs_err"])
            assert rep["abs_err"] <= 1e-6
    dt = time.perf_counter() - t0
    ok = dt < 120.0
    _say(capsys, 4, ok, f"plateau/support on 1e5-pt grids, |Θ| ≤ envelope "
                f"(worst ratio {worst_env:.3f}), inverse check worst err "
                f"{worst_inv:.2e} over 20 points, {dt:.1f}s")
    assert ok


def test_criterion_05_major_arc_trend(table4, table5, table6, table7, capsys):
    t0 = time.perf_counter()
    tables = {1e4: table4, 1e5: table5, 1e6: table6, 1e7: table7}
    xs = [1e4, 1e5, 1e6, 1e7]
    seq_zero = [major_arc_gap(tables[x], x, 0.0, 0.5)["gap_over_x"] for x in xs]
    seq_recip = [major_arc_gap(tables[x], x, 1.0 / x, 0.5)["gap_over_x"]
                 for x in xs]
    dec_zero = all(a > b for a, b in zip(seq_zero, seq_zero[1:]))
    dec_recip = all(a > b for a, b in zip(seq_recip, seq_recip[1:]))
    dt = time.perf_counter() - t0
    ok = dec_zero and dec_recip and dt < 300.0
    _say(capsys, 5, ok, "|S−I|/X at α=0: [" + ", ".join(f"{v:.3e}" for v in seq_zero)
         + f"] strictly decreasing={dec_zero}; at α=1/X: ["
         + ", ".join(f"{v:.3e}" for v in seq_recip)
         + f"] strictly decreasing={dec_recip}; {dt:.1f}s")
    assert dt < 300.0
    assert dec_recip
    # known red: the α=0 gap rises from X=1e5 to 1e6 (the oscillating
    # Chebyshev error term is not monotone at desk scale); kept as an
    # honest failure rather than weakening the asserted trend
    assert dec_zero


def test_criterion_06_minor_arc_closed_form(table4, table5, table7, capsys):
    t0 = time.perf_counter()
    for x, table in ((1e3, table4), (1e5, table5)):
        s = s_ld(table, 1, 1, (0.0, x), 0.5)
        theta = math.fsum(np.log(table.primes[:table.prime_count(x)].astype(np.float64)))
        want = 2.0 * math.log(2.0) - theta
        assert abs(s - want) <= 1e-9 * max(1.0, abs(want))
    ratios = [minor_arc_report(table7, 1e6, 1, q, 1.0 / q)["ratio"]
              for q in (5, 50, 500)]
    # frozen at calibration: worst measured ratio 1.34e-5
    cap = 1e-4
    dt = time.perf_counter() - t0
    ok = max(ratios) < cap and dt < 60.0
    _say(capsys, 6, ok, f"Σ(1/2,X) parity identity to 1e-9 at X∈{{1e3,1e5}}; "
                f"minor-arc ratios {['%.2e' % r for r in ratios]} all < {cap:g}; "
                f"{dt:.1f}s")
    assert max(ratios) < cap
    assert dt < 60.0


def test_criterion_07_singular_series(table6, table7, capsys):
    t0 = time.perf_counter()
    assert linnik_constant(10**6, table6) == 4.0 * f_zero(10**6, table6)
    v6 = n_s(0.0, 10**6, table6)
    v7 = n_s(0.0, 10**7, table7)
    move = abs(v6.value - v7.value)
    assert move <= v6.tail_bound
    cp = chi_phi_partial(10**6)[-1][1]
    fz = f_zero(10**7, table7)
    gap = abs(cp - fz)
    # frozen at calibration: measured 1.38e-6
    tol = 1e-4
    dt = time.perf_counter() - t0
    ok = gap <= tol and dt < 120.0
    _say(capsys, 7, ok, f"4·f(0) identity bitwise; N(0) move {move:.2e} ≤ tail "
                f"{v6.tail_bound:.0e}; |chi/phi(1e6) − f(0)@1e7| = {gap:.2e} "
                f"≤ {tol:g}; {dt:.1f}s")
    assert gap <= tol
    assert dt < 120.0


def test_criterion_08_density_asymptotic(table7, capsys):
    t0 = time.perf_counter()
    devs, ratios = [], []
    for x in (1e5, 1e6, 1e7):
        d = linnik_empirical(table7, x)
        ratios.append(d["ratio"])
        devs.append(abs(d["ratio"] - 1.0))
    non_inc = all(a >= b for a, b in zip(devs, devs[1:]))
    in_bracket = 0.8 <= ratios[-1] <= 1.4
    dt = time.perf_counter() - t0
    ok = non_inc and in_bracket and dt < 300.0
    _say(capsys, 8, ok, f"ratios {[f'{r:.4f}' for r in ratios]}, |ratio−1| "
                f"non-increasing={non_inc}, ratio(1e7)={ratios[-1]:.4f} "
                f"∈ [0.8,1.4]; {dt:.1f}s")
    assert ok


def test_criterion_09_divisor_statistics(table4, table6, capsys):
    sympy = pytest.importorskip("sympy")
    t0 = time.perf_counter()
    for x, d_split, lam0 in ((100.0, 5.0, 0.1), (1e3, 9.0, 0.0)):
        want_sig = 0
        sl = table4.prime_slice(lam0 * x, x)
        for p in table4.primes[sl]:
            s = sum(_chi_int(dv) for dv in sympy.divisors(int(p) - 1)
                    if d_split < dv < x / d_split)
            want_sig += s * s
        assert hooley_sigma_prime(table4, x, d_split, lam0) == want_sig
        lx = math.log(x)
        lo, hi = math.sqrt(x) / math.sqrt(lx), math.sqrt(x) * math.sqrt(lx)
        want_f = sum(
            1 for p in table4.primes[: table4.prime_count(x)]
            if any(lo < dv < hi for dv in sympy.divisors(int(p) - 1))
        )
        assert hooley_f_omega(table4, x, 0.5) == want_f
    norm_sig, norm_f = [], []
    for x in (1e5, 1e6):
        lx, llx = math.log(x), math.log(math.log(x))
        sig = hooley_sigma_prime(table6, x, x**0.4, 0.1)
        fom = hooley_f_omega(table6, x, 1.0)
        norm_sig.append(sig * lx / (x * llx**7))
        norm_f.append(fom * lx ** (1.0 + 2.0 * THETA0) / (x * llx**3))
    fac_sig = max(norm_sig) / min(norm_sig)
    fac_f = max(norm_f) / min(norm_f)
    dt = time.perf_counter() - t0
    ok = fac_sig < 3.0 and fac_f < 3.0 and dt < 180.0
    _say(capsys, 9, ok, f"exact oracles at X∈{{100,1e3}}; normalized trend factors "
                f"Σ′ {fac_sig:.2f}, F_ω {fac_f:.2f} (both < 3) between "
                f"X=1e5 and 1e6; {dt:.1f}s")
    assert fac_sig < 3.0 and fac_f < 3.0
    assert dt < 180.0


def _reverify_256(wits, eps):
    with mpmath.workprec(256):
        r2hp, r3hp = mpmath.sqrt(2), mpmath.sqrt(3)
        for w in wits:
            r = r2hp * w.p1 - w.p2 - r3hp * w.p3
            assert abs(r) < eps
            assert float(r) == w.residual
            assert w.x * w.x + w.y * w.y + 1 == w.p3


def test_criterion_10_theorem_demo(table5, table6, capsys):
    exact = (certified_named("sqrt2").value, -1, certified_named("-sqrt3").value, 0)
    inst5 = Instance(*exact, eps=0.01, x=1e5, lambda0=0.5, ratio_irrational=True)
    t0 = time.perf_counter()
    w5 = find_triples(inst5, table5, require_linnik={3}, threads=1)
    dt5 = time.perf_counter() - t0
    _reverify_256(w5, 0.01)

    inst6 = Instance(*exact, eps=0.01, x=1e6, lambda0=0.5, ratio_irrational=True)
    t0 = time.perf_counter()
    w6 = find_triples(inst6, table6, require_linnik={3}, threads=8)
    dt6 = time.perf_counter() - t0
    _reverify_256(w6, 0.01)

    ok = len(w5) >= 1 and len(w6) >= 1 and dt5 <= 10.0 and dt6 <= 300.0
    _say(capsys, 10, ok, f"X=1e5: {len(w5)} witnesses in {dt5:.2f}s single-thread; "
                 f"X=1e6: {len(w6)} witnesses in {dt6:.1f}s on 8 threads; "
                 f"all re-verified at 256-bit")
    assert len(w5) >= 1 and dt5 <= 10.0
    assert len(w6) >= 1 and dt6 <= 300.0


def test_criterion_11_cli_determinism(capsys):
    outs = []
    for threads in (1, 4, 8):
        proc = subprocess.run(
            [sys.executable, "-m", "linniklab", "triples",
             "--l1", "sqrt2", "--l2", "-1", "--l3=-sqrt3", "--eta", "0",
             "--eps", "0.01", "--x", "1e5", "--lambda0", "0.5",
             "--threads", str(threads)],
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    identical = outs[0] == outs[1] == outs[2]
    rows = outs[0].count(b"\n") - 1
    ok = identical and rows >= 1
    _say(capsys, 11, ok, f"triple-finder CLI output bytewise identical across "
                 f"1/4/8 threads ({rows} witness rows)")
    assert ok


def test_schedule_report_headline_eps_exceeds_one(capsys):
    rep = eps_positivity_report(100.0, 1e300)
    ok = rep["eps_exceeds_one"] and rep["eps_min_lower_bound"] > 1.0
    with capsys.disabled():
        print(f"SCHEDULE REPORT: {'PASS' if ok else 'FAIL'} — ε(X) > 1 for "
              f"all X ≤ 1e300 (certified lower bound "
              f"{rep['eps_min_lower_bound']:.4f} via concavity in ln ln X)",
              flush=True)
    assert ok
