import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fourier_check import fourier_inverse_check
from linniklab.errors import DomainError
from linniklab.smoothing import (
    _band_pieces,
    kernel_new,
    suggested_k,
    theta_antiderivative,
    theta_eval,
    theta_fourier,
    theta_fourier_bound,
)


def _uniform_sum_cdf(x: Fraction, k: int) -> Fraction:
    # CDF of a sum of k iid U[0,1]: (1/k!) Σ_j (−1)^j C(k,j) (x−j)₊^k; with
    # x = n/d that is Σ_{j ≤ n/d} (−1)^j C(k,j) (n − j·d)^k / (k!·d^k), summed
    # in integers and divided once
    if x <= 0:
        return Fraction(0)
    if x >= k:
        return Fraction(1)
    n, d = x.numerator, x.denominator
    acc = sum((-1) ** j * math.comb(k, j) * (n - j * d) ** k for j in range(n // d + 1))
    return Fraction(acc, math.factorial(k) * d**k)


def _theta_exact(y: Fraction, eps: Fraction, k: int) -> Fraction:
    # independent rational evaluation of the convolution formula
    a = 7 * eps / 8
    delta = eps / (4 * k)
    half = Fraction(k, 2)
    return _uniform_sum_cdf((y + a) / delta + half, k) - _uniform_sum_cdf(
        (y - a) / delta + half, k
    )


def test_theta_matches_rational_oracle():
    eps = Fraction(1)
    for k in (1, 2, 4, 7):
        kern = kernel_new(float(eps), k)
        for num in range(-40, 41):
            y = Fraction(num, 32)  # covers both bands, plateau, outside
            want = _theta_exact(y, eps, k)
            got = theta_eval(kern, float(y))
            assert abs(got - float(want)) < 1e-9, (k, y)
    # in-band spot check at eps = 0.1, k = 4
    got = theta_eval(kernel_new(0.1, 4), 0.08)
    want = _theta_exact(Fraction(8, 100), Fraction(1, 10), 4)
    assert 0.0 < got < 1.0
    assert abs(got - float(want)) < 1e-9


def _convolved_cdf(x: Fraction, k: int) -> Fraction:
    # independent algorithm: build the k-fold U[0,1] density by recursive
    # piecewise-polynomial convolution f_k(t) = F_{k-1}(t) − F_{k-1}(t−1)
    # (no alternating binomial sum anywhere), then integrate up to x
    def shift(p, s):  # p(y + s) expanded in y
        out = [Fraction(0)] * len(p)
        for i, c in enumerate(p):
            for j in range(i + 1):
                out[j] += c * math.comb(i, j) * s ** (i - j)
        return out

    def integ(p):  # antiderivative with zero constant
        return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]

    def peval(p, t):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * t + c
        return acc

    pieces = [[Fraction(1)]]  # density of U[0,1] on [0,1)
    for _ in range(k - 1):
        # cumulative antiderivative F on each knot interval [j, j+1)
        anti, consts, acc = [], [], Fraction(0)
        for j, p in enumerate(pieces):
            q = integ(shift(p, j))  # piece as a poly in (t − j)
            anti.append(q)
            consts.append(acc)
            acc += peval(q, 1)

        def cdf_prev(t):
            if t <= 0:
                return Fraction(0)
            if t >= len(pieces):
                return acc
            j = min(int(t), len(pieces) - 1)
            return consts[j] + peval(anti[j], t - j)

        nxt = []
        for j in range(len(pieces) + 1):
            # f_next restricted to [j, j+1) equals F(t) − F(t−1); reconstruct
            # its polynomial from degree+1 exact samples (Lagrange)
            deg = len(pieces[0])  # degree grows by one per convolution
            xs = [Fraction(j) + Fraction(i, deg + 1) for i in range(deg + 1)]
            ys = [cdf_prev(t) - cdf_prev(t - 1) for t in xs]
            poly = [Fraction(0)] * (deg + 1)
            for i, (xi, yi) in enumerate(zip(xs, ys)):
                term = [yi]
                for m, xm in enumerate(xs):
                    if m == i:
                        continue
                    term = [
                        (term[a] if a < len(term) else 0) * Fraction(-xm)
                        + (term[a - 1] if a >= 1 else 0)
                        for a in range(len(term) + 1)
                    ]
                    term = [c / (xi - xm) for c in term]
                for a, c in enumerate(term):
                    poly[a] += c
            nxt.append(poly)
        pieces = nxt

    if x <= 0:
        return Fraction(0)
    if x >= k:
        return Fraction(1)
    total = Fraction(0)
    for j, p in enumerate(pieces):
        q = integ(shift(p, j))
        if x >= j + 1:
            total += peval(q, 1)
        elif x > j:
            total += peval(q, x - j)
            break
    return total


def test_theta_matches_convolution_oracle():
    for k in (2, 3, 4):
        eps = Fraction(1, 2)
        kern = kernel_new(float(eps), k)
        a, delta = 7 * eps / 8, eps / (4 * k)
        half = Fraction(k, 2)
        for num in (-17, -13, -9, -3, 0, 5, 11, 14, 15):
            y = Fraction(num, 32)
            want = _convolved_cdf((y + a) / delta + half, k) - _convolved_cdf(
                (y - a) / delta + half, k
            )
            got = theta_eval(kern, float(y))
            assert abs(got - float(want)) < 1e-9, (k, y)


def test_plateau_and_support_are_exact():
    rng = random.Random(20260814)
    for k in (1, 2, 5, 13):
        for eps in (0.01, 0.3, 2.0):
            kern = kernel_new(eps, k)
            for _ in range(50):
                y = rng.uniform(-0.75 * eps, 0.75 * eps)
                assert theta_eval(kern, y) == 1.0
            for _ in range(50):
                y = rng.uniform(eps, 4 * eps) * rng.choice((-1.0, 1.0))
                assert theta_eval(kern, y) == 0.0
            # band endpoints
            assert theta_eval(kern, 0.75 * eps) == 1.0
            assert theta_eval(kern, -0.75 * eps) == 1.0
            assert theta_eval(kern, eps) == 0.0
            assert theta_eval(kern, -eps) == 0.0
            # center of the transition band (A = 7ε/8) is exactly 1/2
            assert abs(theta_eval(kern, 0.875 * eps) - 0.5) < 1e-12


def test_strictly_between_on_bands():
    # interior of the bands, margin 0.75·δ off each edge so f64 noise at the
    # k-fold alternating sum cannot push the value onto 0 or 1
    rng = random.Random(7)
    for k in (2, 4, 9, 13):
        for eps in (0.05, 1.0):
            kern = kernel_new(eps, k)
            lo = 0.75 * eps + 0.75 * kern.delta
            hi = eps - 0.75 * kern.delta
            for _ in range(80):
                y = rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
                v = theta_eval(kern, y)
                assert 0.0 < v < 1.0, (k, eps, y, v)


def test_theta_even_bitwise():
    rng = random.Random(11)
    kern = kernel_new(0.7, 6)
    ys = np.array([rng.uniform(-1.0, 1.0) for _ in range(200)])
    assert np.array_equal(theta_eval(kern, ys), theta_eval(kern, -ys))


def test_theta_array_matches_scalar():
    kern = kernel_new(0.25, 5)
    ys = np.linspace(-0.3, 0.3, 41)
    arr = theta_eval(kern, ys)
    assert arr.shape == ys.shape
    for y, v in zip(ys, arr):
        assert v == theta_eval(kern, float(y))


def test_antiderivative_matches_quadrature():
    kern = kernel_new(0.8, 4)
    a = kern.a
    # central finite differences of T reproduce θ
    for y in (-0.79, -0.7, -0.62, -0.3, 0.0, 0.45, 0.61, 0.7, 0.77):
        h = 1e-6
        fd = (theta_antiderivative(kern, y + h) - theta_antiderivative(kern, y - h)) / (
            2 * h
        )
        assert abs(fd - theta_eval(kern, y)) < 1e-6, y
    # pinned values
    assert theta_antiderivative(kern, -kern.eps) == 0.0
    assert theta_antiderivative(kern, -5.0) == 0.0
    assert theta_antiderivative(kern, kern.eps) == 2.0 * a
    assert theta_antiderivative(kern, 9.0) == 2.0 * a
    assert abs(theta_antiderivative(kern, 0.0) - a) < 1e-15
    # symmetry T(y) + T(−y) = 2A, since θ is even
    for y in (0.1, 0.5, 0.65, 0.71, 0.79, 2.0):
        s = theta_antiderivative(kern, y) + theta_antiderivative(kern, -y)
        assert abs(s - 2.0 * a) < 1e-14


def test_fourier_at_zero_and_evenness():
    for eps, k in ((0.01, 1), (0.4, 4), (1.0, 11)):
        kern = kernel_new(eps, k)
        assert abs(theta_fourier(kern, 0.0) - 1.75 * eps) < 1e-12 * eps
        xs = np.linspace(0.01, 30.0, 57)
        assert np.array_equal(theta_fourier(kern, xs), theta_fourier(kern, -xs))


def test_fourier_three_way_bound():
    rng = random.Random(3)
    for eps, k in ((0.01, 2), (0.2, 4), (1.5, 11)):
        kern = kernel_new(eps, k)
        for _ in range(400):
            x = 10.0 ** rng.uniform(-3, 4) * rng.choice((-1.0, 1.0))
            assert abs(theta_fourier(kern, x)) <= theta_fourier_bound(kern, x) * (
                1 + 1e-12
            )
        assert theta_fourier_bound(kern, 0.0) == 1.75 * eps


def test_fourier_integral_recovers_theta():
    kern = kernel_new(0.1, 4)
    for u in (0.0, 0.03, 0.075, 0.09, 0.11):
        rep = fourier_inverse_check(kern, u, tol=1e-6)
        assert rep["abs_err"] <= 1e-6
        assert rep["tail_bound"] <= 1e-7


def _exact_kernel(k):
    # ε = k/8 makes A = 7ε/8 and δ = ε/(4k) = 1/32 exact floats, so the
    # kernel's θ is the rational oracle's θ
    eps = k / 8
    kern = kernel_new(eps, k)
    assert Fraction(kern.a) == 7 * Fraction(eps) / 8
    assert Fraction(kern.delta) == Fraction(eps) / (4 * k)
    return eps, kern


def test_theta_band_within_1e15_of_exact():
    rng = random.Random(20261018)
    for k in (1, 2, 4, 7, 11, 16, 20, 25, 26, 40, 60, 100):
        eps, kern = _exact_kernel(k)
        ys = [rng.uniform(0.75 * eps, eps) * rng.choice((-1.0, 1.0)) for _ in range(400)]
        for j in range(k + 1):  # every knot u = j and its neighbours
            y = kern.a + (j - k / 2) * kern.delta
            ys += [math.nextafter(y, 0.0), y, math.nextafter(y, eps)]
        got = theta_eval(kern, np.array(ys))
        for y, v in zip(ys, got):
            want = float(_theta_exact(Fraction(y), Fraction(eps), k))
            assert abs(v - want) <= 1e-15, (k, y, v, want)


def test_antiderivative_exact_on_band():
    rng = random.Random(5)
    for k in (1, 2, 4, 7, 11, 25, 40, 60, 100):
        eps, kern = _exact_kernel(k)
        a, delta, half = 7 * Fraction(eps) / 8, Fraction(eps) / (4 * k), Fraction(k, 2)
        ys = [rng.uniform(0.75 * eps, eps) for _ in range(60)]
        # the array call is the scalar call, entry for entry
        both = theta_antiderivative(kern, np.array([[-y, y] for y in ys]))
        for y, (lo, hi) in zip(ys, both):
            assert (lo, hi) == (theta_antiderivative(kern, -y), theta_antiderivative(kern, y))
            # ∫ over the left band of θ = G(u₊): δ·Σ (−1)ʲC(k,j)(u₊−j)₊ᵏ⁺¹/(k+1)!
            x = (-Fraction(y) + a) / delta + half
            left = delta * sum((-1) ** j * math.comb(k, j) * (x - j) ** (k + 1)
                               for j in range(math.floor(x) + 1)) / math.factorial(k + 1)
            tol = 2 * math.ulp(2 * kern.a)
            assert abs(lo - float(left)) <= tol, (k, y)
            assert abs(hi - float(2 * a - left)) <= tol, (k, y)


def test_band_pieces_are_the_rounded_defining_sums():
    # the Taylor-shift build against each coefficient's own truncated-power
    # sum: θ's C(k,e)·Σᵢ≤ⱼ(−1)ⁱC(k,i)(j−i)ᵏ⁻ᵉ/k! and T's with k+1 in place of k
    for k in range(1, 31):
        theta, anti = _band_pieces(k)
        assert theta.shape == (k + 1, k) and anti.shape == (k + 2, k)
        kfac = math.factorial(k)
        for j in range(k):
            def tps(p):
                return sum((-1) ** i * math.comb(k, i) * (j - i) ** p for i in range(j + 1))

            for e in range(k + 1):
                c = Fraction(math.comb(k, e) * tps(k - e), kfac)
                assert theta[e, j] == float((e == 0) - c), (k, j, e)
            for e in range(k + 2):
                c = Fraction(math.comb(k + 1, e) * tps(k + 1 - e), kfac * (k + 1))
                assert anti[e, j] == float(c), (k, j, e)


def test_exact_path_beyond_f64():
    # plateau/support still exact at k = 26, band value within 1e-12 of the
    # rational oracle
    k = 26
    kern = kernel_new(1.0, k)
    assert theta_eval(kern, 0.5) == 1.0
    assert theta_eval(kern, 1.0) == 0.0
    assert theta_eval(kern, -0.2) == 1.0
    v = theta_eval(kern, 0.875)
    assert abs(v - 0.5) < 1e-12
    band = theta_eval(kern, 0.8)
    assert 0.0 < band < 1.0
    want = _theta_exact(Fraction(4, 5), Fraction(1), k)
    assert abs(band - float(want)) < 1e-12


def test_kernel_validation_and_fields():
    with pytest.raises(DomainError):
        kernel_new(0.0, 3)
    with pytest.raises(DomainError):
        kernel_new(-0.5, 3)
    with pytest.raises(DomainError):
        kernel_new(0.1, 0)
    kern = kernel_new(0.4, 5)
    # A − kδ/2 = 3ε/4 and A + kδ/2 = ε: plateau and support edges exactly
    assert kern.a - kern.k * kern.delta / 2 == pytest.approx(0.3, abs=1e-15)
    assert kern.a + kern.k * kern.delta / 2 == pytest.approx(0.4, abs=1e-15)
    k4 = kernel_new(0.1, 4)
    assert k4.a == pytest.approx(0.0875, abs=1e-16) and k4.delta == 0.00625
    assert kernel_new(1.0, 1).a == 0.875 and kernel_new(1.0, 1).delta == 0.25


def test_kernel_rejects_non_finite_and_extreme_input():
    for eps, k in ((math.nan, 3), (math.inf, 3), (1e308, 3), (5e-324, 3),
                   (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(DomainError):
            kernel_new(eps, k)


def test_fourier_vanishes_at_box_harmonics():
    kern = kernel_new(0.3, 4)
    for n in (1, 2, 5, 11):
        assert abs(theta_fourier(kern, n / (2.0 * kern.a))) < 1e-12


def test_suggested_k():
    assert suggested_k(1e4) == 9
    assert suggested_k(1e6) == 13
    assert suggested_k(30.0) == 3
    with pytest.raises(DomainError):
        suggested_k(2.0)
