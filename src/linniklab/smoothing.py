"""Smoothed indicator pair (θ, Θ) used to mollify the counting inequality.

θ is pinned between the indicators of [−3ε/4, 3ε/4] and (−ε, ε): identically
1 on the inner interval, identically 0 outside the outer one, strictly
between in the two transition bands.  The concrete construction is the
indicator of [−A, A], A = 7ε/8, convolved k times with the uniform density
of width δ = ε/(4k):

    θ(y) = G((y+A)/δ + k/2) − G((y−A)/δ + k/2),

where G is the CDF of the sum of k iid uniforms on [0, 1] (the Irwin–Hall
distribution), so θ is an even piecewise polynomial of degree k.  Its Fourier
transform is the closed form

    Θ(x) = (sin(2πAx)/(πx)) · (sin(πδx)/(πδx))^k,     Θ(0) = 2A = 7ε/4,

which obeys the three-way bound

    |Θ(x)| ≤ min( 7ε/4,  1/(π|x|),  (1/(π|x|))·(k/(2π|x|ε/8))^k )

because |sin t| ≤ min(1, |t|) factor by factor, and 1/(πδ|x|) = 4k/(πε|x|)
= k/(2π|x|ε/8) exactly for this δ.

Numerics: the Irwin–Hall alternating sum Σ (−1)^j C(k,j)(x−j)₊^k /k! loses
roughly k·log₂e bits to cancellation, so the float64 path is used only for
k ≤ 25; beyond that every evaluation runs in exact rational arithmetic and
rounds once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

# float64 cancellation in the alternating sum is ~2^k/√k ulps; past this the
# exact rational path takes over
F64_MAX_K = 25


@dataclass(frozen=True)
class SmoothingKernel:
    eps: float
    k: int
    a: float        # box half-width, 7·eps/8
    delta: float    # uniform convolutor width, eps/(4k)


def kernel_new(eps: float, k: int) -> SmoothingKernel:
    """Kernel with plateau [−3ε/4, 3ε/4] and support (−ε, ε); degree k."""
    if not (1 <= k < math.inf and k == int(k)):
        raise DomainError(f"k must be a positive integer, got {k}")
    k = int(k)
    # θ's transform needs 2πε and ε/4k as nonzero finite floats
    if not (math.isfinite(2.0 * math.pi * eps) and eps / (4.0 * k) > 0):
        raise DomainError(f"eps must be positive and finite, got {eps}")
    return SmoothingKernel(eps=eps, k=k, a=7.0 * eps / 8.0, delta=eps / (4.0 * k))


def suggested_k(x: float) -> int:
    """The truncation-friendly smoothness choice k = ⌊ln X⌋."""
    if x <= math.e:
        raise DomainError("need X > e so that ⌊ln X⌋ ≥ 1")
    return int(math.floor(math.log(x)))


# ---------------------------------------------------------------- Irwin–Hall

def _ih_cdf_f64(x: np.ndarray, k: int) -> np.ndarray:
    """CDF of the sum of k iid U[0,1] at x (vector), float64 alternating sum."""
    out = np.zeros_like(x)
    out[x >= k] = 1.0
    inside = (x > 0) & (x < k)
    if inside.any():
        xi = x[inside]
        acc = np.zeros_like(xi)
        kfac = math.factorial(k)
        for j in range(k + 1):
            coeff = ((-1) ** j * math.comb(k, j)) / kfac
            acc += coeff * np.maximum(xi - j, 0.0) ** k
        out[inside] = np.clip(acc, 0.0, 1.0)
    return out


def _ih_cdf_exact(x: float, k: int) -> float:
    """Same CDF through exact rationals; one rounding at the end."""
    if x <= 0:
        return 0.0
    if x >= k:
        return 1.0
    fx = Fraction(x)
    acc = Fraction(0)
    for j in range(math.floor(x) + 1):
        acc += (-1) ** j * math.comb(k, j) * (fx - j) ** k
    return float(acc / math.factorial(k))


def _ih_cdf(x: np.ndarray, k: int) -> np.ndarray:
    if k <= F64_MAX_K:
        return _ih_cdf_f64(x, k)
    flat = np.atleast_1d(x).astype(np.float64)
    vals = np.array([_ih_cdf_exact(float(t), k) for t in flat.ravel()])
    return vals.reshape(flat.shape)


def _ih_int_cdf(x: float, k: int) -> float:
    """∫₀ˣ of the Irwin–Hall CDF: alternating sum with power k+1; x − k/2 past k."""
    if x <= 0:
        return 0.0
    if x >= k:
        return x - 0.5 * k
    if k <= F64_MAX_K:
        kfac1 = math.factorial(k + 1)
        acc = 0.0
        for j in range(math.floor(x) + 1):
            acc += ((-1) ** j * math.comb(k, j)) / kfac1 * (x - j) ** (k + 1)
        return max(acc, 0.0)
    fx = Fraction(x)
    acc_f = Fraction(0)
    for j in range(math.floor(x) + 1):
        acc_f += (-1) ** j * math.comb(k, j) * (fx - j) ** (k + 1)
    return float(acc_f / math.factorial(k + 1))


# ------------------------------------------------------------------- θ and Θ

def theta_eval(kern: SmoothingKernel, y):
    """θ(y) for a scalar or array; even by construction (evaluated at |y|)."""
    arr = np.asarray(y, dtype=np.float64)
    ay = np.abs(arr)
    x1 = (ay + kern.a) / kern.delta + 0.5 * kern.k
    x2 = (ay - kern.a) / kern.delta + 0.5 * kern.k
    val = _ih_cdf(np.atleast_1d(x1), kern.k) - _ih_cdf(np.atleast_1d(x2), kern.k)
    val = np.clip(val, 0.0, 1.0)
    # pin plateau/support membership on |y| itself: the transformed CDF
    # arguments can land 1 ulp off k at the band edges (e.g. eps = 0.01),
    # leaking ~2e-16 outside the support where the contract says exactly 0
    ayf = np.atleast_1d(ay)
    val[ayf >= kern.eps] = 0.0
    val[ayf <= 0.75 * kern.eps] = 1.0
    if arr.ndim == 0:
        return float(val[0])
    return val.reshape(arr.shape)


def theta_antiderivative(kern: SmoothingKernel, y: float) -> float:
    """T(y) = ∫_{−∞}^y θ(t) dt, piecewise closed form.

    0 below the support, 2A above it, A + y across the plateau, and a single
    rescaled Irwin–Hall integral on each transition band (arguments stay in
    [0, k], so no large-magnitude cancellation occurs).
    """
    eps, a, k, delta = kern.eps, kern.a, kern.k, kern.delta
    if y <= -eps:
        return 0.0
    if y >= eps:
        return 2.0 * a
    plateau = 0.75 * eps
    if -plateau <= y <= plateau:
        return a + y
    if y < 0:
        x = (y + a) / delta + 0.5 * k
        return delta * _ih_int_cdf(min(x, float(k)), k)
    return 2.0 * a - theta_antiderivative(kern, -y)


def theta_fourier(kern: SmoothingKernel, x):
    """Θ(x) = (sin(2πAx)/(πx)) · sinc-power term; Θ(0) = 2A; exactly even."""
    arr = np.asarray(x, dtype=np.float64)
    ax = np.atleast_1d(np.abs(arr))
    out = np.full(ax.shape, 2.0 * kern.a)
    nz = ax > 0
    t = ax[nz]
    box = np.sin(2.0 * math.pi * kern.a * t) / (math.pi * t)
    cell = math.pi * kern.delta * t
    sinc = np.divide(np.sin(cell), cell, out=np.ones_like(cell), where=cell != 0)
    out[nz] = box * sinc ** kern.k
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def theta_fourier_bound(kern: SmoothingKernel, x):
    """The three-way envelope min(7ε/4, 1/(π|x|), (1/(π|x|))·(4k/(πε|x|))^k)."""
    arr = np.asarray(x, dtype=np.float64)
    ax = np.atleast_1d(np.abs(arr))
    flat = np.full(ax.shape, 1.75 * kern.eps)
    nz = ax > 0
    t = ax[nz]
    with np.errstate(over="ignore", divide="ignore"):
        b2 = 1.0 / (math.pi * t)
        b3 = b2 * (4.0 * kern.k / (math.pi * kern.eps * t)) ** kern.k
        flat[nz] = np.minimum(flat[nz], np.minimum(b2, b3))
    if arr.ndim == 0:
        return float(flat[0])
    return flat.reshape(arr.shape)
