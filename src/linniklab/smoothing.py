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

Numerics: on the bands, θ = 1 − G(u) and its antiderivative T = δ·∫₀ᵘ G
(left band; u in [0, k]) are read off one piecewise-polynomial table per k
(de Boor's "pp" form), whose pieces j + t, 0 ≤ t < 1, are polynomials in t.
Their coefficients come from the exact integers of (k+1)!·∫₀^{j+t} G, carried
from piece to piece by one integer Taylor shift (von zur Gathen and Gerhard,
ISSAC 1997), and are rounded once, so Horner on t is accurate to a few ulps.
The table is built once per k in time about k⁴·log k; callers that hold a
work budget charge it first (`check_table_budget`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError


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

def check_table_budget(k: int, work_budget: int) -> None:
    """Raise `ResourceError` if building `_band_pieces(k)` would exceed the budget.

    The build makes about k³/2 additions of O(k log k)-bit integers, so it
    is charged k⁴·bit_length(k).  It took 0.07 s at k = 100, 0.14 s at 128
    (the default budget's largest k) and 0.54 s at 200, 0.04–0.1 ns a unit,
    on a 2-vCPU x86-64 host under Python 3.11.
    """
    cost = k ** 4 * k.bit_length()
    if cost > work_budget:
        raise ResourceError(
            f"θ piece table work {cost:.3e} (k={k}) exceeds the work budget "
            f"{work_budget:.3e}; lower --k or raise --work-budget"
        )


@functools.cache
def _band_pieces(k: int) -> tuple[np.ndarray, np.ndarray]:
    """θ's and T's (k+1, k) and (k+2, k) tables: column j holds the Taylor
    coefficients of 1 − G(j + t) and of ∫₀^{j+t} G, row e that of tᵉ.

    h(u) = (k+1)!·∫₀ᵘ G = Σᵢ (−1)ⁱC(k,i)(u−i)₊ᵏ⁺¹ has integer coefficients hₑ
    on each piece: piece 0 is tᵏ⁺¹, and piece j + 1 is piece j shifted by 1
    in t plus (−1)ʲ⁺¹C(k,j+1)·tᵏ⁺¹.  θ's entry ((k+1)!·[e = 0] − (e+1)hₑ₊₁)
    and T's entry hₑ are each divided by (k+1)! once (int / int is correctly
    rounded).  For e ≥ 1, θ's entry is −G⁽ᵉ⁾(j⁺)/e!, a backward difference
    of a lower-order B-spline over e!, so |entry| ≤ 2ᵉ⁻¹/e! ≤ 1.
    """
    n, nfac = k + 1, math.factorial(k + 1)
    h = [0] * n + [1]
    theta, anti = np.empty((n, k)), np.empty((n + 1, k))
    for j in range(k):
        if j:
            # h(t) → h(t + 1): each pass turns hᵢ, …, hₙ into suffix sums
            for i in range(n):
                h[i:] = reversed(list(itertools.accumulate(reversed(h[i:]))))
            h[n] += (-1) ** j * math.comb(k, j)
        theta[:, j] = [((nfac if e == 0 else 0) - (e + 1) * h[e + 1]) / nfac
                       for e in range(n)]
        anti[:, j] = [c / nfac for c in h]
    theta.flags.writeable = anti.flags.writeable = False  # shared through the cache
    return theta, anti


def _horner(tab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pp table `tab` at u = v + k/2: piece j = ⌊u⌋ (clipped to [0, k−1])
    and t = u − j.  t is formed as v − (j − k/2); that subtraction is exact,
    so t carries only the rounding of v."""
    k = tab.shape[1]
    j = np.clip(np.floor(v + 0.5 * k), 0, k - 1)
    t = v - (j - 0.5 * k)
    j = j.astype(np.intp)
    acc = tab[-1].take(j)
    for row in tab[-2::-1]:
        acc *= t
        acc += row.take(j)
    return acc


# ------------------------------------------------------------------- θ and Θ

def _pointwise(fn):
    """Lift fn(kern, flat float64 array) to scalars and arrays of any shape."""
    @functools.wraps(fn)
    def lifted(kern: SmoothingKernel, y):
        arr = np.asarray(y, dtype=np.float64)
        out = fn(kern, arr.ravel())
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
    return lifted


@_pointwise
def theta_eval(kern: SmoothingKernel, y):
    """θ(y) for a scalar or array; even by construction (evaluated at |y|).

    Plateau and support are pinned on |y| itself: 1 for |y| ≤ 3ε/4, 0 for
    |y| ≥ ε.  On the band between, u₊ ≥ 7k so G(u₊) = 1 and θ = 1 − G(u)
    with u = (|y| − A)/δ + k/2, read off θ's piece table.
    """
    ay = np.abs(y)
    val = (ay <= 0.75 * kern.eps).astype(np.float64)
    band = np.flatnonzero((ay > 0.75 * kern.eps) & (ay < kern.eps))
    if band.size:
        acc = _horner(_band_pieces(kern.k)[0], (ay[band] - kern.a) / kern.delta)
        val[band] = np.clip(acc, 0.0, 1.0)
    return val


@_pointwise
def theta_antiderivative(kern: SmoothingKernel, y):
    """T(y) = ∫_{−∞}^y θ(t) dt for a scalar or array.

    0 below the support, 2A above it and A + y across the plateau.  On the
    left band T = δ·∫₀ᵘ G with u = (A − |y|)/δ + k/2 in [0, k], read off T's
    piece table; on the right band T = 2A − T(−y), as θ is even.
    """
    ay = np.abs(y)
    val = np.where(y <= -kern.eps, 0.0, np.where(y >= kern.eps, 2.0 * kern.a, kern.a + y))
    band = np.flatnonzero((ay > 0.75 * kern.eps) & (ay < kern.eps))
    if band.size:
        left = kern.delta * _horner(_band_pieces(kern.k)[1],
                                    (kern.a - ay[band]) / kern.delta)
        val[band] = np.where(y[band] < 0, left, 2.0 * kern.a - left)
    return val


@_pointwise
def theta_fourier(kern: SmoothingKernel, x):
    """Θ(x) = (sin(2πAx)/(πx)) · sinc-power term; Θ(0) = 2A; exactly even."""
    ax = np.abs(x)
    out = np.full(ax.shape, 2.0 * kern.a)
    nz = ax > 0
    t = ax[nz]
    box = np.sin(2.0 * math.pi * kern.a * t) / (math.pi * t)
    cell = math.pi * kern.delta * t
    sinc = np.divide(np.sin(cell), cell, out=np.ones_like(cell), where=cell != 0)
    out[nz] = box * sinc ** kern.k
    return out


@_pointwise
def theta_fourier_bound(kern: SmoothingKernel, x):
    """The three-way envelope min(7ε/4, 1/(π|x|), (1/(π|x|))·(4k/(πε|x|))^k)."""
    ax = np.abs(x)
    flat = np.full(ax.shape, 1.75 * kern.eps)
    nz = ax > 0
    t = ax[nz]
    with np.errstate(over="ignore", divide="ignore"):
        b2 = 1.0 / (math.pi * t)
        b3 = b2 * (4.0 * kern.k / (math.pi * kern.eps * t)) ** kern.k
        flat[nz] = np.minimum(flat[nz], np.minimum(b2, b3))
    return flat
