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

Numerics: on the band, θ(y) = 1 − G(u) with u = (|y| − A)/δ + k/2 in [0, k],
read off a piecewise-polynomial table for every k (de Boor's "pp" form): on
each unit piece [j, j+1), 1 − G(j + t) is a degree-k polynomial in t whose
coefficients are computed in exact integers, rounded once, and all ≤ 1 in
magnitude, so Horner on t ∈ [0, 1) is accurate to a few ulps.  The table is
built once per k in time about k⁴·log k; callers that hold a work budget
charge it first (`check_table_budget`).  Every exact Irwin–Hall sum, the
table's, the antiderivative T's and the slab volume's, is one call of
`trunc_power_sum`; T is that sum rounded once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

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

def trunc_power_sum(num: int, den: int, k: int, p: int) -> int:
    """Σⱼ (−1)ʲ C(k,j)·(num − j·den)₊ᵖ over 0 ≤ j ≤ min(k, ⌊num/den⌋), exactly.

    With u = num/den (den > 0) this is denᵖ·Σ (−1)ʲ C(k,j)(u−j)₊ᵖ, the sum
    behind every Irwin–Hall quantity here: k!·G(u) at p = k and (k+n)! times
    G's n-th antiderivative at p = k + n.  The term at u = j is 0ᵖ, so 1 at
    p = 0: the pieces are right-continuous.
    """
    return sum((-1) ** j * math.comb(k, j) * (num - j * den) ** p
               for j in range(min(k, num // den) + 1))


def check_table_budget(k: int, work_budget: int) -> None:
    """Raise `ResourceError` if building `_band_pieces(k)` would exceed the budget.

    The build sums about k³/2 truncated powers of degree ≤ k in integers of
    O(k log k) bits, so its time grows like k⁴·log k; it is charged
    k⁴·bit_length(k), roughly 1–2 ns of build per unit for k ≥ 40.
    """
    cost = k ** 4 * k.bit_length()
    if cost > work_budget:
        raise ResourceError(
            f"θ piece table work {cost:.3e} (k={k}) exceeds the work budget "
            f"{work_budget:.3e}; lower --k or raise --work-budget"
        )


@functools.cache
def _band_pieces(k: int) -> np.ndarray:
    """(k+1, k) table: column j holds the Taylor coefficients at t = 0 of
    1 − G(j + t), 0 ≤ t < 1, row e the coefficient of tᵉ.

    G(j + t) = Σₑ cₑtᵉ with k!·cₑ = C(k,e)·Σᵢ≤ⱼ (−1)ⁱC(k,i)(j−i)ᵏ⁻ᵉ, summed
    in integers; the entry [e = 0] − cₑ is rounded once (int / int is
    correctly rounded).  For e ≥ 1, cₑ = G⁽ᵉ⁾(j⁺)/e! is an (e−1)-fold
    backward difference of a lower-order B-spline over e!, so
    |cₑ| ≤ 2ᵉ⁻¹/e! ≤ 1.
    """
    kfac = math.factorial(k)
    tab = np.empty((k + 1, k))
    for j in range(k):
        for e in range(k + 1):
            num = trunc_power_sum(j, 1, k, k - e) * math.comb(k, e)
            tab[e, j] = ((kfac if e == 0 else 0) - num) / kfac
    tab.flags.writeable = False     # shared by every caller through the cache
    return tab


# ------------------------------------------------------------------- θ and Θ

def theta_eval(kern: SmoothingKernel, y):
    """θ(y) for a scalar or array; even by construction (evaluated at |y|).

    Plateau and support are pinned on |y| itself: 1 for |y| ≤ 3ε/4, 0 for
    |y| ≥ ε.  On the band between, u₊ ≥ 7k so G(u₊) = 1 and θ = 1 − G(u)
    with u = (|y| − A)/δ + k/2, read off the piece table at j = ⌊u⌋ and
    t = u − j.  t is formed as w − (j − k/2) with w = (|y| − A)/δ; that
    subtraction is exact, so t carries only the rounding of w.
    """
    arr = np.asarray(y, dtype=np.float64)
    ay = np.abs(arr).ravel()
    val = (ay <= 0.75 * kern.eps).astype(np.float64)
    band = np.flatnonzero((ay > 0.75 * kern.eps) & (ay < kern.eps))
    if band.size:
        k, tab = kern.k, _band_pieces(kern.k)
        w = (ay[band] - kern.a) / kern.delta
        j = np.clip(np.floor(w + 0.5 * k), 0, k - 1)
        t = w - (j - 0.5 * k)
        j = j.astype(np.intp)
        acc = tab[k].take(j)
        for e in range(k - 1, -1, -1):
            acc *= t
            acc += tab[e].take(j)
        val[band] = np.clip(acc, 0.0, 1.0)
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
        # δ·∫₀ˣ G; the sum is 0 for x ≤ 0 and exactly k/2 at x = k
        n, d = min((y + a) / delta + 0.5 * k, float(k)).as_integer_ratio()
        return delta * float(Fraction(trunc_power_sum(n, d, k, k + 1),
                                      d ** (k + 1) * math.factorial(k + 1)))
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
