"""Euler products and partial sums behind the main-term constant.

Everything here orbits one analytic object: with χ the nonprincipal
character mod 4,

    N(s) = Π_p (1 + χ(p) / (p^{s+1}·(p−1))),

whose value at s = 0, times π/4 (which is L(1,χ)), is the density constant
f(0) governing how often p−1 is a sum of two squares; π·N(0) is the
constant in front of X/ln X for the count weighted by representations,
Σ_{p≤X} r(p−1), which ``linnik_empirical`` takes as the number of lattice
points (x, y) with x² + y² + 1 = p a prime ≤ X, read off the primes alone.

Truncations carry certified tail bounds: for P ≥ 2,

    |log N(s) − log N_P(s)| ≤ Σ_{p>P} |log(1 + u_p)|
                            ≤ 1.2 · Σ_{n>P} 1/(n^{s+1}(n−1))
                            ≤ 1.2 · (4/3) · Σ_{n>P} n^{-(s+2)}
                            ≤ 1.6 · ∫_P^∞ t^{-(s+2)} dt
                            ≤ 2/(s+1) · P^{-(s+1)},

using |log(1+u)| ≤ 1.2|u| for |u| ≤ 1/6 (true for every p ≥ 3), n−1 ≥ 3n/4
for n ≥ 4, and n^{-(s+2)} ≤ ∫_{n−1}^n t^{-(s+2)} dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import MEMORY_BUDGET, PRIME_BLOCK, PrimeTable, chi_vec, linnik_sum, primes_upto
from .errors import DomainError, ResourceError


@dataclass(frozen=True)
class EulerProductApprox:
    s: float
    pmax: int
    value: float
    tail_bound: float     # bound on |log(true/value)|

    def bracket(self) -> tuple[float, float]:
        return (self.value * math.exp(-self.tail_bound),
                self.value * math.exp(self.tail_bound))


def n_s(s: float, pmax: int, table: PrimeTable) -> EulerProductApprox:
    """Truncated Euler product N(s) over p ≤ pmax with certified tail."""
    if not 0 <= s < math.inf:
        raise DomainError(f"s must be finite and ≥ 0, got {s}")
    if pmax < 2:
        raise DomainError(f"pmax must be ≥ 2, got {pmax}")
    n = table.prime_count(pmax)
    # the factors χ(p)/(p^{s+1}(p − 1)) live per block of primes; their
    # log1p fill one full-length column, summed whole, so every element and
    # the pairwise sum are those of the unblocked expression
    ps, logs = table.primes[:n], np.empty(n)
    for i in range(0, n, PRIME_BLOCK):
        blk = slice(i, i + PRIME_BLOCK)
        pf = ps[blk].astype(np.float64)
        np.log1p(chi_vec(ps[blk]) / (pf ** (s + 1.0) * (pf - 1.0)), out=logs[blk])
    value = math.exp(float(np.sum(logs)))
    tail = 2.0 / (s + 1.0) * pmax ** (-(s + 1.0))
    return EulerProductApprox(s=s, pmax=pmax, value=value, tail_bound=tail)


def f_zero(pmax: int, table: PrimeTable) -> float:
    """f(0) = L(1,χ)·N(0) = (π/4)·N(0), truncated at pmax."""
    return 0.25 * math.pi * n_s(0.0, pmax, table).value


def linnik_constant(pmax: int, table: PrimeTable) -> float:
    """π·N(0) = 4·f(0) — same truncation, so the 4× identity holds bitwise."""
    return math.pi * n_s(0.0, pmax, table).value


def chi_phi_partial(dmax: int,
                    checkpoints: list[int] | None = None) -> list[tuple[int, float]]:
    """Partial sums Σ_{d ≤ D} χ(d)/φ(d) at each checkpoint D.

    χ(d)/φ(d) is multiplicative with Euler factor (p(p−1)+χ(p)) /
    ((p−1)(p−χ(p))), which is algebraically identical to the factor of
    L(1,χ)·N(0) — so the series converges (slowly, oscillating) to f(0).
    The partial sums let callers watch that convergence directly.
    """
    if dmax < 1:
        raise DomainError(f"Dmax must be ≥ 1, got {dmax}")
    if dmax + 1 > MEMORY_BUDGET:
        raise ResourceError(f"Dmax={dmax} exceeds memory budget {MEMORY_BUDGET}")
    if checkpoints is None:
        checkpoints = [dmax]
    if any(not 1 <= c <= dmax for c in checkpoints):
        raise DomainError(f"checkpoints must lie in [1, {dmax}]")
    # χ vanishes on even d, so only odd d are kept: slot j stands for
    # d = 2j + 1, and the odd multiples of an odd p sit at a stride of p slots
    # from slot p // 2.  φ(d) = d·Π_{p|d}(1 − 1/p), one strided pass per odd
    # prime p ≤ √dmax; each pass also strips p from the cofactor, which ends
    # as 1 or d's one prime factor above √dmax.  Both fit int32, since
    # φ(d) ≤ d ≤ dmax < MEMORY_BUDGET = 2³¹
    phi = np.arange(1, dmax + 1, 2, dtype=np.int32)
    cof = phi.copy()
    for p in primes_upto(math.isqrt(dmax))[1:].tolist():
        phi[p // 2::p] -= phi[p // 2::p] // p
        q = p
        while q <= dmax:
            cof[q // 2::q] //= p
            q *= p
    big = np.flatnonzero(cof > 1)
    phi[big] -= phi[big] // cof[big]
    # χ(2j + 1) = (−1)^j, and −1/φ is −(1/φ) exactly; the even d left out add
    # zeros, which never move a partial sum, so the odd cumsum at slot
    # (D − 1) // 2 is the sum to D
    partial = 1.0 / phi
    np.negative(partial[1::2], out=partial[1::2])
    np.cumsum(partial, out=partial)
    return [(int(c), float(partial[(c - 1) // 2])) for c in checkpoints]


def linnik_empirical(table: PrimeTable, x: float) -> dict:
    """Σ_{p ≤ X} r(p−1) against its predicted main term π·N(0)·X/ln X.

    The sum counts the lattice points (x, y) with x² + y² + 1 = p a prime
    ≤ X, by the half-lattice rows x ≤ y of ``arith.linnik_sum``.
    """
    if not x > 2:
        raise DomainError(f"X must exceed 2, got {x}")
    total = linnik_sum(table, 0, x)
    main = linnik_constant(table.limit, table) * x / math.log(x)
    return {"sum": total, "main_term": main, "ratio": total / main}
