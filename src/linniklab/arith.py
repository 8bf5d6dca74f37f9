"""Prime tables and quadratic-character arithmetic.

A segmented byte sieve over the odd numbers gives the primes ≤ limit, which
is all that sums over primes read.  The process keeps one read-only column,
the primes up to the largest limit sieved so far, and every table holds a
prefix of it, so only a limit above every earlier one sieves.  A table is its
primes and its limit; each reader forms its logs from the primes it sums.

    χ(n)   the non-principal character mod 4 (+1, −1, 0 for n ≡ 1, 3, 0 mod 2),
    r₂(n)  = 4·Σ_{d|n} χ(d), the number of ways to write n = m₁² + m₂²
             counting signs and order,
    φ(n)   Euler's totient,

are trial division to √n for one n.  The readers of r₂(p − 1) over a range of
primes (the weight of the third prime, p = x² + y² + 1) go through
``linnik_rows`` instead: one sweep of the half-lattice rows x ≤ y,
x ≡ y (mod 2), over a bool array of the odd primes, counts each prime's
points and notes its least witness, with no factoring; ``linnik_sum`` is the
same sweep reduced to Σ r₂(p − 1).

Statistics over the divisors of every p − 1 go through ``divisor_sum``, which
sums χ(d), or 1, over the divisors d of each given n that lie in an integer
window lo ≤ d < hi, for all the n at once.

A prime p is called a *Linnik prime* here when p − 1 = x² + y² has a
solution in integers; r₂(p−1) > 0 is the equivalent character-sum test.  The
least pair (x, y) comes from ``linnik_rows`` alone: one sweep gives it for
every prime of a range, which is how ``linniklab linnik`` and the triple
finder get their witnesses, and ``linnik_witness`` is that sweep over the
one prime of (p − 1, p].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

# Default cap on a table's limit, in numbers.  Below 2³¹ the per-slot column
# of ``linnik_rows`` fits uint16 (r₂(n)/4 ≤ τ(n) ≤ 1600, witness x ≤ 2¹⁵),
# ``divisor_sum``'s accumulator int16 (|Σ| ≤ τ(n) ≤ 1600) and
# ``dirichlet.chi_phi_partial`` int32.
MEMORY_BUDGET = 2**31
# Default cap on inner-loop evaluations per call: (p1,p2) pairs in the pair
# scans, Q·π(X) modulus-prime steps in the progression error scan.
WORK_BUDGET = 2**31
# Odd slots sieved per segment, which cover 2²⁰ numbers: 512 KB of the prime
# sieve's bytes, about one L2 cache.
_SEGMENT = 2**19
# Primes per block in the passes over a prime column (the phases of
# ``expsums.s_ld``, the factors of ``dirichlet.n_s``): 512 KB per float64
# temporary.
PRIME_BLOCK = 2**16
# Points looked up per block of rows by ``_half_lattice``: 256 KB per int64
# temporary.  2¹⁶ is as fast but leaves the tour-arith worker's peak RSS
# 0.8 MB higher, 2¹⁴ costs 10 % more at 1e7.
_ROW_BLOCK = 2**15
# The primes ≤ the largest limit ``sieve_primes`` has sieved, read-only:
# one (limit, column) pair, replaced whole.
_kept: tuple[int, np.ndarray] = (1, np.zeros(0, dtype=np.int64))


@dataclass
class PrimeTable:
    """The primes of [2, limit].

    ``primes`` is a read-only view, a prefix of the column that
    ``sieve_primes`` keeps for the process; tables share it.  ``limit`` is
    the limit asked for, and reads past it raise even when the shared
    column goes further.  ``is_prime`` reads ``primes`` alone.
    """

    limit: int
    primes: np.ndarray            # int64, ascending

    def prime_count(self, x: float) -> int:
        """π(x) for x ≤ limit."""
        return self.prime_slice(0, x).stop

    def prime_slice(self, lo: float, hi: float) -> slice:
        """Index slice of primes in the half-open interval (lo, hi], hi ≤ limit."""
        if hi > self.limit:
            raise DomainError(f"{hi} exceeds the table limit {self.limit}")
        if lo != lo or hi != hi:                  # NaN, of any numeric type
            raise DomainError(f"prime range ({lo}, {hi}] has a NaN end")
        i = int(np.searchsorted(self.primes, lo, side="right"))
        j = int(np.searchsorted(self.primes, hi, side="right"))
        return slice(i, j)

    def is_prime(self, n: int) -> bool:
        """Whether n ≤ limit is prime, by a binary search of ``primes``."""
        if n > self.limit:
            raise DomainError(f"n={n} exceeds table limit {self.limit}")
        i = int(np.searchsorted(self.primes, n))
        return i < self.primes.size and int(self.primes[i]) == n


def primes_upto(n: int) -> np.ndarray:
    """Primes ≤ n, ascending, as int64, from a segmented byte sieve over the
    odd numbers.

    Slot i stands for 2i + 1.  The slots are walked in segments of
    ``_SEGMENT``, one byte each, so the sieve stays in cache.  Each odd prime
    p ≤ √n, found by the same sieve run to √n, clears its odd multiples from
    p² on, a stride of p slots, and carries its next multiple's slot from one
    segment to the next.  A segment's primes leave it as slot indices, which
    are turned into 2i + 1 in place and joined once at the end.
    """
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    size = (n + 1) // 2
    small = primes_upto(math.isqrt(n))[1:].tolist()
    nxt = [p * p // 2 for p in small]
    seg = np.empty(min(_SEGMENT, size), dtype=bool)
    found = [np.array([2], dtype=np.int64)]
    for lo in range(0, size, _SEGMENT):
        hi = min(lo + _SEGMENT, size)
        view = seg[: hi - lo]
        view[:] = True
        for k, p in enumerate(small):
            s = nxt[k]
            if s >= hi:
                # a stride longer than the segment can skip it; past the
                # first segment the next slots are not sorted, but p² is
                if p * p // 2 >= hi:
                    break
                continue
            view[s - lo :: p] = False
            nxt[k] = s + -(-(hi - s) // p) * p
        if lo == 0:
            view[0] = False                       # 1 is not prime
        idx = np.flatnonzero(view)
        idx += lo
        idx *= 2
        idx += 1
        found.append(idx)
    return np.concatenate(found)


def sieve_primes(limit: int, memory_budget: int = MEMORY_BUDGET) -> PrimeTable:
    """A PrimeTable up to ``limit``, whose primes are a prefix of the
    process's shared column.

    The process keeps the primes up to the largest limit sieved so far,
    read-only, as one ``(limit, column)`` pair replaced in one assignment.  A
    limit at or below the kept one takes the prefix of π(limit) primes, a
    view found by one ``searchsorted``; a larger limit sieves with
    ``primes_upto`` and replaces the kept column.  The column costs 8 bytes
    per prime while the process lives: 5.3 MB at 1e7.  Racing callers each
    get the primes to their own limit; a race can only repeat a sieve or
    keep the shorter of two new columns.

    ``memory_budget`` caps limit + 1, the numbers a table covers, which keeps
    the per-slot column of ``linnik_rows`` exact (see ``MEMORY_BUDGET``); the
    cap is checked here, before anything is allocated.
    """
    global _kept
    if not isinstance(limit, (int, np.integer)) or not limit >= 2:
        raise DomainError(f"limit must be an integer ≥ 2, got {limit!r}")
    if limit + 1 > memory_budget:
        raise ResourceError(
            f"sieve of {limit + 1} slots exceeds memory budget {memory_budget}"
        )
    kept_limit, column = _kept
    if limit > kept_limit:
        column = primes_upto(limit)
        column.flags.writeable = False
        _kept = (limit, column)
    n = int(np.searchsorted(column, limit, side="right"))
    return PrimeTable(limit=limit, primes=column[:n])


def chi(n: int) -> int:
    """Non-principal character mod 4: +1 for n ≡ 1, −1 for n ≡ 3, 0 for even n."""
    if n <= 0:
        raise DomainError(f"chi needs n ≥ 1, got {n}")
    r = n & 3
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def chi_vec(n: np.ndarray) -> np.ndarray:
    """Vector χ for positive integer arrays, in their dtype: the parity bit
    times 1 − (n & 2), which is +1 for n ≡ 1 and −1 for n ≡ 3 (mod 4)."""
    n = np.asarray(n)
    return (n & 1) * (1 - (n & 2))


def euler_phi(n: int, table: PrimeTable) -> int:
    """Euler totient of 1 ≤ n ≤ table.limit, by trial division up to √n.

    Callers want φ of one small modulus, for which a table over [0, n] would
    cost far more than the √n divisions.
    """
    if n < 1 or n > table.limit:
        raise DomainError(f"euler_phi needs 1 ≤ n ≤ {table.limit}, got {n}")
    val, p = n, 2
    while p * p <= n:
        if n % p == 0:
            val -= val // p
            while n % p == 0:
                n //= p
        p += 1 + (p & 1)
    if n > 1:
        val -= val // n
    return val


def r2(n: int, table: PrimeTable) -> int:
    """r₂(n) = 4·Σ_{d|n} χ(d) = signed/ordered count of n = m₁² + m₂², for
    1 ≤ n ≤ table.limit, by trial division up to √n as in ``euler_phi``.

    The divisor character sum is multiplicative: a factor p^e contributes
    Σ_{i≤e} χ(p)^i, i.e. e+1 when p ≡ 1 (mod 4), the parity of e when
    p ≡ 3 (mod 4), and 1 for p = 2.
    """
    if n < 1 or n > table.limit:
        raise DomainError(f"r2 needs 1 ≤ n ≤ {table.limit}, got {n}")
    n //= n & -n
    sig, p = 1, 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if p & 3 == 1:
                sig *= e + 1
            elif e & 1:
                return 0
        p += 2
    if n > 1:
        if n & 3 == 3:
            return 0
        sig *= 2
    return 4 * sig


def _half_lattice(odd: np.ndarray):
    """Yield (x, hits, units) for the points (x, y), y ≥ x, y ≡ x (mod 2),
    with p = x² + y² + 1 a prime of ``odd``, in blocks of rows from the top
    row x down to x = 0; three arrays with one entry per point.

    ``odd`` holds primes ≥ 5, ascending and not empty.  p is odd on these
    rows, and its slot j = (p − 1)/2 is ⌊x²/2⌋ + (x & 1) + ⌊y²/2⌋.  Squares
    are 0 or 1 mod 3, so 3 divides p when 3 divides neither x nor y: a row
    with 3 ∤ x tries only y ≡ 0 (mod 3), a stride of 6, and the rows try 5/9
    of the points.  The rows are joined into blocks of about ``_ROW_BLOCK``
    points, and a block looks its slots up at once in one bool array over
    the odd numbers from odd[0] to odd[-1].  ``x`` (uint16) is each point's
    row, ``hits`` its slot as the offset j − j₀ from odd[0]'s slot j₀, and
    ``units`` (uint16) its share of r₂(p − 1)/4: 1 when x = 0 or x = y,
    whose images under signs and order are 4, and 2 otherwise, with 8.
    """
    j0, j1 = int(odd[0]) >> 1, int(odd[-1]) >> 1
    is_prime = np.zeros(j1 - j0 + 1, dtype=bool)
    is_prime[(odd >> 1) - j0] = True
    half_sq = np.arange(math.isqrt(2 * j1) + 1, dtype=np.int64) ** 2 >> 1
    rows, xs, size = [], [], 0
    for x in range(math.isqrt(j1), -1, -1):
        rest = 2 * j0 - x * x                    # y² ≥ rest puts p ≥ odd[0]
        y = x if rest <= x * x else math.isqrt(rest - 1) + 1
        y += (y - x) & 1
        step = 2
        if x % 3:
            y, step = y + 2 * (y % 3), 6
        rows.append(half_sq[y : math.isqrt(2 * j1 - x * x) + 1 : step])
        xs.append(x)
        size += rows[-1].size
        if size < _ROW_BLOCK and x:
            continue
        sizes = [row.size for row in rows]
        x_row = np.array(xs, dtype=np.int64)
        slots = np.concatenate(rows)
        slots += np.repeat((x_row * x_row >> 1) + (x_row & 1) - j0, sizes)
        at = np.flatnonzero(is_prime[slots])
        hits = slots[at]
        x_hit = x_row[np.searchsorted(np.cumsum(sizes), at, side="right")]
        units = np.full(hits.size, 2, dtype=np.uint16)
        units -= x_hit == 0
        units -= hits == x_hit * x_hit - j0
        yield x_hit.astype(np.uint16), hits, units
        rows, xs, size = [], [], 0


def _range_split(table: PrimeTable, lo: float, hi: float):
    """The primes of (lo, hi], how many of them are 2 or 3, and the rest."""
    ps = table.primes[table.prime_slice(lo, hi)]
    k = int(np.searchsorted(ps, 3, side="right"))
    return ps, k, ps[k:]


def linnik_rows(table: PrimeTable, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """r₂(p − 1) and the least witness x of every prime p in (lo, hi], in the
    order of ``table.primes[table.prime_slice(lo, hi)]``.

    Two int64 arrays.  A witness is the least x ≥ 0 with p − 1 = x² + y²,
    y ≥ x, and then y = isqrt(p − 1 − x²); x is −1 where r₂(p − 1) = 0.
    p = 2 and 3 are taken apart: r₂(1) = r₂(2) = 4, witnesses (0, 1) and
    (1, 1).  The primes ≥ 5 come from the points of ``_half_lattice``, which
    are joined and reduced by ``ufunc.at`` into one uint16 column over the
    odd slots of the range, 2 bytes per slot: first their shares of
    r₂(p − 1)/4, read off at the primes, then the least x.  uint16 holds
    both below ``MEMORY_BUDGET``: r₂(n)/4 ≤ τ(n) ≤ 1600 and x ≤ 2¹⁵.
    """
    ps, k, odd = _range_split(table, lo, hi)
    if ps.size and int(ps[-1]) > MEMORY_BUDGET:
        raise DomainError(f"linnik_rows counts in uint16, exact for p ≤ {MEMORY_BUDGET}")
    r = np.zeros(ps.size, dtype=np.int64)
    wx = np.zeros(ps.size, dtype=np.int64)
    if odd.size:
        xs, hits, units = map(np.concatenate, zip(*_half_lattice(odd)))
        slots = (odd >> 1) - (int(odd[0]) >> 1)
        col = np.zeros(int(slots[-1]) + 1, dtype=np.uint16)
        np.add.at(col, hits, units)
        r[k:] = col[slots]
        col.fill(np.iinfo(np.uint16).max)
        np.minimum.at(col, hits, xs)
        wx[k:] = col[slots]
        r *= 4
        wx[r == 0] = -1
    r[:k], wx[:k] = 4, ps[:k] - 2
    return r, wx


def linnik_sum(table: PrimeTable, lo: float, hi: float) -> int:
    """Σ r₂(p − 1) over the primes p in (lo, hi]: the points of
    ``linnik_rows`` summed without its per-slot column, 4 per unit, and 4
    each for p = 2 and 3."""
    _, k, odd = _range_split(table, lo, hi)
    units = sum(int(u.sum()) for _, _, u in _half_lattice(odd)) if odd.size else 0
    return 4 * (units + k)


def linnik_witness(p: int, table: PrimeTable) -> tuple[int, int] | None:
    """Least witness (x, y), x ≤ y, with p − 1 = x² + y², or None if
    r₂(p − 1) = 0: the ``linnik_rows`` sweep over the one prime of (p − 1, p],
    about √(p/2) rows that allocate O(√p) and no table over [0, p]."""
    if p < 2 or p > table.limit or not table.is_prime(p):
        raise DomainError(f"linnik_witness needs a prime ≤ {table.limit}, got {p}")
    x = int(linnik_rows(table, p - 1, p)[1][0])
    return None if x < 0 else (x, math.isqrt(p - 1 - x * x))


def divisor_sum(ns, lo: int, hi: int, chi: bool) -> np.ndarray:
    """For each n in ``ns``, Σ χ(d) when ``chi``, else Σ 1, over the divisors
    d of n with lo ≤ d < hi (integer edges), in int64; 0 for n = 0.

    One accumulator gathers every n at once.  The weight is w on each class
    d ≡ r (mod q): χ is ±1 on d ≡ 1, 3 (mod 4), the count 1 on all d (mod 1).
    Each d·m = n is visited once, through whichever factor is ≤ s = ⌊√N⌋: a
    small d adds w to the stride of its multiples, and the class's d > s with
    cofactor m form one stride of step q·m: O(√N) passes.  The count runs
    over n itself, with N = max ns and slot n.  χ vanishes on even d, and an
    odd d divides n exactly when it divides n's odd part n / (n & −n), so χ
    runs over the odd parts instead, with N their maximum, odd cofactors only
    and slot (n + 1) / 2 for odd n (slot 0 for n = 0): a quarter of the
    slots when every n is even, as the n = p − 1 are.  The accumulator is
    int16, exact because no slot's sum exceeds in size the divisor count
    τ(n) ≤ 1600 of its n ≤ N ≤ ``MEMORY_BUDGET``; a larger N is refused with
    ResourceError before anything is allocated.
    """
    ns = np.asarray(ns)
    if ns.min(initial=0) < 0:
        raise DomainError(f"divisor_sum needs n ≥ 0, got {ns.min()}")
    h = int(chi)                                  # slot(n) = (n + h) >> h
    if chi:
        ns = ns // np.maximum(ns & -ns, 1)
    n_max = int(ns.max(initial=0))
    if n_max > MEMORY_BUDGET:
        raise ResourceError(
            f"divisor_sum counts in int16, exact for N ≤ {MEMORY_BUDGET}; got N = {n_max}")
    acc = np.zeros(((n_max + h) >> h) + 1, dtype=np.int16)
    s = math.isqrt(n_max)
    lo, hi = max(lo, 1), min(hi, n_max + 1)
    q, classes = (4, ((1, 1), (3, -1))) if chi else (1, ((0, 1),))
    for r, w in classes:
        for d in range(lo + (r - lo) % q, min(hi, s + 1), q):
            acc[(d + h) >> h :: d] += w
        a = max(lo, s + 1)
        a += (r - a) % q
        for m in range(1, s + 1, 1 + h):
            b = min(hi, n_max // m + 1)
            if b <= a:
                break
            acc[(m * a + h) >> h : ((m * (b - 1) + h) >> h) + 1 : (q * m) >> h] += w
    return acc[(ns + h) >> h].astype(np.int64)
