"""Prime tables and quadratic-character arithmetic.

A segmented byte sieve over the odd numbers gives the primes ≤ limit, which
is all that sums over primes read.  The process keeps one read-only column,
the primes up to the largest limit sieved so far, and every table holds a
prefix of it, so only a limit above every earlier one sieves.  What is derived
from the primes stays per table: their logs are formed on first read, by the
few readers that want the whole column.  A smallest-prime-factor table over
the odd n ≤ limit (slot i stands for 2i + 1), built on first use in
cache-sized segments from descending writes of the odd primes to their odd
multiples, gives O(log n) factorisation once the power of 2 is split off,
which in turn gives

    χ(n)   the non-principal character mod 4 (+1, −1, 0 for n ≡ 1, 3, 0 mod 2),
    r₂(n)  = 4·Σ_{d|n} χ(d), the number of ways to write n = m₁² + m₂²
             counting signs and order,
    φ(n)   Euler's totient.

Statistics over the divisors of every p − 1 go through ``divisor_sum``, which
sums χ(d), or 1, over the divisors d of each given n that lie in an integer
window lo ≤ d < hi, for all the n at once.

A prime p is called a *Linnik prime* here when p − 1 = x² + y² has a
solution in integers; r₂(p−1) > 0 is the equivalent character-sum test.  The
actual (x, y) pair comes by one of two routes, checked against each other:
``least_witnesses`` searches x for a given set of n, which is how
``linnik_witness`` and the triple finder get theirs, and the least-witness
table over [0, limit], built by enumerating squares, serves ``linniklab
linnik``, the one reader that needs the witness of every prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError

# Default cap on sieve size, in numbers: the spf table is 2 bytes per number.
MEMORY_BUDGET = 2**31
# Default cap on inner-loop evaluations per call: (p1,p2) pairs in the pair
# scans, Q·π(X) modulus-prime steps in the progression error scan.
WORK_BUDGET = 2**31
# Odd slots sieved per segment, which cover 2²⁰ numbers: 512 KB of the prime
# sieve's bytes, 2 MB of spf's int32, about one L2 cache.
_SEGMENT = 2**19
# Primes per block in the passes over a prime column (the phases of
# ``expsums.s_ld``, the factors of ``dirichlet.n_s``): 512 KB per float64
# temporary.
PRIME_BLOCK = 2**16
# Elements (n, x) tried per block by ``least_witnesses``: 8 MB per int64
# temporary.
_WITNESS_BLOCK = 2**20
# The primes ≤ the largest limit ``sieve_primes`` has sieved, read-only:
# one (limit, column) pair, replaced whole.
_kept: tuple[int, np.ndarray] = (1, np.zeros(0, dtype=np.int64))


@dataclass
class PrimeTable:
    """Sieve products for [2, limit]: the primes, with their logs and the
    smallest-prime-factor and least-witness tables built on first use.

    ``primes`` is a read-only view, a prefix of the column that
    ``sieve_primes`` keeps for the process; tables share it.  The derived
    columns belong to the table: each starts as ``None`` and is built by its
    first reader, so none outlives the table.  ``limit`` is the limit asked
    for, and reads past it raise even when the shared column goes further.
    ``is_prime`` reads ``primes`` alone.  Only ``linniklab linnik`` reads the
    witness table; ``linnik_witness`` and the triple finder search their few
    witnesses with ``least_witnesses`` instead.
    """

    limit: int
    primes: np.ndarray            # int64, ascending
    _logs: np.ndarray | None = field(default=None, repr=False)
    _spf: np.ndarray | None = field(default=None, repr=False)
    _witnesses: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def log_weights(self) -> np.ndarray:
        """ln p for every prime, float64, log_weights[i] = ln(primes[i]).

        Built on first read, 8 bytes per prime, for the readers that want
        the whole column (``e_term``, ``bv_aggregate``); ``s_ld`` and
        ``n_s`` take their logs per block of primes instead.
        """
        if self._logs is None:
            self._logs = np.log(self.primes.astype(np.float64))
        return self._logs

    @property
    def spf(self) -> np.ndarray:
        """Smallest prime factor of every odd n ≤ limit, at slot n // 2
        (spf[0] = 1 for n = 1).

        int32 over the odd numbers only, 2 bytes per number, built on first
        use by ``_spf_table`` for its readers ``r2_bulk`` (which ``gamma``
        calls) and ``factorize``.  Even n have smallest prime factor 2.
        """
        if self._spf is None:
            self._spf = _spf_table(self.limit, self.primes)
        return self._spf

    @property
    def witnesses(self) -> tuple[np.ndarray, np.ndarray]:
        """Least-witness columns (wx, wy) over [0, limit], built on first use.

        wx[n], wy[n] is the pair x ≤ y with x² + y² = n and x least, or
        (−1, −1) when n is not a sum of two squares.  Two int32 columns:
        8 bytes per slot.
        """
        if self._witnesses is None:
            self._witnesses = _witness_table(self.limit)
        return self._witnesses

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
    per prime while the process lives: 5.3 MB at 1e7.  The table's log column
    and spf and witness tables are its own, built by their first readers.
    Racing callers each get the primes to their own limit; a race can only
    repeat a sieve or keep the shorter of two new columns.

    ``memory_budget`` caps limit + 1, the numbers that the spf table (2 bytes
    each) built by the first reader of ``PrimeTable.spf`` covers; the cap is
    checked here, before anything is allocated.
    """
    global _kept
    if not limit >= 2:
        raise DomainError(f"limit must be ≥ 2, got {limit}")
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


def _spf_table(limit: int, primes: np.ndarray) -> np.ndarray:
    """Smallest prime factor of every odd n ≤ limit, slot i standing for
    n = 2i + 1, from a segmented sieve.

    The table is walked in segments of ``_SEGMENT`` slots, small enough to
    stay in cache; in each, every odd prime p ≤ √limit with p² inside it
    writes p to its odd multiples from max(p², segment start) on, a stride of
    p slots.  The primes write in descending order, so the smallest prime
    factor of n, which has spf(n)² ≤ n, is the last to write it and no write
    needs a mask.  The slots left untouched are 1 and the odd primes, which
    take 1 and their own value.
    """
    spf = np.zeros((limit + 1) // 2, dtype=np.int32)
    odd = primes[1:]
    small = odd[: np.searchsorted(odd, math.isqrt(limit), side="right")].tolist()
    for lo in range(0, spf.size, _SEGMENT):
        hi = min(lo + _SEGMENT, spf.size)
        view = spf[lo:hi]
        for p in reversed([p for p in small if p * p < 2 * hi]):
            start = -(-max(p * p, 2 * lo + 1) // p) * p
            if start % 2 == 0:
                start += p
            view[start // 2 - lo :: p] = p
    spf[odd >> 1] = odd
    spf[0] = 1
    return spf


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


def factorize(n: int, table: PrimeTable) -> list[tuple[int, int]]:
    """Prime factorisation [(p, e), …] via the spf table; ascending p.

    The power of 2 is split off first; the odd rest is read from the table.
    """
    if n < 1 or n > table.limit:
        raise DomainError(f"factorize needs 1 ≤ n ≤ {table.limit}, got {n}")
    out: list[tuple[int, int]] = []
    e2 = (n & -n).bit_length() - 1
    if e2:
        out.append((2, e2))
        n >>= e2
    while n > 1:
        p = int(table.spf[n >> 1])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def euler_phi(n: int, table: PrimeTable) -> int:
    """Euler totient of 1 ≤ n ≤ table.limit, by trial division up to √n.

    Callers want φ of one small modulus, for which building the spf table
    would cost far more than the √n divisions.
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
    """r₂(n) = 4·Σ_{d|n} χ(d) = signed/ordered count of n = m₁² + m₂².

    The divisor character sum is multiplicative: a factor p^e contributes
    Σ_{i≤e} χ(p)^i, i.e. e+1 when p ≡ 1 (mod 4), the parity of e when
    p ≡ 3 (mod 4), and 1 for p = 2.
    """
    sig = 1
    for p, e in factorize(n, table):
        c = chi(p) if p != 2 else 0
        if c == 1:
            sig *= e + 1
        elif c == -1 and e % 2 == 1:
            return 0
    return 4 * sig


def r2_bulk(ns: np.ndarray, table: PrimeTable) -> np.ndarray:
    """Vectorised r₂ over an integer array, one prime power per pass.

    The power of 2, which contributes 1 to Σ χ(d), goes first, as
    n // (n & −n).  Each pass then divides every still-active odd cofactor m
    by the whole power p^e of its smallest prime factor p = spf(m) and
    multiplies σ by that factor's Σ_{i≤e} χ(p)^i (see ``r2``).  An entry
    leaves the compacted active arrays (m, index, σ) as soon as m = 1 or
    σ = 0, the latter at an odd power of a p ≡ 3 (mod 4); so the passes are
    bounded by the distinct odd primes of one n (at most 7 below 10⁷) and most
    entries leave well before that.  Every m is odd, so spf(m) sits at slot
    m >> 1 of the odd-only table.
    """
    n = np.ascontiguousarray(ns, dtype=np.int64)
    if n.size == 0:
        return np.zeros(0, dtype=np.int64)
    if int(n.min()) < 1 or int(n.max()) > table.limit:
        raise DomainError("r2_bulk inputs must lie in [1, table.limit]")
    spf = table.spf
    m = (n // (n & -n)).astype(spf.dtype)
    sig = (m == 1).astype(np.int64)
    idx = np.flatnonzero(m > 1)
    m = m[idx]
    s = np.ones(idx.size, dtype=spf.dtype)
    while idx.size:
        p = spf[m >> 1]
        m //= p
        e = np.ones(m.size, dtype=spf.dtype)
        k = np.flatnonzero(m % p == 0)
        while k.size:
            m[k] //= p[k]
            e[k] += 1
            k = k[m[k] % p[k] == 0]
        s *= np.where((p & 3) == 1, e + 1, 1 - (e & 1))
        done = m == 1
        sig[idx[done]] = s[done]
        live = ~done & (s != 0)
        idx, m, s = idx[live], m[live], s[live]
    return 4 * sig


def _witness_table(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Least (x, y), x ≤ y, with x² + y² = n for every n ≤ n_max; −1 if none.

    One numpy pass per x with 2x² ≤ n_max, taken from the largest x down, so
    the least x is the last to write each n.
    """
    wx = np.full(n_max + 1, -1, dtype=np.int32)
    wy = np.full(n_max + 1, -1, dtype=np.int32)
    for x in range(math.isqrt(n_max // 2), -1, -1):
        y = np.arange(x, math.isqrt(n_max - x * x) + 1, dtype=np.int64)
        n = x * x + y * y
        wx[n] = x
        wy[n] = y
    return wx, wy


def least_witnesses(ns) -> tuple[np.ndarray, np.ndarray]:
    """Least (x, y), x ≤ y, with x² + y² = n for every n in ``ns``; −1 if none.

    Returns two int64 arrays, one entry per n.  Each distinct n tries
    x = 0, 1, … while 2x² ≤ n; x is a witness when y = rint(√(n − x²)) has
    y² = n − x² in int64 and y ≥ x.  The float root of a perfect square below
    2⁵² is exact, so the test is.  The search takes blocks of at most
    ``_WITNESS_BLOCK`` (n, x) elements, a run of x for the n still without a
    witness, so it costs about (distinct n)·√(max n / 2) steps and allocates
    nothing over [0, max n].
    """
    n, inv = np.unique(np.asarray(ns, dtype=np.int64), return_inverse=True)
    wx = np.full(n.size, -1, dtype=np.int64)
    wy = np.full(n.size, -1, dtype=np.int64)
    if n.size == 0:
        return wx, wy
    if int(n[0]) < 0 or int(n[-1]) >= 2**52:
        raise DomainError("least_witnesses inputs must lie in [0, 2⁵²)")
    for lo in range(0, n.size, _WITNESS_BLOCK):
        idx = np.arange(lo, min(lo + _WITNESS_BLOCK, n.size))
        x0 = 0
        while idx.size:
            x1 = min(x0 + max(1, _WITNESS_BLOCK // idx.size),
                     math.isqrt(int(n[idx[-1]]) // 2) + 1)
            xs = np.arange(x0, x1)
            m = n[idx, None] - xs * xs
            y = np.rint(np.sqrt(np.maximum(m, 0))).astype(np.int64)
            hit = (y * y == m) & (y >= xs)
            col = hit.argmax(axis=1)
            found = hit[np.arange(idx.size), col]
            wx[idx[found]] = xs[col[found]]
            wy[idx[found]] = y[found, col[found]]
            idx = idx[~found & (n[idx] >= 2 * x1 * x1)]
            x0 = x1
    return wx[inv], wy[inv]


def linnik_witness(p: int, table: PrimeTable) -> tuple[int, int] | None:
    """Least witness (x, y), x ≤ y, with p − 1 = x² + y², or None.

    A one-element ``least_witnesses`` search; it builds no table.  Exists iff
    r₂(p − 1) > 0.
    """
    if p < 2 or p > table.limit or not table.is_prime(p):
        raise DomainError(f"linnik_witness needs a prime ≤ {table.limit}, got {p}")
    wx, wy = least_witnesses(np.array([p - 1]))
    x = int(wx[0])
    return None if x < 0 else (x, int(wy[0]))


def divisor_sum(ns, lo: int, hi: int, chi: bool) -> np.ndarray:
    """For each n in ``ns``, Σ χ(d) when ``chi``, else Σ 1, over the divisors
    d of n with lo ≤ d < hi (integer edges), in int64; 0 for n = 0.

    One accumulator over [0, N], N = max ns, gathers every n at once.  The
    weight is w on each class d ≡ r (mod q): χ is ±1 on d ≡ 1, 3 (mod 4), the
    count 1 on all d (mod 1).  Each d·m = n is visited once, through whichever
    factor is ≤ s = ⌊√N⌋: a small d adds w to the stride acc[d::d], and the
    class's d > s with cofactor m form the stride acc[m·a : m·b : q·m]: O(√N) passes.
    """
    ns = np.asarray(ns)
    if ns.min(initial=0) < 0:
        raise DomainError(f"divisor_sum needs n ≥ 0, got {ns.min()}")
    n_max = int(ns.max(initial=0))
    acc = np.zeros(n_max + 1, dtype=np.int64)
    s = math.isqrt(n_max)
    lo, hi = max(lo, 1), min(hi, n_max + 1)
    q, classes = (4, ((1, 1), (3, -1))) if chi else (1, ((0, 1),))
    for r, w in classes:
        for d in range(lo + (r - lo) % q, min(hi, s + 1), q):
            acc[d::d] += w
        a = max(lo, s + 1)
        a += (r - a) % q
        for m in range(1, s + 1):
            b = min(hi, n_max // m + 1)
            if b <= a:
                break
            acc[m * a : m * b : q * m] += w
    return acc[ns]
