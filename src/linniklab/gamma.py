"""Triple-sum engine for the weighted counts over prime triples.

The central objects, for an instance (λ₁, λ₂, λ₃, η, ε, λ₀, X):

    Γ(X)  = Σ r(p₃−1)·ln p₁ ln p₂ ln p₃   over λ₀X < p₁,p₂,p₃ ≤ X
            with |λ₁p₁ + λ₂p₂ + λ₃p₃ + η| < ε  (sharp window),
    Γ₀(X) = the same sum with the sharp window replaced by the smooth
            weight θ(λ₁p₁ + λ₂p₂ + λ₃p₃ + η),

and the split of Γ₀ obtained by expanding r(p₃−1) = 4·Σ_{d|p₃−1} χ(d) and
cutting the divisor range at D and X/D:

    Γ₀ = 4·(Γ₁ + Γ₂ + Γ₃),   d ≤ D  |  D < d < X/D  |  d ≥ X/D.

The identity is exact term by term, so it survives any floating threshold
choice; checking it to 1e−9 relative is the engine's primary self-test.

Algorithm: the three primes play alike in the window, so the engine may
sort any one slot's λᵢpᵢ and pair up the other two; it sorts the slot whose
scan has the fewest live pairs (below), ties going to p₃, then p₂, and
takes weights and returns hits in the caller's slots.  Say it sorts
{λ₃p₃}, with prefix sums of the p₃ weights; a (p₁,p₂) pair then reduces
to two lookups of its window edges in that sorted column.  A lookup reads
a bucket table over the λ₃p₃ range, built once per engine in O(P₃), and
settles the entries of the key's own bucket with a few exact compares.  A
pair can have a triple in its window only if −(λ₁p₁ + λ₂p₂ + η) lies
within ε of the λ₃p₃ range; λ₂p₂ is monotone, so for each p₁ these p₂
form one run, found for all p₁ by two vectorised searches.  Only the L
pairs of these runs are looked up, O(P log P + P₃ + L) in all for
P = π(X) − π(λ₀X).  A Linnik mask shortens its slot: the finder at
X = 1e6 with only p₃ masked has L = 4.45e6 sorting λ₃p₃ and 4.4e5 sorting
λ₂p₂, with p₃ on a pair slot.  Each Γ call, and the triple finder, makes
one sweep over the live pairs: the window bounds of a chunk feed the sharp
prefix-sum total, the triple count, the per-p₃ pair mass
W(p₃) = Σ_{p₁,p₂} θ(residual)·ln p₁·ln p₂ and the collected hits together.
The columns of Γ₀ and its split differ only in their p₃ weight, so each is
the dot product of that weight with W.  A hit's residual is formed in the
caller's association whichever slot is sorted, so θ and the finder's order
see the same floats.  The live pairs, row after row, are cut into chunks of
a fixed count, independent of the thread count; their sharp partial sums
are combined in chunk order with exact compensated summation, and their
masses are added into W in chunk order, so results are bit-identical for
any thread count.  The chunks go to a pool of threads, capped at the CPUs
the process may run on, only where each worker gets at least 16 of them
(2¹⁸ live pairs); a smaller sweep, such as the finder's at X = 1e6, runs on
the calling thread, where a pool costs more than it saves.  The finder's
chunks return their non-empty windows, whose hits are expanded once after
the sweep, and its running hit total is checked in chunk order, so a
budget error reads the same for any thread count.  The orientation the
picker chooses hands the engine its keys and live runs, so each is formed
once per scan.

The Γ family has a second path, the lattice (`_Lattice`), for instances
whose λᵢ are small rationals, such as typed decimals.  Over the common
denominator of `Instance.lattice`, n₁p₁ + n₂p₂ is an integer, so the
(p₁,p₂) sum is a convolution: split into residue classes (p₁ mod 2|m₂|, p₂
mod 2|m₁| with mᵢ = nᵢ/gcd(n₁,n₂); classed mod |m| with |m| odd, the odd
primes would fill only every other place), each class pair is one short
`numpy.fft.rfft` convolution of the ln p weights and one of the 0/1
indicators, the latter rounded to exact pair counts under an a priori
bound; a pair with a one-prime class is the other class shifted, with no
FFT.  Each p₃ gathers the entries at the integer shifts of the window,
decided exactly in integers, into its W with θ at the correctly rounded
residuals.
So the lattice computes Γ of the rationals, not of their floats, and
counts boundary triples exactly.  It runs on one thread, and only where
its estimated time is below the scan's for the live pairs that
`_pick_slot` counts; the finder always scans.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .arith import WORK_BUDGET, PrimeTable, divisor_sum, linnik_rows
from .errors import DomainError, NumericError, ResourceError
from .smoothing import SmoothingKernel, check_table_budget, theta_eval

HITS_BUDGET = 2**26        # max materialized in-window triples per call
# live pairs per chunk; independent of thread count.  The numpy temporaries
# of a 2¹⁴-pair chunk reuse the pages the last chunk freed: the chunks of a
# second gamma_split at X = 1e5 take under 100 minor page faults in all, at
# 2¹⁵ about 450k (fresh pages for every temporary, 1.5× the time), and 2¹³
# is slower by its per-chunk overhead
_CHUNK = 2**14
# chunks per worker below which no pool starts.  On 2 vCPUs, with a pool at
# every size, two threads lost to one on the finder at X = 1e6 (27 chunks,
# 38.1 against 33.5 ms) and on a named sharp Γ at X = 1e4 (22 chunks, 17.9
# against 16.9 ms), and won on that Γ at X = 3e4 (154 chunks, 78.2 against
# 115.1 ms); medians of fresh processes, BENCH_35.json
_POOL_CHUNKS = 16


@dataclass(frozen=True)
class Instance:
    """One experiment: the form coefficients, shift, window, and scale.

    λ₁, λ₂, λ₃ and η are held as the exact Fractions of the ints, floats, decimal
    strings or Fractions given; the pair scan and `b_j_volume` read their `floats`."""

    lambda1: Fraction
    lambda2: Fraction
    lambda3: Fraction
    eta: Fraction
    eps: float
    x: float
    lambda0: float = 0.5
    ratio_irrational: bool = False   # caller's pledge that λ₁/λ₂ is irrational

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "eta"):
            v = getattr(self, name)
            try:
                float(exact := Fraction(v))
            except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
                raise DomainError(
                    f"{name} must be a rational with a finite float: {exc}") from None
            object.__setattr__(self, name, exact)
        for name in ("eps", "x", "lambda0"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if 0.0 in self.floats[:3]:
            raise DomainError("all three coefficients must be nonzero finite floats")
        if self.eps < 0:
            raise DomainError(f"eps must be ≥ 0, got {self.eps}")
        if not 0.0 < self.lambda0 < 1.0:
            raise DomainError(f"lambda0 must lie in (0,1), got {self.lambda0}")
        if self.x <= 0:
            raise DomainError(f"X must be positive, got {self.x}")

    @property
    def floats(self) -> tuple[float, float, float, float]:
        """(λ₁, λ₂, λ₃, η), each correctly rounded to a float."""
        return tuple(float(v) for v in (self.lambda1, self.lambda2, self.lambda3, self.eta))

    @property
    def lattice(self) -> tuple[int, int, int, int, int, int]:
        """(den, n₁, n₂, n₃, n_η, n_ε): λ₁, λ₂, λ₃, η and ε over their common
        denominator den, so that a triple is in the window exactly when
        |n₁p₁ + n₂p₂ + n₃p₃ + n_η| < n_ε, and its residual is that integer / den."""
        exact = (self.lambda1, self.lambda2, self.lambda3, self.eta, Fraction(self.eps))
        den = math.lcm(*(v.denominator for v in exact))
        return (den, *(v.numerator * (den // v.denominator) for v in exact))

    @property
    def theorem_mode(self) -> bool:
        return len({v > 0 for v in self.floats[:3]}) == 2 and self.ratio_irrational


@dataclass(frozen=True)
class GammaBreakdown:
    gamma: float
    gamma0: float
    g1: float
    g2: float
    g3: float
    d: float
    triple_count: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TripleWitness:
    """A `find_triples` row: (x, y) is p₃'s least witness, x = y = −1 when p₃
    has none; ``witness1`` and ``witness2`` are those of p₁ and p₂, None
    unless that slot is in ``require_linnik``."""

    p1: int
    p2: int
    p3: int
    x: int
    y: int
    residual: float
    witness1: tuple[int, int] | None = None
    witness2: tuple[int, int] | None = None


# ------------------------------------------------------------------ plumbing

def _range_primes(inst: Instance, table: PrimeTable) -> np.ndarray:
    sl = table.prime_slice(inst.lambda0 * inst.x, inst.x)
    return table.primes[sl]


def _slot_primes(inst: Instance, table: PrimeTable, masks) -> list[np.ndarray]:
    """The primes of (λ₀X, X] of each slot, each through its mask if any."""
    base = _range_primes(inst, table)
    if base.size == 0:
        raise DomainError(
            f"no primes in ({inst.lambda0 * inst.x:.6g}, {inst.x:.6g}]"
        )
    return [base if m is None else base[m] for m in masks]


def _run_ends(inst: Instance, na, l2p2, z_lo: float, z_hi: float, mag: float):
    """Ends [a, b) of the live run of p₂ columns of every p₁ row.

    A pair can have a λ₃p₃ in its window only if z_lo < −c + ε and
    −c − ε < z_hi, that is  na − z_hi − ε < λ₂p₂ < na − z_lo + ε  with
    na = −(λ₁p₁+η); λ₂p₂ is monotone in p₂, so these p₂ are one run.  Every
    float step of the scan and of the two thresholds rounds by at most an
    ulp of mag, and a clamped edge moves by at most two, so widening the
    thresholds by 1024 ulps of mag leaves lo == hi for every pair outside
    the run.  _pick_slot rejects the instances where 4·mag overflows.
    """
    eps, delta = inst.eps, 1024.0 * float(np.spacing(mag))
    sgn = 1.0 if inst.lambda2 > 0 else -1.0
    t_lo = sgn * (na - z_hi - eps - delta)
    t_hi = sgn * (na - z_lo + eps + delta)
    key = sgn * l2p2                           # ascending in p₂
    return (_search_monotone(key, np.minimum(t_lo, t_hi), "left"),
            _search_monotone(key, np.maximum(t_lo, t_hi), "right"))


def _search_monotone(key, t, side: str):
    """key.searchsorted(t, side) for thresholds t monotone in either direction.

    numpy narrows each search to [previous result, len(key)) on ascending
    needles and to [0, previous result] on descending ones.  The run ends'
    thresholds follow p₁, so t is searched in the order that keeps those
    ranges short: ascending where its middle result lies in the upper half
    of key.  On the finder at X = 1e6, whose results lie near 0, the two
    sorted slots' searches take a quarter of the time in p₁ order.
    """
    if len(t) < 2:
        return key.searchsorted(t, side=side)
    upper = 2 * int(key.searchsorted(t[len(t) // 2], side=side)) >= len(key)
    if upper == (t[0] <= t[-1]):
        return key.searchsorted(t, side=side)
    return key.searchsorted(t[::-1], side=side)[::-1]


def _sorting(s: int) -> tuple[int, int, int]:
    """The slot order that sorts the caller's slot s: s and slot 3 exchanged."""
    perm = [0, 1, 2]
    perm[s], perm[2] = 2, s
    return tuple(perm)


@dataclass(frozen=True, eq=False)
class _Orientation:
    """The pair scan that sorts the caller's slot perm[2]: what `_pick_slot`
    forms to count its live pairs, and what `_Engine` then scans.

    inst is the caller's instance with its slot k taken from the caller's
    slot perm[k]; ps, and the keys λ₁p₁, na = −(λ₁p₁ + η), λ₂p₂ and
    z = λ₃p₃, are in those slots.  ends are the live runs' (a, b) of
    `_run_ends`, and live is the number of pairs they hold.
    """

    inst: Instance
    perm: tuple[int, int, int]
    ps: tuple[np.ndarray, np.ndarray, np.ndarray]
    l1p1: np.ndarray
    na: np.ndarray
    l2p2: np.ndarray
    z: np.ndarray
    ends: tuple[np.ndarray, np.ndarray]
    live: int


def _pick_slot(inst: Instance, ps, slots=(2, 1, 0)) -> _Orientation:
    """The orientation, among those sorting the caller's slots (0-based),
    with the fewest live pairs; ties go to the first of slots.

    The three primes play alike in |λ₁p₁ + λ₂p₂ + λ₃p₃ + η| < ε, so any
    slot s may be the sorted one: exchanging λₛ with λ₃ (and the masks
    with them) gives an instance with the same triples.  The three λᵢpᵢ
    columns are formed once; each orientation counts its live pairs with
    `_run_ends` over the other two slots' keys, and only the best so far is
    kept.  The choice reads only the instance and the masked primes ps,
    never the thread count.  Every float an orientation's scan forms lies
    within mag = max|na| + max|λ₂p₂| + ε + max|z| of 0; where 4·mag
    overflows for any s, no rounding margin is provable: DomainError.
    """
    *lams, eta = inst.floats
    with np.errstate(over="ignore", invalid="ignore"):
        lps = [lam * p.astype(np.float64) for lam, p in zip(lams, ps)]
        tops = [float(np.max(np.abs(v), initial=0.0)) for v in lps]
    best = None
    for s in slots:
        perm = _sorting(s)
        swapped = _permuted(inst, perm)
        l1p1, l2p2, z = (lps[i] for i in perm)
        with np.errstate(over="ignore", invalid="ignore"):
            na = -(l1p1 + eta)
            mag = (float(np.max(np.abs(na), initial=0.0)) + tops[perm[1]] + inst.eps
                   + tops[perm[2]])
        if not math.isfinite(4.0 * mag):
            raise DomainError(
                f"the pair scan's floats reach {mag:.3e}, too near the float "
                "range to bound their rounding")
        a, b = _run_ends(swapped, na, l2p2, float(z.min()), float(z.max()), mag)
        live = int((b - a).sum())
        if best is None or live < best.live:
            best = _Orientation(swapped, perm, tuple(ps[i] for i in perm),
                                l1p1, na, l2p2, z, (a, b), live)
    return best


def _oriented_engine(inst: Instance, table: PrimeTable, masks=(None, None, None),
                     work_budget: int = WORK_BUDGET, lattice: bool = False):
    """The `_Engine` of the orientation `_pick_slot` picks, or with lattice
    the `_Lattice` where its cost is below that scan's.

    The engine's slot k holds the caller's slot perm[k]; its scan takes
    weights and returns hits in the caller's slots.  The pair budget is
    charged against the caller's P₁·P₂, before any slot is sorted.
    """
    ps = _slot_primes(inst, table, masks)
    _check_pair_budget(len(ps[0]), len(ps[1]), work_budget)
    orient = _pick_slot(inst, ps)
    if lattice:
        lat = _Lattice(inst, ps)
        if lat.cost < _NS_PER_LIVE_PAIR * orient.live:
            return lat
    return _Engine(orient)


def _permuted(inst: Instance, perm) -> Instance:
    """inst with its slot k taken from the caller's slot perm[k]."""
    lams = (inst.lambda1, inst.lambda2, inst.lambda3)
    return replace(inst, lambda1=lams[perm[0]], lambda2=lams[perm[1]], lambda3=lams[perm[2]])


def _check_pair_budget(n1: int, n2: int, work_budget: int):
    if n1 * n2 > work_budget:
        raise ResourceError(
            f"pair scan needs {n1 * n2:.3e} evaluations, over the budget "
            f"{work_budget:.3e}; raise --work-budget and consider --threads"
        )


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(fn, spans: list[tuple[int, int]], threads: int):
    """fn(k0, k1) for every span, yielded in span order.

    A pool of up to threads workers, capped at the usable CPUs, starts only
    where each worker gets at least _POOL_CHUNKS spans; a smaller sweep runs
    on the calling thread.  Chunks are cut alike either way, so the thread
    count moves no result.
    """
    workers = min(threads, len(spans) // _POOL_CHUNKS, _cpus())
    if workers <= 1:
        yield from (fn(k0, k1) for k0, k1 in spans)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(lambda span: fn(*span), spans)


class _Engine:
    """Shared state for one pair scan: λ₃p₃ sorted, and the order that sorts it.

    Built from the `_Orientation` that `_pick_slot` returns: its inst may be
    a caller's instance with two slots exchanged, and perm[k] names the
    caller's slot that the engine's slot k holds.
    """

    def __init__(self, orient: _Orientation):
        inst = self.inst = orient.inst
        self.perm = orient.perm       # the caller's slot of each of p1, p2, p3
        self.p1, self.p2, self.p3 = orient.ps
        self.l1p1, self.na, self.l2p2 = orient.l1p1, orient.na, orient.l2p2
        self.ends = orient.ends
        order = np.argsort(orient.z, kind="stable")
        self.zs = orient.z[order]
        self.order = order
        # ε within two ulps of the largest |−c|: a rounded edge may land on
        # −c itself, so _bounds clamps both edges strictly past −c
        c_mag = (abs(inst.floats[0]) * float(np.max(self.p1, initial=0))
                 + float(np.max(np.abs(self.l2p2), initial=0.0)) + abs(inst.floats[3]))
        self.clamp = inst.eps <= 2.0 * float(np.spacing(c_mag))
        self.tab = None
        self._build_buckets()

    def _build_buckets(self):
        """Build the lookup's bucket table; tab stays None if b cannot map zs.

        b(v) = trunc(clip((v − zs[0])·binv, 0, top)) is monotone in v, so
        every zs in a lower bucket than a key k lies below k and every zs in
        a higher one above it.  tab[b] counts the zs below bucket b, and no
        bucket holds more than depth entries, so tab[b(k)] plus depth
        compares against the sorted column gives searchsorted exactly.
        With about span / (smallest gap) buckets, capped at 16·P₃, prime
        gaps ≥ 1 leave about one entry per bucket.
        """
        zs, n3 = self.zs, len(self.zs)
        span = float(zs[-1] - zs[0])
        gap = float(np.min(np.diff(zs), initial=np.inf))
        nb = math.ceil(span / gap) if span < 16 * n3 * gap else 16 * n3
        self.binv = nb / span if span > 0 else 1.0
        if not math.isfinite(self.binv):     # a span of subnormal width
            return
        self.top = nb + 1
        # each bucket's count one place up, so that summed in place it
        # counts the zs below each bucket
        tab = np.bincount(self._bucket(zs) + 1, minlength=self.top + 1)
        self.depth = int(tab.max())
        self.tab = np.cumsum(tab, out=tab)
        # NaN compares false on both sides, so a key of +inf stops at P₃
        self.zpad = np.append(zs, np.nan)

    def _bucket(self, v):
        with np.errstate(over="ignore"):    # +inf clips to the top bucket
            t = np.subtract(v, self.zs[0])
            t *= self.binv
        return np.clip(t, 0.0, self.top, out=t).astype(np.intp)

    def _search(self, key, side):
        """zs.searchsorted(key, side), through the bucket table.

        The scan's keys are never NaN (_pick_slot rejects the instances
        whose magnitudes overflow), so every index lies in range.
        """
        if self.tab is None:
            return self.zs.searchsorted(key, side=side)
        idx = self.tab.take(self._bucket(key))
        cmp = np.less if side == "left" else np.less_equal
        at, step = np.empty(len(key)), np.empty(len(key), bool)
        for _ in range(self.depth):
            # in range, so "clip" only skips the buffered copy of "raise"
            idx += cmp(self.zpad.take(idx, out=at, mode="clip"), key, out=step)
        return idx

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The live run of p₂ columns of every p₁ row, as (off, cum).

        Row i's run holds the cum[i+1] − cum[i] columns off[i] + k for
        cum[i] ≤ k < cum[i+1]; k numbers the live pairs row after row.
        """
        a, b = self.ends
        cum = np.zeros(len(a) + 1, np.int64)
        np.cumsum(b - a, out=cum[1:])
        return a - cum[:-1], cum

    def _bounds(self, off: np.ndarray, cum: np.ndarray, k0: int, k1: int):
        """Row, column and window [lo, hi) into zs of live pairs k0:k1.

        c = λ₁p₁ + λ₂p₂ + η is built negated; negation is exact, so
        nc == −c bit for bit.  When ε is near the float resolution of −c,
        an edge −c ∓ ε can round onto −c itself and drop the entries equal
        to −c (residual 0 < ε); with self.clamp the edges are pushed to at
        least the neighbouring floats, so fl(−c−ε) < −c < fl(−c+ε) and
        hi ≥ lo.
        """
        eps = self.inst.eps
        r0 = int(cum.searchsorted(k0, side="right")) - 1
        r1 = int(cum.searchsorted(k1, side="left"))
        rows = np.repeat(np.arange(r0, r1), np.diff(np.clip(cum[r0:r1 + 1], k0, k1)))
        cols = off.take(rows)
        cols += np.arange(k0, k1)
        nc = self.na.take(rows)
        nc -= self.l2p2.take(cols)
        lo_edge, hi_edge = nc - eps, nc + eps
        if self.clamp:
            np.minimum(lo_edge, np.nextafter(nc, -np.inf), out=lo_edge)
            np.maximum(hi_edge, np.nextafter(nc, np.inf), out=hi_edge)
        return rows, cols, self._search(lo_edge, "right"), self._search(hi_edge, "left")

    def _expand(self, i1, i2, lo, reps):
        """The hits of the windows (row i1, column i2, first zs index lo,
        reps entries): each hit's index into the engine's three slot columns,
        and its residual fl(λ₃p₃) − (fl(−(fl(λ₁p₁) + η)) − fl(λ₂p₂)) in the
        caller's slots, the same floats whichever slot is sorted."""
        starts = np.cumsum(reps) - reps
        inner = np.repeat(lo - starts, reps) + np.arange(int(reps.sum()))
        idx = (np.repeat(i1, reps), np.repeat(i2, reps), self.order[inner])
        v = [None] * 3
        v[self.perm[0]], v[self.perm[1]] = self.l1p1[idx[0]], self.l2p2[idx[1]]
        v[self.perm[2]] = self.zs[inner]
        return idx, v[2] - (-(v[0] + self.inst.floats[3]) - v[1])

    def scan(self, w, kern: SmoothingKernel | None = None, threads: int = 1,
             collect: bool = False):
        """One sweep over the live (p₁,p₂) pairs, each chunk bounded once.

        w is a weight triple (w₁, w₂, w₃) in the caller's slots (see perm);
        a slot that no result reads may be None.  Returns (sharp, count,
        mass, hits): sharp is Σ w₁·w₂·w₃ over the in-window triples, read
        off the prefix sums of the sorted slot's weights (None if w₃ is);
        mass, with kern, is the per-p₃ pair mass, mass[j] = Σ θ(residual)·w₁·w₂
        over the in-window triples whose p₃ is the caller's j-th, each
        chunk's hits added into it in chunk order (None without kern);
        hits, with collect=True, are the flat arrays (p1, p2, p3, residual)
        in the engine's (p₁, p₂) order, the residuals those of `_expand`.
        With collect each chunk returns its non-empty windows only, and
        their hits are expanded once, after the sweep.  Hits are enumerated
        only for kern or collect, and only then count against HITS_BUDGET:
        each chunk's, and with collect the running total, taken in chunk
        order.
        """
        perm = self.perm
        k3 = perm.index(2)          # the engine's slot of the caller's p₃
        enumerate_hits = kern is not None or collect
        off, cum = self.runs()
        if w[2] is not None:
            w1, w2, w3 = (w[i] for i in perm)
            pref = np.zeros(len(self.zs) + 1)
            np.cumsum(w3[self.order], out=pref[1:])

        def do(k0, k1):
            rows, i2, lo, hi = self._bounds(off, cum, k0, k1)
            val = None
            if w[2] is not None:
                val = float(np.sum(w1[rows] * w2[i2] * (pref[hi] - pref[lo])))
            cnt = np.subtract(hi, lo, out=hi)
            tot = int(cnt.sum())
            if not enumerate_hits or tot == 0:
                return val, tot, None, None
            if tot > HITS_BUDGET:
                raise ResourceError(
                    f"{tot:.2e} window hits in one chunk exceeds the hits budget"
                )
            nz = np.flatnonzero(cnt)
            win = rows[nz], i2[nz], lo[nz], cnt[nz]
            part = None
            if kern is not None:
                idx, res = self._expand(*win)
                a, b = (w[perm[k]][idx[k]] for k in range(3) if k != k3)
                part = idx[k3], theta_eval(kern, res) * a * b
            return val, tot, part, win if collect else None

        n_live = int(cum[-1])
        spans = [(k, min(k + _CHUNK, n_live)) for k in range(0, n_live, _CHUNK)]
        vals, count, found = [], 0, []
        mass = None if kern is None else np.zeros(len((self.p1, self.p2, self.p3)[k3]))
        # closed on a raise, so a pool cancels its pending chunks at once
        with contextlib.closing(_run_chunks(do, spans, threads)) as chunks:
            for val, tot, part, win in chunks:
                vals.append(val)
                count += tot
                if part is not None:
                    np.add.at(mass, *part)
                if win is not None:
                    if count > HITS_BUDGET:
                        raise ResourceError(
                            f"{count:.2e} collected window hits exceed the hits budget"
                        )
                    found.append(win)
        sharp = math.fsum(vals) if w[2] is not None else None
        if not collect:
            return sharp, count, mass, None
        if not found:
            return sharp, count, mass, (np.zeros(0, np.int64),) * 3 + (np.zeros(0),)
        idx, res = self._expand(*(np.concatenate(c) for c in zip(*found)))
        ps = [None] * 3
        for k, p in enumerate((self.p1, self.p2, self.p3)):
            ps[perm[k]] = p[idx[k]]
        return sharp, count, mass, (*ps, res)


# ------------------------------------------------------------ lattice engine

# Percival's bound on every entry of an FFT convolution of x and y on N = 2ⁿ
# points, ‖x‖₂‖y‖₂·((1+u)³ⁿ(1+√5·u)³ⁿ⁺¹(1+β)³ⁿ − 1) with twiddle error
# β ≤ 2u, is below _FFT_C·u·n·‖x‖₂‖y‖₂ for every n < 64.  numpy's FFT is not
# the radix-2 FFT of that proof, so each rounded count is checked against it
_FFT_C = 18.0
# the lattice's time, estimated in ns per FFT point per level, per p₃ looked
# up, per convolved class pair, per class pair with a one-prime class and per
# σ of θ's table, against _NS_PER_LIVE_PAIR per live pair of the pair scan;
# the lattice runs where its estimate is the lower.  The first four were
# fitted, relative error weighted, on 190 sharp scans with classes mod 2|m|:
# 12 decimal λ, X = 30 to 1e5, λ₀ = 0.1 and λ₀X = 1.5 (2-vCPU x86-64,
# Python 3.11, numpy 2.4), within a factor 0.67–3.1 at X > 300 and up to
# 4.9× under at X ≤ 300; θ's table took 200–410 ns per σ; the scan, 37–44 ns
# per live pair on sparse windows and 80–120 on dense ones (instances of
# over 2e5 live pairs)
_NS_PER_FFT_UNIT = 0.8
_NS_PER_LOOKUP = 6.0
_NS_PER_CLASS_PAIR = 45_000.0
_NS_PER_SHIFTED_PAIR = 20_000.0
_NS_PER_SIGMA = 300.0
_NS_PER_LIVE_PAIR = 40.0


class _Lattice:
    """The Γ sums of an instance whose λᵢ are small rationals, by convolution.

    With (den, n₁, n₂, n₃, n_η, n_ε) = inst.lattice and nᵢ' = nᵢ/f,
    f = gcd(n₁, n₂, n₃), a triple has the integer σ = Σ nᵢ'pᵢ and is in the
    window exactly when |fσ + n_η| < n_ε, i.e. lo ≤ σ ≤ hi; its residual is
    (fσ + n_η)/den, correctly rounded.  Let g = gcd(n₁', n₂'), mᵢ = nᵢ'/g,
    M = |m₁m₂| and t = m₁p₁ + m₂p₂, so σ = g·t + n₃'p₃.  Split p₁ by its
    residue mod 2|m₂| and p₂ by its residue mod 2|m₁|: a member p = q + mod·i
    of a class with least member q sits at place i (at span − 1 − i on p₂'s
    side when m₂ has the other sign), and then t = off + sgn(m₁)·2M·k over
    a pair of classes, k the sum of the two places.  So each class pair's
    weights per t are one convolution in k, and each pair (p₁, p₂) lies in
    one class pair.  Twice the modulus halves both spans, so n_fft: a class
    mod |m| with |m| odd holds its odd primes at every other place only, and
    mod 2|m| the same primes fill every place; with |m| even each class
    splits in two.  p = 2, in range when λ₀X < 2, is a class of its own.
    Per class pair two `numpy.fft.rfft` convolutions give the w₁·w₂ weights
    and the pair counts, the latter rounded to integers under Percival's
    bound (`_FFT_C`); where one class is one prime, at place 0, the pair's
    entries are the other class's places and weights times its weight, with
    no FFT and no rounding.  Each p₃ then gathers the entries whose
    σ ≡ n₃'p₃ + g·off (mod 2gM) lies in [lo, hi], with θ read off a table
    over [lo, hi].
    """

    def __init__(self, inst: Instance, ps):
        den, n1, n2, n3, n_eta, n_eps = inst.lattice
        f = math.gcd(n1, n2, n3)
        n1, n2, self.n3 = n1 // f, n2 // f, n3 // f
        self.p1, p2, self.p3 = ps
        self.g = math.gcd(n1, n2)
        m1, m2 = n1 // self.g, n2 // self.g
        top = sum(abs(n) * int(p[-1]) for n, p in zip((n1, n2, self.n3), ps))
        self.cost = math.inf
        self.modulus = self.g * 2 * abs(m1 * m2)    # of σ ≡ n₃'p₃ + g·off in a class pair
        if top >= 2**52 or self.modulus >= 2**52:
            return      # σ and its classes must stay exact in int64 and float
        self.sgn = 1 if m1 > 0 else -1                  # t = off + sgn·2M·k
        # the window in σ, cut to the σ the primes can form
        self.lo = max((-n_eps - n_eta) // f + 1, -top)
        self.hi = min(-((n_eta - n_eps) // f) - 1, top)
        self.resid = (f, n_eta, den)        # σ's residual is (fσ + n_η)/den
        self.sides = ((self.p1, 2 * abs(m2), m1, False),
                      (p2, 2 * abs(m1), m2, (m1 > 0) != (m2 > 0)))
        # per side, p's positions by residue class and where each class starts
        self.classes, spans, sizes, fulls, counts = [], [], [], [], []
        for p, mod, _, _ in self.sides:
            res = p % mod
            order = np.argsort(res, kind="stable")
            starts = np.flatnonzero(np.diff(res[order], prepend=-1))
            ends = np.append(starts[1:], len(p))
            self.classes.append((order, starts[1:]))
            spans.append(int(((p[order[ends - 1]] - p[order[starts]]) // mod).max()) + 1)
            sizes.append(len(starts))
            fulls.append(int(np.count_nonzero(ends - starts > 1)))  # classes with spectra
            counts.append(int((ends - starts).max()))
        self.n_fft = 1 << (spans[0] + spans[1] - 2).bit_length()
        self.held = 0 if sizes[0] < sizes[1] else 1   # the side whose spectra are kept
        levels = max(1, self.n_fft.bit_length() - 1)
        # a priori bound on the rounding of every pair count
        self.round_bound = (_FFT_C * 2.0 ** -53 * levels
                            * math.sqrt(counts[0]) * math.sqrt(counts[1]))
        # the σ of one p₃ in one class pair lie modulus apart: at most steps
        # of them in [lo, hi]
        width = max(0, self.hi - self.lo + 1)
        self.steps = -(-width // self.modulus)
        pairs, convolved = sizes[0] * sizes[1], fulls[0] * fulls[1]
        self.cost = (_NS_PER_FFT_UNIT * 2 * (convolved + fulls[0] + fulls[1]) * self.n_fft * levels
                     + _NS_PER_LOOKUP * pairs * len(self.p3) * self.steps
                     + _NS_PER_CLASS_PAIR * convolved + _NS_PER_SHIFTED_PAIR * (pairs - convolved)
                     + _NS_PER_SIGMA * width) if width else 0.0

    def _classes(self, side: int, w: np.ndarray, out=(None, None)):
        """Per residue class of one side: the spectra of its weights w and of
        its 0/1 indicator at their places, its off, its span, its places and
        its weights.  The spectra are written into out's two buffers where
        given, else fresh arrays; a class of one prime has none, as its one
        place is 0."""
        p, mod, coef, rev = self.sides[side]
        # one pair of n_fft arrays for every class, zeroed again at its places
        ln, ones = np.zeros(self.n_fft), np.zeros(self.n_fft)
        for pos in np.split(*self.classes[side]):
            q = p[pos]
            at = (q - q[0]) // mod
            if rev:
                at = at[-1] - at
            spectra = None, None
            if len(pos) > 1:
                ln[at], ones[at] = w[pos], 1.0
                spectra = np.fft.rfft(ln, out=out[0]), np.fft.rfft(ones, out=out[1])
                ln[at] = ones[at] = 0.0
            yield (*spectra, coef * int(q[-1] if rev else q[0]), int(at.max()) + 1, at, w[pos])

    def scan(self, w, kern: SmoothingKernel | None = None, threads: int = 1):
        """The (sharp, count, mass, None) of `_Engine.scan` without collect,
        on one thread for any threads."""
        if self.round_bound >= 0.5:
            raise NumericError(
                f"FFT rounding of the pair counts may reach {self.round_bound:.3g}; "
                "no count can be rounded to an integer")
        lo, hi, q_mod, sgn = self.lo, self.hi, self.modulus, self.sgn
        acc_sharp, acc_th, count = np.zeros(len(self.p3)), np.zeros(len(self.p3)), 0
        if self.steps:
            if kern is not None:
                f, n_eta, den = self.resid
                th = theta_eval(kern, np.array([(f * s + n_eta) / den
                                                for s in range(lo, hi + 1)]))
            n3p3 = self.n3 * self.p3
            # one set of n_fft buffers for every class pair, and one pair of
            # spectra for every class of the side that is not held
            prod, *spectra = (np.empty(self.n_fft // 2 + 1, complex) for _ in range(3))
            raw, cnt, err, wts = (np.empty(self.n_fft) for _ in range(4))
            held = list(self._classes(self.held, w[self.held]))
            outer = self._classes(1 - self.held, w[1 - self.held], spectra)
            for a_ln, a_ones, a_off, a_span, a_at, a_w in outer:
                for b_ln, b_ones, b_off, b_span, b_at, b_w in held:
                    span = a_span + b_span - 1
                    if a_ln is None or b_ln is None:
                        # one class is one prime at place 0: the pair's row
                        # is the other class at its own places, no FFT
                        at, row = (b_at, a_w[0] * b_w) if a_ln is None else (a_at, a_w * b_w[0])
                        cnt[:span] = wts[:span] = 0.0
                        cnt[at], wts[at] = 1.0, row
                    else:
                        np.fft.irfft(np.multiply(a_ones, b_ones, out=prod), self.n_fft, out=raw)
                        np.rint(raw[:span], out=cnt[:span])
                        err_span = np.subtract(raw[:span], cnt[:span], out=err[:span])
                        if float(np.abs(err_span, out=err_span).max()) > self.round_bound:
                            raise NumericError(
                                "an FFT pair count strayed past its rounding bound")
                        np.fft.irfft(np.multiply(a_ln, b_ln, out=prod), self.n_fft, out=wts)
                    d0 = n3p3 + self.g * (a_off + b_off)
                    sig = lo + (d0 - lo) % q_mod      # each p₃'s least σ ≥ lo
                    k = sgn * ((sig - d0) // q_mod)
                    for _ in range(self.steps):
                        hit = np.flatnonzero((sig <= hi) & (k >= 0) & (k < span))
                        c = cnt[k[hit]]
                        v = np.where(c > 0, wts[k[hit]], 0.0)
                        count += int(c.sum())
                        acc_sharp[hit] += v
                        if kern is not None:
                            acc_th[hit] += th[sig[hit] - lo] * v
                        sig = sig + q_mod
                        k = k + sgn
        return (None if w[2] is None else math.fsum(w[2] * acc_sharp), count,
                None if kern is None else acc_th, None)


# -------------------------------------------------------------- the Γ family

def _weights(inst: Instance, table: PrimeTable):
    """The weights (ln p₁, ln p₂, r(p₃−1)·ln p₃) of Γ on the primes of
    (λ₀X, X], which every unmasked slot holds."""
    logs = np.log(_range_primes(inst, table).astype(np.float64))
    r, _ = linnik_rows(table, inst.lambda0 * inst.x, inst.x)
    return logs, logs, r.astype(np.float64) * logs


def _check_kernel(inst: Instance, kern: SmoothingKernel):
    if kern.eps != inst.eps:
        raise DomainError(f"kernel eps {kern.eps} does not match instance eps {inst.eps}")


def gamma_sharp(inst: Instance, table: PrimeTable, threads: int = 1,
                work_budget: int = WORK_BUDGET) -> tuple[float, int]:
    """Sharp-window weighted count Γ and the number of contributing triples."""
    if inst.eps == 0:
        return 0.0, 0
    eng = _oriented_engine(inst, table, work_budget=work_budget, lattice=True)
    gamma, count, _, _ = eng.scan(_weights(inst, table), threads=threads)
    return gamma, count


def gamma_smoothed(inst: Instance, kern: SmoothingKernel, table: PrimeTable,
                   threads: int = 1, work_budget: int = WORK_BUDGET) -> float:
    """Smoothed count Γ₀ = Σ r(p₃−1)·θ(residual)·ln p₁ ln p₂ ln p₃."""
    _check_kernel(inst, kern)
    check_table_budget(kern.k, work_budget)
    eng = _oriented_engine(inst, table, work_budget=work_budget, lattice=True)
    w1, w2, w3 = _weights(inst, table)
    _, _, mass, _ = eng.scan((w1, w2, None), kern, threads)
    return math.fsum(w3 * mass)


def gamma_split(inst: Instance, kern: SmoothingKernel, table: PrimeTable,
                d_split: float, threads: int = 1,
                work_budget: int = WORK_BUDGET) -> GammaBreakdown:
    """Γ₀ split by divisor size at D and X/D, with the exactness self-check."""
    _check_kernel(inst, kern)
    if not 1.0 < d_split < math.sqrt(inst.x):
        raise DomainError(
            f"divisor split needs 1 < D < √X for the small/middle/large "
            f"partition; got D={d_split}, √X={math.sqrt(inst.x):.6g}"
        )
    check_table_budget(kern.k, work_budget)
    eng = _oriented_engine(inst, table, work_budget=work_budget, lattice=True)

    ps = eng.p1          # no slot is masked: every slot holds the same primes
    n3m1 = ps - 1
    cut1, cut2 = _edge(d_split, strict=True), _edge(inst.x / d_split, strict=False)
    a1, a2, a3 = (divisor_sum(n3m1, lo, hi, chi=True)
                  for lo, hi in ((1, cut1), (cut1, cut2), (cut2, int(ps.max()))))
    rvals, _ = linnik_rows(table, inst.lambda0 * inst.x, inst.x)
    lost = np.flatnonzero(4 * (a1 + a2 + a3) != rvals)
    if lost.size:
        raise NumericError(f"divisor split lost mass at p3={ps[lost[0]]}")

    logs = np.log(ps.astype(np.float64))
    gamma, count, mass, _ = eng.scan((logs, logs, rvals * logs), kern, threads)
    # every column is a dot product with the per-p₃ pair mass
    g1, g2, g3, gamma0 = (math.fsum(a * logs * mass) for a in (a1, a2, a3, rvals))

    ident = 4.0 * (g1 + g2 + g3)
    tol = 1e-9 * max(1.0, abs(gamma0))
    if abs(ident - gamma0) > tol:
        raise NumericError(
            f"split identity violated: 4(g1+g2+g3)={ident!r} vs gamma0={gamma0!r}"
        )
    return GammaBreakdown(gamma=gamma, gamma0=gamma0, g1=g1, g2=g2, g3=g3,
                          d=d_split, triple_count=count)


# ------------------------------------------------------------- volume B_J(X)

def _ih_h(u: Fraction, k: int) -> Fraction:
    """H(u) = Σⱼ₌₀ᵏ (−1)ʲ C(k,j)·(u−j)₊ᵏ⁺³/(k+3)!, exactly.

    H is the third antiderivative of the Irwin–Hall CDF.  Past u = k every
    term is live and the sum is the cubic E[(u−T)³]/6 of T ~ Irwin–Hall(k),
    i.e. w³/6 + k·w/24 with w = u − k/2.
    """
    if u <= 0:
        return Fraction(0)
    if u >= k:
        w = u - Fraction(k, 2)
        return w * (4 * w * w + k) / 24
    n, d, p = u.numerator, u.denominator, k + 3
    h = sum((-1) ** j * math.comb(k, j) * (n - j * d) ** p for j in range(n // d + 1))
    return Fraction(h, d ** p * math.factorial(p))


def b_j_volume(inst: Instance, kern: SmoothingKernel, j: tuple[float, float],
               work_budget: int = WORK_BUDGET) -> float:
    """∫_J ∫∫ θ(λ₁y₁ + λ₂y₂ + λ₃y₃ + η) dy₁ dy₂ dy₃ over the (λ₀X, X] box.

    θ(y) = G(u₊) − G(u₋) with u± = (y ± A)/δ + k/2 and G the Irwin–Hall
    CDF, so the third antiderivative of θ from −∞ is
    Θ₃(y) = δ³·(H(u₊) − H(u₋)), H as in `_ih_h`.  Integrating over the box
    [a,b]² × J one coordinate at a time gives the corner formula

        B_J = (λ₁λ₂λ₃)⁻¹ · Σ over the 8 corners c of ±Θ₃(λ·c + η),

    each corner signed by the product of its end signs (− lower, + upper).
    A, δ, the box ends and λ, η (`Instance.floats`) are floats, hence exact
    rationals: the sum runs in `Fraction` and is rounded once, so the result
    is the correctly rounded volume of the float-defined θ.

    A corner inside θ's support sums up to k truncated powers of degree k + 3
    of O(k)-word integers (time grows about like k³), so each such corner is
    charged (k+1)·(k+3)² against work_budget before any power is formed.
    """
    _check_kernel(inst, kern)
    j_lo, j_hi = j
    a_box, b_box = inst.lambda0 * inst.x, inst.x
    if not (a_box <= j_lo < j_hi <= b_box):
        raise DomainError(f"J={j} must sit inside ({a_box:.6g}, {b_box:.6g}]")
    *lams, eta = (Fraction(v) for v in inst.floats)
    ends = [(Fraction(lo), Fraction(hi))
            for lo, hi in ((a_box, b_box), (a_box, b_box), (j_lo, j_hi))]
    k, half_k = kern.k, Fraction(kern.k, 2)
    fa, fd = Fraction(kern.a), Fraction(kern.delta)
    corners = []
    for corner in itertools.product((0, 1), repeat=3):
        y = eta + sum(lam * e[c] for lam, e, c in zip(lams, ends, corner))
        # each lower end flips the corner's sign
        corners.append(((-1) ** corner.count(0),
                        (y + fa) / fd + half_k, (y - fa) / fd + half_k))
    live = sum(0 < u < k for _, up, um in corners for u in (up, um))
    cost = live * (k + 1) * (k + 3) ** 2
    if cost > work_budget:
        raise ResourceError(
            f"volume work {cost:.3e} ({live} of 8 corners inside θ's support, "
            f"k={k}) exceeds the work budget {work_budget:.3e}; lower --k or "
            "raise --work-budget"
        )
    # Θ₃(y)/δ³ = H(u₊) − H(u₋) per corner
    total = sum(sign * (_ih_h(up, k) - _ih_h(um, k)) for sign, up, um in corners)
    return float(total * fd ** 3 / (lams[0] * lams[1] * lams[2]))


# ------------------------------------------------------------- triple finder

def find_triples(inst: Instance, table: PrimeTable,
                 require_linnik: frozenset[int] | set[int] = frozenset({3}),
                 max_results: int = 100, threads: int = 1,
                 work_budget: int = WORK_BUDGET) -> list[TripleWitness]:
    """Concrete triples with |λ₁p₁+λ₂p₂+λ₃p₃+η| < ε, p₃ (optionally p₁,p₂)
    a Linnik prime; sorted by |residual|, ties by (p1,p2,p3).

    Every candidate surviving the float scan is re-verified exactly, in
    the integers of `Instance.lattice`; its stored residual is the exact
    one, correctly rounded.  One `linnik_rows` sweep gives the Linnik mask
    and each printed prime's least x; y = isqrt(p − 1 − x²), and a pair that
    fails 0 ≤ x ≤ y, x² + y² = p − 1 in integers raises NumericError.
    """
    if not require_linnik <= {1, 2, 3}:
        raise DomainError(f"require_linnik must be ⊆ {{1,2,3}}, got {require_linnik}")
    if max_results < 1:
        raise DomainError("max_results must be ≥ 1")
    if not inst.theorem_mode:
        warnings.warn(
            "instance is not in theorem mode (needs mixed coefficient signs "
            "and the irrational-ratio pledge); finder results are exploratory",
            stacklevel=2,
        )
    if inst.eps == 0:
        return []
    base = _range_primes(inst, table)
    if base.size == 0:
        return []
    rvals, wx = linnik_rows(table, inst.lambda0 * inst.x, inst.x)
    linnik_mask = rvals > 0
    if require_linnik and not linnik_mask.any():
        return []
    masks = tuple(linnik_mask if i in require_linnik else None for i in (1, 2, 3))
    eng = _oriented_engine(inst, table, masks, work_budget)
    _, _, _, (p1h, p2h, p3h, res) = eng.scan((None,) * 3, threads=threads, collect=True)
    if len(res) == 0:
        return []
    order = np.lexsort((p3h, p2h, p1h, np.abs(res)))

    den, n1, n2, n3, n_eta, n_eps = inst.lattice
    kept, resid = [], []
    for idx in order:
        if len(kept) >= max_results:
            break
        r = n1 * int(p1h[idx]) + n2 * int(p2h[idx]) + n3 * int(p3h[idx]) + n_eta
        if abs(r) < n_eps:
            kept.append(idx)
            resid.append(r)
    slots = (p1h[kept], p2h[kept], p3h[kept])

    def witness(p: int, x: int) -> tuple[int, int] | None:
        # the sweep's x for p, checked in integers; None where p is not Linnik
        y = math.isqrt(max(p - 1 - x * x, 0))
        if x != -1 and not (0 <= x <= y and x * x + y * y == p - 1):
            raise NumericError(f"row sweep gave p={p} the witness x={x}")
        return None if x == -1 else (x, y)

    # every slot draws its primes from base, so a prime's x is wx at its index
    wits = [[witness(p, x) for p, x in
             zip(s.tolist(), wx[np.searchsorted(base, s)].tolist())]
            if i in require_linnik | {3} else [None] * len(kept)
            for i, s in enumerate(slots, 1)]
    return [
        TripleWitness(p1=q1, p2=q2, p3=q3, x=x, y=y,
                      residual=r / den,     # int true division rounds correctly
                      witness1=w1, witness2=w2)
        for q1, q2, q3, r, w1, w2, (x, y) in zip(
            *(c.tolist() for c in slots), resid, wits[0], wits[1],
            (w or (-1, -1) for w in wits[2]))
    ]


# ------------------------------------------------------- divisor statistics

def _edge(t: float, strict: bool) -> int:
    """The least integer d > t (``strict``) or d ≥ t: d ≤ t ⇔ d < _edge(t, True)
    and d < t ⇔ d < _edge(t, False), like the float compare for d < 2⁵³."""
    return math.floor(t) + 1 if strict else math.ceil(t)


def hooley_sigma_prime(table: PrimeTable, x: float, d_split: float,
                       lambda0: float = 0.0) -> int:
    """Σ over λ₀X < p ≤ X of (Σ_{d|p−1, D<d<X/D} χ(d))² — exact integer."""
    if not 1.0 < d_split < math.sqrt(x):
        raise DomainError(f"need 1 < D < √X, got D={d_split}")
    if not 0.0 <= lambda0 < 1.0:
        raise DomainError("lambda0 must lie in [0,1)")
    ps = table.primes[table.prime_slice(lambda0 * x, x)]
    sums = divisor_sum(ps - 1, _edge(d_split, strict=True),
                       _edge(x / d_split, strict=False), chi=True)
    return int(np.sum(sums * sums))


def hooley_f_omega(table: PrimeTable, x: float, omega: float) -> int:
    """Count primes p ≤ X whose p−1 has a divisor in (√X·ln⁻ᵂX, √X·lnᵂX)."""
    if not 0 < omega < math.inf:
        raise DomainError(f"omega must be positive and finite, got {omega}")
    if not x > 1.0:
        raise DomainError(f"X must exceed 1, got {x}")
    lx = math.log(x)
    try:
        lo = math.sqrt(x) * lx ** (-omega)
        hi = math.sqrt(x) * lx ** omega
    except OverflowError:
        raise DomainError(f"(ln X)^omega overflows at omega={omega}") from None
    ps = table.primes[: table.prime_count(x)]
    hits = divisor_sum(ps - 1, _edge(lo, strict=True), _edge(hi, strict=False),
                       chi=False)
    return int(np.count_nonzero(hits))
