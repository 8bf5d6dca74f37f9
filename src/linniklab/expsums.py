"""Prime exponential sums, their integral analogue, and error-term scans.

The weighted sum over a half-open range J = (lo, hi] in residue class
l mod d is

    S(α) = Σ_{p ∈ J, p ≡ l (mod d)} e(αp)·ln p,     e(t) = exp(2πi t),

and its continuous counterpart is I(α) = ∫_J e(αy) dy.  The only numerical
hazard is the phase: αp can reach 1e13 while e(αp) only depends on
αp mod 1, so the product is evaluated with a two-product (Dekker) split
that recovers the rounding error of α·p exactly and folds it back in after
reduction.  The reduced phase is then correct to a couple of ulps
regardless of the size of αp.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import PRIME_BLOCK, WORK_BUDGET, PrimeTable, euler_phi
from .errors import DomainError, ResourceError

_SPLITTER = 134217729.0   # 2**27 + 1, Dekker's constant for binary64
_INT64_MAX = 2**63 - 1     # moduli are reduced against int64 primes


def _two_prod(a, b):
    """p, err with a·b = p + err exactly (no fma in the 3.10 stdlib)."""
    p = a * b
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def phase_mod1(alpha: float, y):
    """(α·y) mod 1 in [0,1), exact reduction of the double product.

    Each reduction is x − ⌊x⌋: the floor is exact and the difference is one
    rounding of the exact x mod 1, the value that ``np.mod(x, 1.0)`` also
    rounds once, so the two agree bit for bit (±0, integers, negative x, inf
    and NaN included) without the cost of ``fmod``.
    """
    p, err = _two_prod(np.float64(alpha), np.asarray(y, dtype=np.float64))
    r = p - np.floor(p) + err
    return r - np.floor(r)


def s_ld(table: PrimeTable, l: int, d: int, j: tuple[float, float],
         alpha: float) -> complex:
    """Σ e(αp)·ln p over primes p in (lo, hi] with p ≡ l (mod d)."""
    if not 1 <= d <= _INT64_MAX:
        raise DomainError(f"modulus must lie in [1, 2⁶³ − 1], got {d}")
    if math.gcd(l, d) != 1:
        raise DomainError(f"need gcd(l,d)=1, got l={l}, d={d}")
    lo, hi = j
    if not lo < hi:
        raise DomainError(f"empty range J=({lo}, {hi}]")
    if not math.isfinite(alpha):
        raise DomainError(f"α must be finite, got {alpha}")
    ps = table.primes[table.prime_slice(lo, hi)]
    if d > 1:
        ps = ps[np.mod(ps, d) == l % d]
    if ps.size == 0:
        return 0.0 + 0.0j
    # the phases and logs live per block; the weighted cos and sin fill two
    # full-length columns, which are summed whole, so every element and the
    # pairwise sum are those of the unblocked expression
    re, im = np.empty(ps.size), np.empty(ps.size)
    for i in range(0, ps.size, PRIME_BLOCK):
        blk = slice(i, i + PRIME_BLOCK)
        ang = (2.0 * math.pi) * phase_mod1(alpha, ps[blk])
        w = np.log(ps[blk].astype(np.float64))
        np.cos(ang, out=re[blk])
        np.sin(ang, out=im[blk])
        re[blk] *= w
        im[blk] *= w
    return complex(float(np.sum(re)), float(np.sum(im)))


def i_j(j: tuple[float, float], alpha: float) -> complex:
    """∫_J e(αy) dy = |J|·sinc(α|J|)·e(α·mid), cancellation-free.

    The difference-of-endpoints form loses all precision when α|J| is a
    near-integer; the product form never subtracts close quantities.
    """
    lo, hi = j
    if not lo < hi:
        raise DomainError(f"empty range J=({lo}, {hi}]")
    if not math.isfinite(alpha):
        raise DomainError(f"α must be finite, got {alpha}")
    length = hi - lo
    mid = 0.5 * (lo + hi)
    if abs(alpha) * length < 1e-12:
        z = math.pi * alpha * length
        mag = length * (1.0 - z * z / 6.0)
    else:
        # sin(πα|J|) via exact mod-2 reduction of α|J|
        m1 = float(phase_mod1(0.5 * alpha, length))
        mag = math.sin(2.0 * math.pi * m1) / (math.pi * alpha)
    ph = 2.0 * math.pi * float(phase_mod1(alpha, mid))
    return mag * complex(math.cos(ph), math.sin(ph))


def e_term(table: PrimeTable, x: float, q: int, a: int) -> float:
    """E(x;q,a) = Σ_{p ≤ x, p ≡ a (q)} ln p − x/φ(q), the progression error.

    E is defined for every q ≥ 1, but q may not exceed the table limit X:
    φ(q) comes from ``euler_phi``, trial division to √q in Python, so the
    bound caps it at √X steps, where a q near 2⁶³ would take about 3e9.
    """
    if not 1 <= q <= table.limit:
        raise DomainError(f"modulus q={q} must lie in [1, {table.limit}]")
    if math.gcd(a, q) != 1:
        raise DomainError(f"need gcd(a,q)=1, got a={a}, q={q}")
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    ps = table.primes[:table.prime_count(x)]
    if q > 1:
        ps = ps[np.mod(ps, q) == a % q]
    return float(np.sum(np.log(ps.astype(np.float64)))) - x / euler_phi(q, table)


def bv_aggregate(table: PrimeTable, x: float, q_max: int,
                 work_budget: int = WORK_BUDGET) -> float:
    """Σ_{q ≤ Q} max_{gcd(a,q)=1} max_{y ≤ X} |E(y;q,a)|, evaluated exactly.

    |E(y;q,a)| is piecewise linear in y with jumps only at primes, so the
    inner sup is attained at a prime (approached from either side) or at
    y = X; those O(π(X)) candidates are scanned in full.
    """
    if not 0 <= q_max <= table.limit:
        raise DomainError(f"modulus bound Q={q_max} must lie in [0, {table.limit}]")
    if x <= 0:
        raise DomainError(f"X must be positive, got {x}")
    n = table.prime_count(x)
    if q_max == 0:
        return 0.0
    if q_max * n > work_budget:
        raise ResourceError(
            f"Q·π(X) = {q_max * n:.3e} exceeds the work budget "
            f"{work_budget:.3e}; raise --work-budget"
        )
    ps = table.primes[:n]
    psf = ps.astype(np.float64)
    ws = np.log(psf)
    total = 0.0
    for q in range(1, q_max + 1):
        best = 0.0
        phi = euler_phi(q, table)
        # each residue class is a slice of one stable sort, in prime order;
        # in the narrowest unsigned type, a q ≤ 2¹⁶ sorts by radix
        res = np.mod(ps, q).astype(np.min_scalar_type(q - 1))
        order = np.argsort(res, kind="stable")
        cuts = np.searchsorted(res[order], np.arange(q + 1)).tolist()
        pq, wq = psf[order], ws[order]
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            lo, hi = cuts[a % q], cuts[a % q + 1]
            pr, wr = pq[lo:hi], wq[lo:hi]
            s = np.zeros(len(wr) + 1)
            np.cumsum(wr, out=s[1:])
            cand = abs(s[-1] - x / phi)
            if len(pr):
                drift = pr / phi
                cand = max(cand,
                           float(np.max(np.abs(s[:-1] - drift))),
                           float(np.max(np.abs(s[1:] - drift))))
            best = max(best, cand)
        total += best
    return total


def major_arc_gap(table: PrimeTable, x: float, alpha: float,
                  lambda0: float = 0.5, delta: float | None = None,
                  j: tuple[float, float] | None = None, l: int = 1, d: int = 1) -> dict:
    """Compare S(α) over l mod d to I(α) on J, by default (λ₀X, X]: the
    major-arc gap |S − I|/X.

    delta, when given, is the major-arc radius of the active schedule; the
    report flags |α| > delta but never raises for it.
    """
    if not x > 0:
        raise DomainError(f"X must be positive, got {x}")
    if j is None:
        if not 0.0 < lambda0 < 1.0:
            raise DomainError("lambda0 must lie in (0,1)")
        j = (lambda0 * x, x)
    s = s_ld(table, l, d, j, alpha)
    i = i_j(j, alpha)
    return {
        "s": s,
        "i": i,
        "gap_over_x": abs(s - i) / x,
        "alpha_exceeds_delta": (None if delta is None else bool(abs(alpha) > delta)),
    }


def minor_arc_report(table: PrimeTable, x: float, a: int, q: int,
                     alpha: float) -> dict:
    """|S(α)| against the classical minor-arc ceiling for α near a/q.

    The ceiling (X·q^{-1/2} + X^{4/5} + X^{1/2}·q^{1/2})·ln⁴X is reported
    for orientation only — it is not asserted, since it is an upper bound
    with an unspecified constant.
    """
    if q < 1:
        raise DomainError(f"q must be ≥ 1, got {q}")
    if a == 0:
        raise DomainError("a must be a nonzero integer (α near 0 is major-arc)")
    if math.gcd(abs(a), q) != 1:
        raise DomainError(f"need gcd(a,q)=1, got a={a}, q={q}")
    if x <= 1:
        raise DomainError(f"X must exceed 1, got {x}")
    if abs(alpha - a / q) > 1.0 / (q * q):
        raise DomainError(
            f"α={alpha!r} is not within 1/q² of a/q = {a}/{q}"
        )
    s = s_ld(table, 1, 1, (0.0, x), alpha)
    lx = math.log(x)
    bound = (x / math.sqrt(q) + x ** 0.8 + math.sqrt(x * q)) * lx ** 4
    return {"s_abs": abs(s), "bound": bound, "ratio": abs(s) / bound,
            "a": a, "q": q, "alpha": alpha}
