"""Certified continued-fraction convergents.

The ratio of the first two coefficients of a ternary form is the quantity
whose rational approximations drive the whole construction: each convergent
a/q with |x − a/q| < 1/q² selects a working scale X through q² = X/(ln X)²².

A number is represented as a certified interval [value − abs_error,
value + abs_error] held in exact rational arithmetic.  Convergents fold the
partial quotients that the Gauss map gives on both ends of the interval while
both ends agree on them.  A prefix shared by both ends is shared by every
point between them (Khinchin, *Continued Fractions*, §1–2), so every emitted
convergent is a true convergent of *every* point of the interval — no silent
float drift can fabricate terms.  The approximation inequality is re-checked
against the whole interval before a convergent is emitted.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, PrecisionError, ResourceError

_BITS = 296        # significant bits of a named constant's value
_ERR_BITS = 264    # its claimed error is (|value| + 1)/2^_ERR_BITS

NAMED = {"sqrt2", "sqrt3", "phi", "e"}


@dataclass(frozen=True)
class CertifiedReal:
    """Exact rational interval [value − abs_error, value + abs_error]."""

    value: Fraction
    abs_error: Fraction

    def __post_init__(self):
        if self.abs_error < 0:
            raise DomainError("abs_error must be ≥ 0")

    @property
    def lo(self) -> Fraction:
        return self.value - self.abs_error

    @property
    def hi(self) -> Fraction:
        return self.value + self.abs_error


@dataclass(frozen=True)
class Convergent:
    a: int      # numerator, may be negative
    q: int      # denominator ≥ 1
    index: int  # position in the expansion, 0-based

    def __post_init__(self):
        if self.q < 1 or math.gcd(abs(self.a), self.q) != 1:
            raise DomainError(f"convergent {self.a}/{self.q} not in lowest terms")


def _digit_limit() -> int:
    """Most decimal digits an int may have for int↔str conversion."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def certified_named(name: str) -> CertifiedReal:
    """√2, √3, the golden ratio, or e (optionally signed) as a certified
    interval about its value rounded to nearest at _BITS significant bits."""
    key = name.lstrip("+-")
    if key not in NAMED:
        raise DomainError(f"unknown named constant {name!r}; known: {sorted(NAMED)}")
    f = _BITS - 1                       # fraction bits of a value in [1, 2)
    if key == "e":                      # e ∈ [2, 4): Σ 1/k!, 64 guard bits
        term, total, k = 1 << f - 1 + 64, 0, 0
        while term:
            total, k = total + term, k + 1
            term //= k
        val = Fraction((total + (1 << 63)) >> 64, 1 << f - 1)
    else:                               # round(√n·2^m) = ⌊(⌊√(4n·4^m)⌋ + 1)/2⌋
        n, m = {"sqrt2": (2, f), "sqrt3": (3, f), "phi": (5, f - 1)}[key]
        val = Fraction((math.isqrt(n << 2 * m + 2) + 1) >> 1, 1 << m)
        if key == "phi":                # √5 ∈ [2, 4); 1 + √5 < 4 loses no bit
            val = (1 + val) / 2
    if name.startswith("-"):
        val = -val
    # rounded once at _BITS bits; claim a far cruder bound
    err = (abs(val) + 1) * Fraction(1, 2 ** _ERR_BITS)
    return CertifiedReal(value=val, abs_error=err)


def certified_decimal(text: str) -> CertifiedReal:
    """Parse 'decimal' or 'decimal±err' into an exact certified interval."""
    if "±" in text:
        v, e = text.split("±", 1)
    elif "+-" in text:
        v, e = text.split("+-", 1)
    else:
        v, e = text, "0"
    limit = _digit_limit()
    for part in (v, e):
        # an exponent of 10⁹ would have Fraction build 10^(10⁹)
        _, sep, exp = part.lower().rpartition("e")
        try:
            too_big = bool(sep) and abs(int(exp)) > limit
        except ValueError:      # not an exponent; Fraction rejects or reads it
            continue
        if too_big:
            raise DomainError(f"exponent of {part.strip()!r} exceeds {limit} in magnitude")
    try:
        return CertifiedReal(value=Fraction(v.strip()), abs_error=Fraction(e.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse certified real {text!r}: {exc}") from None


def named_cf_terms(name: str) -> Iterator[int]:
    """Exact partial quotients of the four named constants (classical patterns)."""
    if name == "sqrt2":            # [1; 2, 2, 2, …]
        yield 1
        while True:
            yield 2
    elif name == "sqrt3":          # [1; 1, 2, 1, 2, …]
        yield 1
        while True:
            yield 1
            yield 2
    elif name == "phi":            # [1; 1, 1, …]
        while True:
            yield 1
    elif name == "e":              # [2; 1, 2, 1, 1, 4, 1, 1, 6, …]
        yield 2
        m = 1
        while True:
            yield 1
            yield 2 * m
            yield 1
            m += 1
    else:
        raise DomainError(f"no CF pattern for {name!r}")


def _fold(terms: Iterable[int]) -> Iterator[Convergent]:
    """The convergents h_n/k_n of the integer partial quotients a₀, a₁, …,
    lazily: h_n = a_n h_{n−1} + h_{n−2}, and k_n alike.

    Each step multiplies [[h_n, h_{n−1}], [k_n, k_{n−1}]] by [[a, 1], [1, 0]],
    of determinant −1, so h_n k_{n−1} − h_{n−1} k_n = (−1)^{n+1} and every
    common divisor of h_n and k_n divides 1: the pair is in lowest terms, and
    the Convergent is built without ``__post_init__``'s gcd, which costs
    quadratic time in the digits.  k_n ≥ 1 is still checked, since a term ≤ 0
    after a₀ can break it.  Raises ResourceError once h_n or k_n has more
    digits than int→str allows."""
    bound = 10 ** _digit_limit()
    h1, h2 = 1, 0
    k1, k2 = 0, 1
    for idx, a in enumerate(terms):
        a = operator.index(a)
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        if abs(h1) >= bound or k1 >= bound:
            raise ResourceError(f"convergent {idx} has more than {_digit_limit()} "
                                "digits; lower --count")
        if k1 < 1:
            raise DomainError(f"convergent {h1}/{k1} not in lowest terms")
        conv = object.__new__(Convergent)
        conv.__dict__.update(a=h1, q=k1, index=idx)
        yield conv


def _shared_terms(lo: Fraction, hi: Fraction) -> Iterator[int]:
    """The partial quotients lo ≤ hi share, by the Gauss map on both: up to
    where their floors differ, or to lo on an integer (next one unbounded;
    hi on one is then lo = hi)."""
    while (a := math.floor(lo)) == math.floor(hi):
        yield a
        if lo == a:
            return
        lo, hi = 1 / (hi - a), 1 / (lo - a)


def convergents_from_terms(terms: Iterator[int], count: int) -> list[Convergent]:
    """The first count convergents of terms; raises ResourceError as _fold
    does."""
    return list(itertools.islice(_fold(terms), count))


def convergents(x: CertifiedReal, max_count: int) -> list[Convergent]:
    """At most max_count convergents of the partial quotients both ends of x
    share, up to the first that verify_eq1 does not certify.  Raises
    PrecisionError when even a₀ is ambiguous (a₀/1 always certifies), and
    ResourceError as _fold does."""
    if max_count < 1:
        raise DomainError(f"max_count must be ≥ 1, got {max_count}")
    convs = itertools.islice(_fold(_shared_terms(x.lo, x.hi)), max_count)
    run = list(itertools.takewhile(lambda c: verify_eq1(x, c)["ok"], convs))
    if not run:
        raise PrecisionError("interval too wide: first partial quotient undetermined")
    return run


def verify_eq1(x: CertifiedReal, c: Convergent) -> dict:
    """Check |x − a/q| < 1/q² against the whole certified interval.

    "lhs" and "rhs" are floats, which underflow once q passes about 1e154;
    "q2_lhs" is q²·lhs exactly.
    """
    conv = Fraction(c.a, c.q)
    lhs = max(abs(x.lo - conv), abs(x.hi - conv))
    rhs = Fraction(1, c.q * c.q)
    return {"lhs": float(lhs), "rhs": float(rhs), "q2_lhs": lhs * c.q * c.q,
            "ok": lhs < rhs}
