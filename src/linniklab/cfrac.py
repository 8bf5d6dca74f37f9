"""Certified continued-fraction convergents.

The ratio of the first two coefficients of a ternary form is the quantity
whose rational approximations drive the whole construction: each convergent
a/q with |x − a/q| < 1/q² selects a working scale X through q² = X/(ln X)²².

A number is represented as a certified interval [value − abs_error,
value + abs_error] held in exact rational arithmetic.  Convergents are
extracted by running the Gauss map on the interval and emitting a partial
quotient only while both endpoints agree on its floor, so every emitted
convergent is a true convergent of *every* point of the interval — no silent
float drift can fabricate terms.  The approximation inequality is re-checked
against the whole interval before a convergent is emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import mpmath

from .errors import DomainError, PrecisionError

DEFAULT_PREC_BITS = 256

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


@dataclass
class ConvergentRun:
    """Emitted convergents plus how the extraction stopped."""

    convergents: list[Convergent]
    terminated_rational: bool = False   # interval was one exact rational, fully expanded
    precision_exhausted: bool = False   # interval stopped determining the next term

    def __iter__(self) -> Iterator[Convergent]:
        return iter(self.convergents)

    def __len__(self) -> int:
        return len(self.convergents)

    def __getitem__(self, i):
        return self.convergents[i]


def _mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    # int() everywhere: with a gmpy2-backed mpmath the mantissa/exponent are
    # gmpy2.mpz, and Fractions holding mpz break Fraction-Fraction arithmetic
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)
    if man == 0:
        return Fraction(0)
    f = Fraction(man) * (Fraction(2) ** exp)
    return -f if sign else f


def certified_named(name: str, prec_bits: int = DEFAULT_PREC_BITS) -> CertifiedReal:
    """√2, √3, the golden ratio, or e as a certified interval at prec_bits."""
    key = name.lstrip("+-")
    if key not in NAMED:
        raise DomainError(f"unknown named constant {name!r}; known: {sorted(NAMED)}")
    negative = name.startswith("-")
    with mpmath.workprec(prec_bits + 40):
        if key == "sqrt2":
            v = mpmath.sqrt(2)
        elif key == "sqrt3":
            v = mpmath.sqrt(3)
        elif key == "phi":
            v = (1 + mpmath.sqrt(5)) / 2
        else:
            v = mpmath.e + 0
    val = _mpf_to_fraction(v)
    if negative:
        val = -val
    # computed to prec_bits+40 with ≤ 2 roundings; claim a far cruder bound
    err = (abs(val) + 1) * Fraction(1, 2 ** (prec_bits + 8))
    return CertifiedReal(value=val, abs_error=err)


def certified_decimal(text: str) -> CertifiedReal:
    """Parse 'decimal' or 'decimal±err' into an exact certified interval."""
    if "±" in text:
        v, e = text.split("±", 1)
    elif "+-" in text:
        v, e = text.split("+-", 1)
    else:
        v, e = text, "0"
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


def convergents_from_terms(terms: Iterator[int], count: int) -> list[Convergent]:
    """Fold partial quotients through the standard recurrence h_k = a_k h_{k−1} + h_{k−2}."""
    h1, h2 = 1, 0
    k1, k2 = 0, 1
    out: list[Convergent] = []
    for idx, a in enumerate(terms):
        if idx >= count:
            break
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        out.append(Convergent(a=h1, q=k1, index=idx))
    return out


def convergents(x: CertifiedReal, max_count: int) -> ConvergentRun:
    """Certified convergents of x, at most max_count of them.

    Stops with terminated_rational when the interval is a single rational that
    has been fully expanded, and with precision_exhausted when the interval no
    longer pins down the next partial quotient.  Raises PrecisionError only
    when even the first quotient is ambiguous.
    """
    if max_count < 1:
        raise DomainError(f"max_count must be ≥ 1, got {max_count}")
    lo, hi = x.lo, x.hi
    exact = x.abs_error == 0
    h1, h2 = 1, 0
    k1, k2 = 0, 1
    run = ConvergentRun(convergents=[])
    for idx in range(max_count):
        a_lo = math.floor(lo)
        if a_lo != math.floor(hi):
            if idx == 0:
                raise PrecisionError(
                    "interval too wide: first partial quotient undetermined"
                )
            run.precision_exhausted = True
            return run
        a = a_lo
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        conv = Fraction(h1, k1)
        sup = max(abs(x.lo - conv), abs(x.hi - conv))
        if not sup < Fraction(1, k1 * k1):
            # cannot certify |x − a/q| < 1/q² for the whole interval
            run.precision_exhausted = True
            return run
        run.convergents.append(Convergent(a=h1, q=k1, index=idx))
        flo, fhi = lo - a, hi - a
        if exact and flo == 0:
            run.terminated_rational = True
            return run
        if flo == 0 or fhi == 0:
            # an endpoint sits on an integer: next quotient unbounded
            run.precision_exhausted = True
            return run
        lo, hi = 1 / fhi, 1 / flo
    return run


def verify_eq1(x: CertifiedReal, c: Convergent) -> dict:
    """Check |x − a/q| < 1/q² against the whole certified interval."""
    if c.q < 1:
        raise DomainError("convergent denominator must be ≥ 1")
    conv = Fraction(c.a, c.q)
    lhs = max(abs(x.lo - conv), abs(x.hi - conv))
    rhs = Fraction(1, c.q * c.q)
    return {"lhs": float(lhs), "rhs": float(rhs), "ok": lhs < rhs}

