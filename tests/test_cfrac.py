import math
import sys
from fractions import Fraction

import mpmath
import pytest

from linniklab import cfrac
from linniklab.cfrac import (
    CertifiedReal,
    Convergent,
    certified_decimal,
    certified_named,
    convergents,
    convergents_from_terms,
    named_cf_terms,
    verify_eq1,
)
from linniklab.errors import DomainError, PrecisionError, ResourceError


def test_interval_extraction_matches_cf_patterns():
    # oracle: classical periodic/patterned partial quotients folded through
    # the standard recurrence, vs. the interval Gauss-map extraction
    for name in ("sqrt2", "sqrt3", "phi", "e"):
        want = convergents_from_terms(named_cf_terms(name), 12)
        run = convergents(certified_named(name), 12)
        assert len(run) == 12
        assert [(c.a, c.q, c.index) for c in run] == [
            (c.a, c.q, c.index) for c in want
        ]


@pytest.mark.parametrize("name, length", [("sqrt2", 103), ("sqrt3", 138),
                                          ("phi", 188), ("e", 72)])
def test_certified_run_is_a_prefix_of_the_pattern(name, length):
    # the whole certified run, up to where the 296-bit interval stops
    # certifying, against the classical expansion
    run = convergents(certified_named(name), 1000)
    assert len(run) == length
    assert run == convergents_from_terms(named_cf_terms(name), length)


def test_sqrt2_known_prefix():
    run = convergents(certified_named("sqrt2"), 5)
    assert [(c.a, c.q) for c in run] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]


def test_phi_fibonacci_ratios():
    run = convergents(certified_named("phi"), 10)
    fib = [1, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    # convergents of [1; 1, 1, ...] are ratios of consecutive Fibonacci numbers
    assert [(c.a, c.q) for c in run] == [(fib[k + 1], fib[k]) for k in range(10)]


def test_sign_alternation():
    for name in ("sqrt2", "e"):
        x = certified_named(name).value
        run = convergents(certified_named(name), 10)
        signs = [1 if x > Fraction(c.a, c.q) else -1 for c in run]
        for s0, s1 in zip(signs, signs[1:]):
            assert s0 == -s1


def test_sqrt2_best_approximations_up_to_29():
    # each convergent beats every other fraction with denominator ≤ its own;
    # exhaustive scan over q' ≤ 29 in exact rational arithmetic
    x = certified_named("sqrt2").value
    run = convergents(certified_named("sqrt2"), 5)
    for c in run:
        best = abs(x - Fraction(c.a, c.q))
        for qp in range(1, c.q + 1):
            pp = math.floor(x * qp + Fraction(1, 2))
            for cand in (pp - 1, pp, pp + 1):
                if (cand, qp) == (c.a, c.q) or qp * c.a == cand * c.q:
                    continue
                assert abs(x - Fraction(cand, qp)) > best


def test_rational_termination():
    run = convergents(certified_decimal("355/113"), 10)
    assert [(c.a, c.q) for c in run] == [(3, 1), (22, 7), (355, 113)]
    run32 = convergents(certified_decimal("3/2"), 10)
    assert [(c.a, c.q) for c in run32] == [(1, 1), (3, 2)]


def test_precision_exhausted_wide_interval():
    run = convergents(certified_decimal("1.5±0.2"), 10)
    assert len(run) == 1 and (run[0].a, run[0].q) == (1, 1)


def test_uncertified_convergent_is_not_emitted(monkeypatch):
    # a wrong partial quotient fails verify_eq1, so the run stops before it
    monkeypatch.setattr(cfrac, "_shared_terms", lambda lo, hi: iter([1, 2, 2, 10, 2]))
    run = convergents(certified_named("sqrt2"), 10)
    assert [(c.a, c.q) for c in run] == [(1, 1), (3, 2), (7, 5)]


def test_first_term_undetermined_raises():
    with pytest.raises(PrecisionError):
        convergents(certified_decimal("0.5±0.6"), 4)


def test_emitted_convergents_satisfy_interval_inequality():
    # the run re-checks |x − a/q| < 1/q² over the whole interval before
    # emitting; verify_eq1 must agree, including for a negative number
    for name in ("sqrt2", "-sqrt2", "sqrt3"):
        x = certified_named(name)
        for c in convergents(x, 8):
            rep = verify_eq1(x, c)
            assert rep["ok"] is True
            assert rep["lhs"] < rep["rhs"] == 1.0 / c.q**2


def test_verify_eq1_values():
    x = certified_named("sqrt2")
    rep = verify_eq1(x, Convergent(a=3, q=2, index=1))
    assert abs(rep["lhs"] - abs(math.sqrt(2) - 1.5)) < 1e-12
    assert rep["rhs"] == 0.25 and rep["ok"] is True
    exact = certified_decimal("22/7")
    rep0 = verify_eq1(exact, Convergent(a=22, q=7, index=2))
    assert rep0["lhs"] == 0.0 and rep0["ok"] is True
    # non-convergent fails the inequality
    bad = verify_eq1(x, Convergent(a=1, q=3, index=0))
    assert bad["ok"] is False


def test_determinism():
    a = convergents(certified_named("e"), 12)
    b = convergents(certified_named("e"), 12)
    assert [(c.a, c.q) for c in a] == [(c.a, c.q) for c in b]


def test_certified_named_is_mpmath_rounding_at_296_bits():
    # oracle: mpmath's round-to-nearest values at 296 bits, read exactly
    def exact(v):
        man, exp = v.man_exp
        return Fraction(int(man)) * Fraction(2) ** int(exp)

    with mpmath.workprec(296):
        oracle = {"sqrt2": mpmath.sqrt(2), "sqrt3": mpmath.sqrt(3),
                  "phi": (1 + mpmath.sqrt(5)) / 2, "e": mpmath.e + 0}
    for key, v in oracle.items():
        for sign, name in ((1, key), (-1, "-" + key)):
            got = certified_named(name)
            assert got.value == sign * exact(v), name
            assert got.abs_error == (abs(got.value) + 1) / 2 ** 264


def test_decimal_exponent_bounded_before_the_fraction_is_built():
    assert certified_decimal("1e-4300").value == Fraction(1, 10 ** 4300)
    assert certified_decimal("2.5E+3±1e-2").value == 2500
    for text in ("1e4301", "1e-1000000000", "1±1e-5000", "1E+1_0000"):
        with pytest.raises(DomainError, match="exponent"):
            certified_decimal(text)


def test_pattern_convergents_stop_before_unprintable_digits():
    # √2's numerators 1, 3, 7, 17, …: index n is the first past 640 digits
    h, h_prev, n = 1, 1, 0
    while h < 10 ** 640:
        h, h_prev, n = 2 * h + h_prev, h, n + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        convs = convergents_from_terms(named_cf_terms("sqrt2"), n)
        assert len(str(convs[-1].a)) == 640
        for count in (n + 1, 10 ** 9):
            with pytest.raises(ResourceError, match=f"convergent {n} "):
                convergents_from_terms(named_cf_terms("sqrt2"), count)
    finally:
        sys.set_int_max_str_digits(limit)


def test_certified_value_types_plain_int():
    # the value holds plain ints, so Fraction-Fraction arithmetic works
    x = certified_named("sqrt2")
    assert type(x.value.numerator) is int
    assert type(x.value.denominator) is int
    assert (x.value - Fraction(3, 2)) < 0  # Fraction-Fraction arithmetic works


def test_certified_real_validation():
    with pytest.raises(DomainError):
        CertifiedReal(value=Fraction(1), abs_error=Fraction(-1, 10))
    with pytest.raises(DomainError):
        certified_named("pi")
    with pytest.raises(DomainError):
        certified_decimal("abc")
    with pytest.raises(DomainError):
        convergents(certified_named("sqrt2"), 0)
    with pytest.raises(DomainError):
        Convergent(a=4, q=2, index=0)   # not in lowest terms


def test_recurrence_convergents_are_in_lowest_terms():
    # built without the gcd of Convergent.__post_init__: the determinant
    # h_n k_{n−1} − h_{n−1} k_n = (−1)^{n+1} certifies them instead
    for name in ("sqrt2", "sqrt3", "phi", "e"):
        run = convergents_from_terms(named_cf_terms(name), 400)
        for prev, c in zip(run, run[1:]):
            assert c.a * prev.q - prev.a * c.q == (-1) ** (c.index + 1)
        for c in run:
            assert c.q >= 1 and math.gcd(c.a, c.q) == 1
            assert c == Convergent(a=c.a, q=c.q, index=c.index)
    # a term ≤ 0 after a₀ can give k_n ≤ 0, which is still refused
    with pytest.raises(DomainError):
        convergents_from_terms(iter([1, 0, 0]), 3)
    with pytest.raises(TypeError):
        convergents_from_terms(iter([1, 2.0]), 2)
