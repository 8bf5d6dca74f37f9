import math

import mpmath
import pytest

from linniklab.errors import DomainError
from linniklab.schedule import (
    THETA0,
    desk_schedule,
    eps_positivity_report,
    paper_schedule,
)


def test_theta0_value():
    # 1/2 - (1/4)*e*ln 2, against a 60-digit evaluation
    with mpmath.workdps(60):
        ref = mpmath.mpf(1) / 2 - mpmath.e * mpmath.log(2) / 4
        assert abs(THETA0 - float(ref)) < 1e-15
    # leading digits 0.0289... (truncated, not rounded)
    assert f"{THETA0:.6f}".startswith("0.0289")
    assert 0.0289 < THETA0 < 0.0290


def test_paper_schedule_defining_equations():
    # each printed field satisfies its defining formula to 1e-12 relative, in
    # log space
    for x in (1e3, 1e6, 1e12, 1e100):
        s = paper_schedule(x)
        assert s.mode == "paper"
        lx = math.log(x)
        llx = math.log(lx)
        log_q0_sq, log_d, log_delta, log_eps, log_h = (
            math.log(v) for v in (s.q0_sq, s.d, s.delta, s.eps, s.h))
        assert abs(log_q0_sq - (lx - 22 * llx)) <= 1e-12 * max(1, abs(log_q0_sq))
        assert abs(log_d - (lx / 2 - 52 * llx)) <= 1e-12 * max(1, abs(log_d))
        assert abs(log_delta - (23 * llx - lx)) <= 1e-12 * max(1, abs(log_delta))
        want_eps = 7 * math.log(llx) - THETA0 * llx
        assert abs(log_eps - want_eps) <= 1e-12 * max(1, abs(want_eps))
        # Delta * X / (ln X)^23 == 1, as a log-space identity
        assert abs(log_delta + lx - 23 * llx) <= 1e-9
        # H = (ln X)^2 / eps
        assert abs(log_h - (2 * llx - log_eps)) <= 1e-12 * max(1, abs(log_h))


def test_paper_eps_against_mpmath_oracle():
    # spec-scale value at X = 1e6, high-precision independent evaluation
    with mpmath.workdps(50):
        lx = mpmath.log(mpmath.mpf(10) ** 6)
        llx = mpmath.log(lx)
        th = mpmath.mpf(1) / 2 - mpmath.e * mpmath.log(2) / 4
        ref = llx**7 / lx**th
    s = paper_schedule(1e6)
    assert abs(s.eps - float(ref)) <= 1e-12 * float(ref)
    assert s.eps > 1  # far above 1 at desk scale


def test_paper_schedule_huge_x_no_overflow():
    s = paper_schedule(1e300)
    assert math.isfinite(s.q0_sq) and math.isfinite(s.d)
    assert s.q0_sq > 1 and s.d > 1
    assert s.eps > 1


def test_paper_schedule_domain():
    with pytest.raises(DomainError):
        paper_schedule(15.0)  # <= e^e


def test_monotonicity_in_x():
    # X/(ln X)^22 turns at ln X = 22 and X^(1/2)/(ln X)^52 at ln X = 104,
    # so growth in X only holds past X ~ 1e10 resp. ~ 1.5e45
    xs = [10.0**k for k in range(10, 301, 10)]
    prev = paper_schedule(xs[0])
    for x in xs[1:]:
        cur = paper_schedule(x)
        assert cur.q0_sq > prev.q0_sq
        if prev.x >= 1e46:
            assert cur.d > prev.d
        prev = cur


def test_schedule_turning_points():
    # below the stationary points both fields still *decrease* in X
    assert paper_schedule(1e7).q0_sq < paper_schedule(1e6).q0_sq
    assert paper_schedule(1e12).d < paper_schedule(1e6).d
    # stationary points bracketed: q0_sq at ln X = 22, D at ln X = 104
    assert paper_schedule(3.6e9).q0_sq < min(
        paper_schedule(1e9).q0_sq, paper_schedule(1e10).q0_sq
    )
    assert paper_schedule(1.5e45).d < min(
        paper_schedule(1e44).d, paper_schedule(1e46).d
    )


def test_desk_schedule_defaults_and_overrides():
    s = desk_schedule(1e5, 1e5**0.4, 0.01)
    assert s.mode == "desk"
    assert abs(s.h - math.log(1e5) ** 2 / 0.01) <= 1e-12 * s.h
    assert s.delta == min(math.log(1e5) ** 23 / 1e5, 1.0)
    s2 = desk_schedule(1e4, 50.0, 0.1, h=123.0, delta=0.25)
    assert s2.d == 50.0 and s2.eps == 0.1
    assert s2.h == 123.0 and s2.delta == 0.25
    # the given H and Delta replace the asymptotic defaults
    assert s2.h != math.log(1e4) ** 2 / 0.1
    assert s2.delta != min(math.log(1e4) ** 23 / 1e4, 1.0)


def test_desk_schedule_validation():
    with pytest.raises(DomainError):
        desk_schedule(1e5, 400.0, 0.01)   # 400 > sqrt(1e5) ~ 316.2
    with pytest.raises(DomainError):
        desk_schedule(50.0, 5.0, 0.1)     # X < 100
    with pytest.raises(DomainError):
        desk_schedule(1e4, 1.0, 0.1)      # D must exceed 1
    with pytest.raises(DomainError):
        desk_schedule(1e4, 50.0, 0.0)     # eps must be positive


def test_schedules_reject_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            paper_schedule(bad)
        for args in ((bad, 100.0, 0.01), (1e5, bad, 0.01), (1e5, 100.0, bad)):
            with pytest.raises(DomainError):
                desk_schedule(*args)
        with pytest.raises(DomainError):
            desk_schedule(1e5, 100.0, 0.01, h=bad)
        with pytest.raises(DomainError):
            desk_schedule(1e5, 100.0, 0.01, delta=bad)


def test_eps_positivity_report():
    rep = eps_positivity_report()
    assert rep["eps_exceeds_one"] is True
    assert rep["log_eps_at_lo"] > 0 and rep["log_eps_at_hi"] > 0
    assert rep["eps_min_lower_bound"] > 1
    # concavity claim verified on an independent fine grid in t
    t_lo, t_hi = rep["t_lo"], rep["t_hi"]
    n = 20001
    vals = []
    for i in range(n):
        t = t_lo + (t_hi - t_lo) * i / (n - 1)
        vals.append(7 * math.log(t) - THETA0 * t)
    assert min(vals) > 0
    assert min(vals) >= rep["log_eps_min"] - 1e-9
    # second difference negative everywhere on the grid (concavity)
    second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, n - 1)]
    assert max(second) < 0


def test_eps_positivity_report_domain():
    with pytest.raises(DomainError):
        eps_positivity_report(10.0, 1e300)
    with pytest.raises(DomainError):
        eps_positivity_report(1e10, 1e5)
