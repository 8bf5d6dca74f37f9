"""Parameter schedule tying every tuning quantity to the scale X.

The asymptotic schedule is

    q₀² = X/(ln X)²²        smallest admissible convergent denominator squared
    D   = X^{1/2}/(ln X)⁵²  divisor-split threshold
    Δ   = (ln X)²³/X        major-arc half-width
    θ₀  = 1/2 − (1/4)e·ln2  exponent of the accuracy gain  (≈ 0.0289576)
    ε   = (ln ln X)⁷/(ln X)^{θ₀}
    H   = (ln X)²/ε         Fourier truncation height

Each paper-mode field is computed in log-space and exponentiated once, so
X up to 10³⁰⁰ stays representable.  The punchline the report has to make visible:
ε(X) > 1 for every X a computer will ever touch (ln ε = 7·ln ln ln X −
θ₀·ln ln X is concave in ln ln X and positive at both ends of [100, 10³⁰⁰]),
so inequality experiments need desk mode with a small ε.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError

# 1/2 − (1/4)·e·ln 2, the accuracy exponent.  Truncates to 0.0289.
THETA0 = 0.5 - 0.25 * math.e * math.log(2.0)


@dataclass(frozen=True)
class Schedule:
    x: float
    q0_sq: float
    d: float
    delta: float
    theta0: float
    eps: float
    h: float
    mode: str                      # "paper" | "desk"

    def as_dict(self) -> dict:
        return asdict(self)


def paper_schedule(x: float) -> Schedule:
    """Asymptotic schedule at scale x; domain x > e^e so ln ln x > 0."""
    if not math.e**math.e < x < math.inf:
        raise DomainError(f"paper schedule needs finite X > e^e ≈ 15.154, got {x}")
    lx = math.log(x)
    llx = math.log(lx)
    log_eps = 7.0 * math.log(llx) - THETA0 * llx
    return Schedule(
        x=x,
        q0_sq=math.exp(lx - 22.0 * llx),
        d=math.exp(0.5 * lx - 52.0 * llx),
        delta=math.exp(23.0 * llx - lx),
        theta0=THETA0,
        eps=math.exp(log_eps),
        h=math.exp(2.0 * llx - log_eps),
        mode="paper",
    )


def desk_schedule(
    x: float,
    d: float,
    eps: float,
    h: float | None = None,
    delta: float | None = None,
) -> Schedule:
    """Desk-mode schedule: user-chosen D and ε, asymptotic shapes as defaults.

    D must sit strictly inside (1, √X) or the three-way divisor split of the
    triple sum stops being a partition.
    """
    given = [v for v in (x, d, eps, h, delta) if v is not None]
    if not all(map(math.isfinite, given)):
        raise DomainError(f"desk schedule needs finite X, D, eps, H, Delta, got {given}")
    if x < 100:
        raise DomainError(f"desk schedule needs X ≥ 100, got {x}")
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    sqrt_x = math.sqrt(x)
    if not 1.0 < d < sqrt_x:
        raise DomainError(
            f"divisor split needs 1 < D < √X (small/middle/large partition); "
            f"got D={d} with √X={sqrt_x:.6g}"
        )
    lx = math.log(x)
    if h is None:
        h = lx * lx / eps
    if delta is None:
        delta = min(lx**23 / x, 1.0)
    if h <= 0 or delta <= 0:
        raise DomainError("H and Delta must be positive")
    return Schedule(
        x=x,
        q0_sq=x / lx**22,
        d=d,
        delta=delta,
        theta0=THETA0,
        eps=eps,
        h=h,
        mode="desk",
    )


def eps_positivity_report(x_lo: float = 100.0, x_hi: float = 1e300) -> dict:
    """Certify ln ε(X) > 0 (i.e. ε > 1) for every X in [x_lo, x_hi].

    With t = ln ln X, ln ε = 7·ln t − θ₀·t, which is strictly concave in t;
    a concave function positive at both endpoints of an interval is positive
    throughout.  Evaluating in t-space keeps everything finite for x_hi as
    large as 10³⁰⁰.
    """
    if not (math.e**math.e < x_lo < x_hi):
        raise DomainError("report needs e^e < x_lo < x_hi")

    def log_eps_of_t(t: float) -> float:
        return 7.0 * math.log(t) - THETA0 * t

    t_lo = math.log(math.log(x_lo))
    t_hi = math.log(math.log(x_hi))
    le_lo = log_eps_of_t(t_lo)
    le_hi = log_eps_of_t(t_hi)
    le_min = min(le_lo, le_hi)
    return {
        "x_lo": x_lo,
        "x_hi": x_hi,
        "t_lo": t_lo,
        "t_hi": t_hi,
        "log_eps_at_lo": le_lo,
        "log_eps_at_hi": le_hi,
        "log_eps_min": le_min,
        "eps_min_lower_bound": math.exp(le_min),
        "concave_in_t": True,
        "eps_exceeds_one": le_min > 0.0,
    }
