"""Quadrature round-trip check of the smoothing kernel's Fourier transform.

Test-only: it needs `scipy.integrate`, which the library does not import.
"""

import math

from scipy.integrate import quad

from linniklab.errors import DomainError, NumericError
from linniklab.smoothing import SmoothingKernel, theta_eval, theta_fourier


def fourier_inverse_check(kern: SmoothingKernel, u: float, tol: float) -> dict:
    """Recover θ(u) as ∫ Θ(t) e(ut) dt by adaptive quadrature.

    Truncation at T uses the third branch of the Θ envelope:
    ∫_{|t|>T} |Θ| ≤ (2/(πk))·(πδT)^{−k}, forced below tol/10.  Θ is even, so
    the integral is 2∫₀ᵀ Θ(t) cos(2πut) dt, handed to the oscillatory-weight
    quadrature.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    k, delta = kern.k, kern.delta
    T = (1.0 / (math.pi * delta)) * (20.0 / (math.pi * k * tol)) ** (1.0 / k)
    T = max(T, 8.0 / kern.eps)
    tail_bound = (2.0 / (math.pi * k)) * (math.pi * delta * T) ** (-k)
    limit = int(4.0 * kern.a * T) + 200

    def integrand(t: float) -> float:
        return theta_fourier(kern, t)

    try:
        if u == 0.0:
            val, err = quad(integrand, 0.0, T, epsabs=tol / 20.0, epsrel=1e-10,
                            limit=limit)
        else:
            val, err = quad(integrand, 0.0, T, weight="cos", wvar=2.0 * math.pi * u,
                            epsabs=tol / 20.0, epsrel=1e-10, limit=limit)
    except Exception as exc:
        raise NumericError(f"quadrature failed at u={u}: {exc}") from exc
    if err > tol / 3.0:
        raise NumericError(
            f"quadrature did not converge at u={u}: estimated error {err:.3e} "
            f"(T={T:.6g}, limit={limit})"
        )
    numeric = 2.0 * val
    exact = theta_eval(kern, u)
    return {
        "numeric": numeric,
        "exact": exact,
        "abs_err": abs(numeric - exact),
        "truncation": T,
        "quad_error": 2.0 * err,
        "tail_bound": tail_bound,
    }
