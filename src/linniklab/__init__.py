"""Desk-scale numerical laboratory for a three-prime Diophantine inequality
with one prime of the form x² + y² + 1.

Submodules:
    arith      — sieve, character mod 4, two-squares counts over lattice rows
    schedule   — derived parameter schedules (asymptotic and desk modes)
    cfrac      — certified continued-fraction convergents
    smoothing  — C^k smoothed window, its transform and antiderivative
    expsums    — prime exponential sums, progression error terms
    dirichlet  — Euler products and the density constant
    gamma      — weighted triple counts, divisor splits, witness finder
    cli        — the `linniklab` command-line entry point
"""

from .arith import PrimeTable, chi, linnik_rows, linnik_witness, r2, sieve_primes
from .cfrac import CertifiedReal, Convergent, certified_decimal, certified_named, convergents
from .dirichlet import chi_phi_partial, f_zero, linnik_constant, linnik_empirical, n_s
from .errors import DomainError, NumericError, PrecisionError, ResourceError
from .expsums import bv_aggregate, e_term, i_j, major_arc_gap, minor_arc_report, s_ld
from .gamma import (
    GammaBreakdown,
    Instance,
    TripleWitness,
    b_j_volume,
    find_triples,
    gamma_sharp,
    gamma_smoothed,
    gamma_split,
    hooley_f_omega,
    hooley_sigma_prime,
)
from .schedule import Schedule, desk_schedule, eps_positivity_report, paper_schedule
from .smoothing import SmoothingKernel, kernel_new, suggested_k, theta_eval, theta_fourier

__version__ = "0.1.0"

__all__ = [
    "PrimeTable", "chi", "linnik_rows", "linnik_witness", "r2", "sieve_primes",
    "CertifiedReal", "Convergent", "certified_decimal", "certified_named", "convergents",
    "chi_phi_partial", "f_zero", "linnik_constant", "linnik_empirical", "n_s",
    "DomainError", "NumericError", "PrecisionError", "ResourceError",
    "bv_aggregate", "e_term", "i_j", "major_arc_gap", "minor_arc_report", "s_ld",
    "GammaBreakdown", "Instance", "TripleWitness", "b_j_volume", "find_triples",
    "gamma_sharp", "gamma_smoothed", "gamma_split", "hooley_f_omega", "hooley_sigma_prime",
    "Schedule", "desk_schedule", "eps_positivity_report", "paper_schedule",
    "SmoothingKernel", "kernel_new", "suggested_k", "theta_eval", "theta_fourier",
    "__version__",
]
