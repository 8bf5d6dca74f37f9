"""Command-line front end: every operation behind one `linniklab` entry point.

Output contract: structured reports are single-line JSON on stdout, bulk
data is TSV with a leading `#` header comment; every float is rounded to
15 significant digits before printing; output is byte-identical across
runs and thread counts.  Exit codes: 0 success, 2 domain/usage error,
3 resource-budget or numerical-convergence failure.

Coefficients (--l1/--l2/--l3/--eta) accept plain decimals (`-1`, `0.25`),
decimals with an explicit uncertainty (`1.4142135±1e-7`), or the named
constants sqrt2, sqrt3, phi, e (optionally signed), which are resolved to
certified 256-bit values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath
import numpy as np

from . import arith, cfrac, dirichlet, expsums, gamma, schedule, smoothing
from .errors import DomainError, NumericError, PrecisionError, ResourceError

ENV_WORK_BUDGET = "LINNIKLAB_WORK_BUDGET"


def _g(v: float) -> str:
    return f"{v:.15g}"


def _r15(v):
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, float):
        return float(f"{v:.15g}")
    if isinstance(v, dict):
        return {k: _r15(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_r15(u) for u in v]
    if isinstance(v, (np.floating,)):
        return float(f"{float(v):.15g}")
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def _emit_json(obj: dict):
    sys.stdout.write(json.dumps(_r15(obj)) + "\n")


class _Coeff:
    """A parsed coefficient: float working value + 256-bit certified value."""

    def __init__(self, text: str):
        s = text.strip()
        key = s.lstrip("+-")
        self.is_named = key in cfrac.NAMED
        self.name = key if self.is_named else None
        if self.is_named:
            cert = cfrac.certified_named(s if not s.startswith("+") else key)
        else:
            cert = cfrac.certified_decimal(s)
        self.value = float(cert.value)
        if self.value == 0.0 and cert.value == 0:
            self.hp = mpmath.mpf(0)
        else:
            with mpmath.workprec(256):
                self.hp = (mpmath.mpf(cert.value.numerator)
                           / cert.value.denominator)


def _ratio_irrational(c1: _Coeff, c2: _Coeff, forced: bool) -> bool:
    if forced:
        return True
    if c1.is_named != c2.is_named:
        return True
    if c1.is_named and c2.is_named:
        return c1.name != c2.name
    return False


def _load_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(f"config line is not key=value: {line!r}")
                k, v = line.split("=", 1)
                cfg[k.strip().replace("-", "_")] = v.strip()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from None
    return cfg


def _pick(args, cfg: dict, key: str, default=None, cast=float):
    v = getattr(args, key, None)
    if v is None and key in cfg:
        v = cfg[key]
    if v is None:
        return default
    if not isinstance(v, str):
        return v
    try:
        return cast(v)
    except (ValueError, OverflowError) as exc:
        raise DomainError(
            f"--{key.replace('_', '-')}: cannot use {v!r} ({exc})") from None


def _need(args, cfg, key: str, cast=float):
    v = _pick(args, cfg, key, None, cast)
    if v is None:
        raise DomainError(f"--{key.replace('_', '-')} is required")
    return v


def _finite(key: str, v: float) -> float:
    if not math.isfinite(v):
        raise DomainError(f"--{key} must be finite, got {v}")
    return v


def _budget(args, cfg) -> int:
    v = getattr(args, "work_budget", None)
    if v is None:
        env = os.environ.get(ENV_WORK_BUDGET)
        if env is not None:
            v = env
    if v is None and "work_budget" in cfg:
        v = cfg["work_budget"]
    if v is None:
        return gamma.WORK_BUDGET
    b = int(float(v))
    if b <= 0:
        raise DomainError(f"work budget must be positive, got {b}")
    return b


def _table_for(x: float) -> arith.PrimeTable:
    if not math.isfinite(x):
        raise DomainError(f"X must be finite, got {x}")
    return arith.sieve_primes(int(math.ceil(x)))


# ----------------------------------------------------------- subcommands

def cmd_schedule(args, cfg) -> int:
    if _pick(args, cfg, "eps_report", False, lambda s: s == "true"):
        rep = schedule.eps_positivity_report(
            _pick(args, cfg, "x_lo", 100.0),
            _pick(args, cfg, "x_hi", 1e300),
        )
        _emit_json(rep)
        return 0
    x = _need(args, cfg, "x")
    mode = _pick(args, cfg, "mode", "paper", str)
    if mode == "paper":
        sch = schedule.paper_schedule(x)
    elif mode == "desk":
        sch = schedule.desk_schedule(
            x,
            _need(args, cfg, "d"),
            _need(args, cfg, "eps"),
            h=_pick(args, cfg, "h"),
            delta=_pick(args, cfg, "delta"),
        )
    else:
        raise DomainError(f"unknown schedule mode {mode!r}")
    _emit_json(sch.as_dict())
    return 0


def cmd_cfrac(args, cfg) -> int:
    name = _pick(args, cfg, "name", None, str)
    value = _pick(args, cfg, "value", None, str)
    count = int(_pick(args, cfg, "count", 10, int))
    pattern = bool(_pick(args, cfg, "pattern", False, lambda s: s == "true"))
    verify = bool(_pick(args, cfg, "verify", False, lambda s: s == "true"))
    if (name is None) == (value is None):
        raise DomainError("exactly one of --name / --value is required")
    if count < 1:
        raise DomainError(f"--count must be ≥ 1, got {count}")
    if pattern:
        if name is None:
            raise DomainError("--pattern needs --name (classical expansions only)")
        convs = cfrac.convergents_from_terms(cfrac.named_cf_terms(name), count)
    else:
        cert = cfrac.certified_named(name) if name else cfrac.certified_decimal(value)
        convs = list(cfrac.convergents(cert, count))
    cert_v = None
    if verify:
        cert_v = cfrac.certified_named(name) if name else cfrac.certified_decimal(value)
    hdr = "# index\ta\tq" + ("\tq2_err" if verify else "")
    sys.stdout.write(hdr + "\n")
    for c in convs:
        row = f"{c.index}\t{c.a}\t{c.q}"
        if verify:
            chk = cfrac.verify_eq1(cert_v, c)
            row += "\t" + _g(chk["lhs"] * c.q * c.q)
        sys.stdout.write(row + "\n")
    return 0


def cmd_kernel(args, cfg) -> int:
    eps = _need(args, cfg, "eps")
    k = int(_pick(args, cfg, "k", 4, int))
    kern = smoothing.kernel_new(eps, k)
    n = int(_pick(args, cfg, "grid", 201, int))
    if n < 2:
        raise DomainError(f"--grid must be ≥ 2, got {n}")
    if bool(_pick(args, cfg, "fourier", False, lambda s: s == "true")):
        xmax = _finite("xmax", _pick(args, cfg, "xmax", 8.0 * k / (math.pi * eps)))
        xs = np.linspace(0.0, xmax, n)
        th = smoothing.theta_fourier(kern, xs)
        bd = smoothing.theta_fourier_bound(kern, xs)
        sys.stdout.write("# x\ttheta_hat\tbound\n")
        for x, t, b in zip(xs, th, bd):
            sys.stdout.write(f"{_g(x)}\t{_g(t)}\t{_g(b)}\n")
        return 0
    ymax = _finite("ymax", _pick(args, cfg, "ymax", 1.25 * eps))
    ys = np.linspace(-ymax, ymax, n)
    th = smoothing.theta_eval(kern, ys)
    sys.stdout.write("# y\ttheta\tantideriv\n")
    for y, t in zip(ys, th):
        sys.stdout.write(
            f"{_g(y)}\t{_g(t)}\t{_g(smoothing.theta_antiderivative(kern, y))}\n"
        )
    return 0


def cmd_expsum(args, cfg) -> int:
    x = _need(args, cfg, "x")
    alpha = _need(args, cfg, "alpha")
    lam0 = _pick(args, cfg, "lambda0", 0.5)
    l = int(_pick(args, cfg, "l", 1, int))
    d = int(_pick(args, cfg, "d", 1, int))
    lo = _pick(args, cfg, "lo", lam0 * x)
    hi = _pick(args, cfg, "hi", x)
    delta = _pick(args, cfg, "delta", None)
    table = _table_for(hi)
    s = expsums.s_ld(table, l, d, (lo, hi), alpha)
    i = expsums.i_j((lo, hi), alpha)
    _emit_json({
        "x": x, "alpha": alpha, "l": l, "d": d, "lo": lo, "hi": hi,
        "s_re": s.real, "s_im": s.imag, "s_abs": abs(s),
        "i_re": i.real, "i_im": i.imag, "i_abs": abs(i),
        "gap_over_x": abs(s - i) / x,
        "alpha_exceeds_delta": (None if delta is None
                                else bool(abs(alpha) > delta)),
    })
    return 0


def cmd_eterm(args, cfg) -> int:
    x = _need(args, cfg, "x")
    q = int(_need(args, cfg, "q", int))
    a = int(_need(args, cfg, "a", int))
    table = _table_for(x)
    _emit_json({"x": x, "q": q, "a": a,
                "e_term": expsums.e_term(table, x, q, a)})
    return 0


def cmd_bvsum(args, cfg) -> int:
    x = _need(args, cfg, "x")
    q_max = int(_need(args, cfg, "q_max", int))
    table = _table_for(x)
    val = expsums.bv_aggregate(table, x, q_max, work_budget=_budget(args, cfg))
    _emit_json({"x": x, "q_max": q_max, "bv_sum": val})
    return 0


def cmd_minorarc(args, cfg) -> int:
    x = _need(args, cfg, "x")
    a = int(_need(args, cfg, "a", int))
    q = int(_need(args, cfg, "q", int))
    alpha = _pick(args, cfg, "alpha", None)
    if alpha is None:
        if q < 1:
            raise DomainError(f"q must be ≥ 1, got {q}")
        alpha = a / q
    table = _table_for(x)
    rep = expsums.minor_arc_report(table, x, a, q, alpha)
    _emit_json(rep)
    return 0


def _parse_instance(args, cfg, x: float) -> gamma.Instance:
    c1 = _Coeff(_need(args, cfg, "l1", str))
    c2 = _Coeff(_need(args, cfg, "l2", str))
    c3 = _Coeff(_need(args, cfg, "l3", str))
    ce = _Coeff(str(_pick(args, cfg, "eta", "0", str)))
    eps = _need(args, cfg, "eps")
    lam0 = _pick(args, cfg, "lambda0", 0.5)
    forced = bool(_pick(args, cfg, "ratio_irrational", False,
                        lambda s: s == "true"))
    return gamma.Instance(
        lambda1=c1.value, lambda2=c2.value, lambda3=c3.value,
        eta=ce.value, eps=eps, x=x, lambda0=lam0,
        ratio_irrational=_ratio_irrational(c1, c2, forced),
        hp_coeffs=(c1.hp, c2.hp, c3.hp, ce.hp),
    )


def cmd_gamma(args, cfg) -> int:
    x = _need(args, cfg, "x")
    mode = _pick(args, cfg, "mode", "sharp", str)
    inst = _parse_instance(args, cfg, x)
    threads = int(_pick(args, cfg, "threads", 1, int))
    budget = _budget(args, cfg)
    table = _table_for(x)
    if mode == "sharp":
        val, count = gamma.gamma_sharp(inst, table, threads, budget)
        _emit_json({"mode": "sharp", "x": x, "eps": inst.eps,
                    "gamma": val, "triple_count": count})
        return 0
    k = int(_pick(args, cfg, "k", smoothing.suggested_k(x), int))
    kern = smoothing.kernel_new(inst.eps, k)
    if mode == "smoothed":
        val = gamma.gamma_smoothed(inst, kern, table, threads, budget)
        _emit_json({"mode": "smoothed", "x": x, "eps": inst.eps, "k": k,
                    "gamma0": val})
        return 0
    if mode == "split":
        # default divisor cut X^0.4 keeps all three ranges populated at X ≥ 1e4
        d = _pick(args, cfg, "d", x ** 0.4)
        br = gamma.gamma_split(inst, kern, table, d, threads, budget)
        out = {"mode": "split", "x": x, "eps": inst.eps, "k": k}
        out.update(br.as_dict())
        _emit_json(out)
        return 0
    if mode == "volume":
        j_lo = _pick(args, cfg, "j_lo", inst.lambda0 * x)
        j_hi = _pick(args, cfg, "j_hi", x)
        val = gamma.b_j_volume(inst, kern, (j_lo, j_hi))
        _emit_json({"mode": "volume", "x": x, "eps": inst.eps, "k": k,
                    "j_lo": j_lo, "j_hi": j_hi, "b_j": val})
        return 0
    raise DomainError(f"unknown gamma mode {mode!r}")


def cmd_triples(args, cfg) -> int:
    x = _need(args, cfg, "x")
    inst = _parse_instance(args, cfg, x)
    spec = str(_pick(args, cfg, "require_linnik", "3", str)).strip()
    req = frozenset(int(t) for t in spec.split(",") if t != "") if spec else frozenset()
    table = _table_for(x)
    wits = gamma.find_triples(
        inst, table, require_linnik=req,
        max_results=int(_pick(args, cfg, "max_results", 100, int)),
        threads=int(_pick(args, cfg, "threads", 1, int)),
        work_budget=_budget(args, cfg),
    )
    sys.stdout.write("# p1\tp2\tp3\tx\ty\tresidual\n")
    for w in wits:
        sys.stdout.write(
            f"{w.p1}\t{w.p2}\t{w.p3}\t{w.x}\t{w.y}\t{_g(w.residual)}\n"
        )
    return 0


def cmd_hooley(args, cfg) -> int:
    x = _need(args, cfg, "x")
    stat = _pick(args, cfg, "stat", "sigma", str)
    table = _table_for(x)
    if stat == "sigma":
        d = _need(args, cfg, "d")
        lam0 = _pick(args, cfg, "lambda0", 0.0)
        val = gamma.hooley_sigma_prime(table, x, d, lam0)
        _emit_json({"stat": "sigma_prime", "x": x, "d": d,
                    "lambda0": lam0, "value": val})
        return 0
    if stat == "fomega":
        omega = _need(args, cfg, "omega")
        val = gamma.hooley_f_omega(table, x, omega)
        _emit_json({"stat": "f_omega", "x": x, "omega": omega, "value": val})
        return 0
    raise DomainError(f"unknown hooley stat {stat!r}")


def cmd_singular(args, cfg) -> int:
    pmax = int(_need(args, cfg, "pmax", lambda s: int(float(s))))
    s = _pick(args, cfg, "s", 0.0)
    table = _table_for(pmax)
    approx = dirichlet.n_s(s, pmax, table)
    lo, hi = approx.bracket()
    out = {
        "s": s, "pmax": pmax, "n_s": approx.value,
        "tail_bound": approx.tail_bound, "bracket_lo": lo, "bracket_hi": hi,
        "f_zero": dirichlet.f_zero(pmax, table),
        "linnik_constant": dirichlet.linnik_constant(pmax, table),
    }
    dmax = _pick(args, cfg, "dmax", None, lambda t: int(float(t)))
    if dmax is not None:
        cps_spec = _pick(args, cfg, "checkpoints", None, str)
        cps = ([int(float(t)) for t in cps_spec.split(",")]
               if cps_spec else None)
        out["chi_phi"] = dirichlet.chi_phi_partial(int(dmax), table, cps)
    _emit_json(out)
    return 0


def cmd_linnik(args, cfg) -> int:
    x = _need(args, cfg, "x")
    table = _table_for(x)
    if bool(_pick(args, cfg, "empirical", False, lambda s: s == "true")):
        rep = dirichlet.linnik_empirical(table, x)
        _emit_json({"x": x, **rep})
        return 0
    ps = table.primes[: table.prime_count(x)]
    wx, wy = table.witnesses
    n = ps[wx[ps - 1] >= 0] - 1
    rows = zip(n.tolist(), wx[n].tolist(), wy[n].tolist())
    sys.stdout.write("# p\tx\ty\n")
    sys.stdout.write("".join(f"{m + 1}\t{a}\t{b}\n" for m, a, b in rows))
    return 0


_DISPATCH = {
    "schedule": cmd_schedule,
    "cfrac": cmd_cfrac,
    "kernel": cmd_kernel,
    "expsum": cmd_expsum,
    "eterm": cmd_eterm,
    "bvsum": cmd_bvsum,
    "minorarc": cmd_minorarc,
    "gamma": cmd_gamma,
    "triples": cmd_triples,
    "hooley": cmd_hooley,
    "singular": cmd_singular,
    "linnik": cmd_linnik,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file supplying flag defaults")
    common.add_argument("--threads", type=int,
                        help="worker threads for pair scans (default 1)")
    common.add_argument("--work-budget", dest="work_budget",
                        help=f"max pair evaluations (default 2^31; env {ENV_WORK_BUDGET})")

    p = argparse.ArgumentParser(
        prog="linniklab",
        description="Numerical laboratory for a three-prime Diophantine "
                    "inequality in which one prime is one plus a sum of "
                    "two squares.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser(
        "schedule", parents=[common],
        help="derived parameter schedule at a given scale",
        description="Derived parameters at scale X: major-arc radius, "
                    "divisor cut D, window width, smoothing budget; or, with "
                    "--eps-report, a certificate that the asymptotic window "
                    "width stays above 1 for all X up to 1e300.")
    sp.add_argument("--x", type=float)
    sp.add_argument("--mode", choices=["paper", "desk"])
    sp.add_argument("--d", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--h", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--eps-report", dest="eps_report", action="store_const",
                    const=True, help="emit the window-width positivity certificate")
    sp.add_argument("--x-lo", dest="x_lo", type=float)
    sp.add_argument("--x-hi", dest="x_hi", type=float)

    sp = sub.add_parser(
        "cfrac", parents=[common],
        help="certified continued-fraction convergents",
        description="Convergents a/q of a certified real; every emitted "
                    "convergent satisfies |x - a/q| < 1/q².")
    sp.add_argument("--name", choices=sorted(cfrac.NAMED) + ["-sqrt2", "-sqrt3", "-phi", "-e"])
    sp.add_argument("--value", help="decimal or decimal±err")
    sp.add_argument("--count", type=int)
    sp.add_argument("--pattern", action="store_const", const=True,
                    help="use the classical expansion pattern (named constants only)")
    sp.add_argument("--verify", action="store_const", const=True,
                    help="append q²·|x - a/q| per row")

    sp = sub.add_parser(
        "kernel", parents=[common],
        help="smoothed window function tables",
        description="Tabulate the C^k smoothed window θ (plateau on "
                    "[-3ε/4, 3ε/4], support (-ε, ε)) or, with --fourier, its "
                    "transform and decay ceiling.")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--k", type=int)
    sp.add_argument("--grid", type=int)
    sp.add_argument("--ymax", type=float)
    sp.add_argument("--fourier", action="store_const", const=True)
    sp.add_argument("--xmax", type=float)

    sp = sub.add_parser(
        "expsum", parents=[common],
        help="prime exponential sum vs its integral",
        description="S(α) = Σ e(αp)·ln p over a prime range against "
                    "I(α) = ∫ e(αy) dy, with the normalized gap |S-I|/X.")
    sp.add_argument("--x", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--lambda0", type=float)
    sp.add_argument("--l", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--lo", type=float)
    sp.add_argument("--hi", type=float)
    sp.add_argument("--delta", type=float,
                    help="major-arc radius to compare |α| against (flag only)")

    sp = sub.add_parser(
        "eterm", parents=[common],
        help="prime-progression error term",
        description="E(x;q,a) = Σ_{p≤x, p≡a (q)} ln p − x/φ(q).")
    sp.add_argument("--x", type=float)
    sp.add_argument("--q", type=int)
    sp.add_argument("--a", type=int)

    sp = sub.add_parser(
        "bvsum", parents=[common],
        help="aggregated worst-case progression error",
        description="Σ_{q≤Q} max over residues and y ≤ X of |E(y;q,a)|, "
                    "the quantity the large-sieve machinery controls on "
                    "average over moduli.")
    sp.add_argument("--x", type=float)
    sp.add_argument("--q-max", dest="q_max", type=int)

    sp = sub.add_parser(
        "minorarc", parents=[common],
        help="exponential sum near a rational point",
        description="|S(α)| for α within 1/q² of a/q, against the classical "
                    "q-dependent ceiling (reported, not asserted).")
    sp.add_argument("--x", type=float)
    sp.add_argument("--a", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--alpha", type=float, help="defaults to a/q")

    sp = sub.add_parser(
        "gamma", parents=[common],
        help="weighted triple counts",
        description="Weighted counts over prime triples with "
                    "|λ₁p₁+λ₂p₂+λ₃p₃+η| small: sharp window, smoothed "
                    "window, its three-way divisor split (exact identity "
                    "Γ₀ = 4(Γ₁+Γ₂+Γ₃)), or the continuous volume analogue.")
    sp.add_argument("--mode", choices=["sharp", "smoothed", "split", "volume"])
    sp.add_argument("--x", type=float)
    sp.add_argument("--l1")
    sp.add_argument("--l2")
    sp.add_argument("--l3")
    sp.add_argument("--eta")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--lambda0", type=float)
    sp.add_argument("--ratio-irrational", dest="ratio_irrational",
                    action="store_const", const=True)
    sp.add_argument("--d", type=float, help="divisor cut for --mode split")
    sp.add_argument("--k", type=int, help="smoothness order (default ⌊ln X⌋)")
    sp.add_argument("--j-lo", dest="j_lo", type=float)
    sp.add_argument("--j-hi", dest="j_hi", type=float)

    sp = sub.add_parser(
        "triples", parents=[common],
        help="explicit solution triples with witnesses",
        description="Prime triples satisfying the inequality, each with the "
                    "two-squares witness for the constrained position(s); "
                    "residuals re-verified at 256-bit precision.")
    sp.add_argument("--x", type=float)
    sp.add_argument("--l1")
    sp.add_argument("--l2")
    sp.add_argument("--l3")
    sp.add_argument("--eta")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--lambda0", type=float)
    sp.add_argument("--ratio-irrational", dest="ratio_irrational",
                    action="store_const", const=True)
    sp.add_argument("--require-linnik", dest="require_linnik",
                    help="comma list of positions that must be Linnik primes "
                         "(default 3; empty string for none)")
    sp.add_argument("--max-results", dest="max_results", type=int)

    sp = sub.add_parser(
        "hooley", parents=[common],
        help="mid-range divisor statistics of p−1",
        description="Mean-square character sum over divisors of p−1 in "
                    "(D, X/D), or the count of p whose p−1 has a divisor "
                    "near √X.")
    sp.add_argument("--x", type=float)
    sp.add_argument("--stat", choices=["sigma", "fomega"])
    sp.add_argument("--d", type=float)
    sp.add_argument("--lambda0", type=float)
    sp.add_argument("--omega", type=float)

    sp = sub.add_parser(
        "singular", parents=[common],
        help="Euler products and the density constant",
        description="Truncated Euler product N(s), the two-squares density "
                    "constant (π/4)·N(0), the asymptotic constant π·N(0), "
                    "and optional character partial sums Σ χ(d)/φ(d).")
    sp.add_argument("--pmax")
    sp.add_argument("--s", type=float)
    sp.add_argument("--dmax")
    sp.add_argument("--checkpoints")

    sp = sub.add_parser(
        "linnik", parents=[common],
        help="primes of the form x²+y²+1",
        description="List primes p ≤ X expressible as x²+y²+1 with a "
                    "witness pair, or (--empirical) compare Σ r(p−1) to its "
                    "predicted main term.")
    sp.add_argument("--x", type=float)
    sp.add_argument("--empirical", action="store_const", const=True)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if getattr(args, "config", None) else {}
        return _DISPATCH[args.cmd](args, cfg)
    except (DomainError, PrecisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ResourceError, NumericError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
