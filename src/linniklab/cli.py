"""Command-line front end: every operation behind one `linniklab` entry point.

Output contract: structured reports are single-line JSON on stdout, bulk
data is TSV with a leading `#` header comment; every float is rounded to
15 significant digits before printing; output is byte-identical across
runs and thread counts.  Exit codes: 0 success, 2 domain/usage error,
3 resource-budget or numerical-convergence failure.

Coefficients (--l1/--l2/--l3/--eta) accept plain decimals (`-1`, `0.25`)
or the named constants sqrt2, sqrt3, phi, e (optionally signed), which are
resolved to rationals within (|value| + 1)·2⁻²⁶⁴ of their values; a signed
value may follow its flag as a separate argument (`--l3 -sqrt3`) or after
`=`.  A decimal with a nonzero uncertainty (`1.4142135±1e-7`) is refused
with exit 2, since every command reads one rational per coefficient and
would drop the interval; `±0` reads as the plain decimal, and `cfrac
--value` keeps the interval.  Each coefficient is passed to
`gamma.Instance` as an exact rational, which the lattice and the triple
finder's re-check read; the pair scan reads its correctly rounded float.

`_build_parser` declares each flag's type and default once, on the
subcommands that read it, and builds per call the one subparser it runs:
`--config`, then the shared groups (`_threads`, `_budget`, `_instance`,
plain functions that add flags to it), then the command's own flags.  A
`--config` file and LINNIKLAB_WORK_BUDGET only replace defaults of that
parser's flags, so argparse checks their values exactly as it checks flags.
Each `cmd_*` returns its report: a dict, which becomes one JSON line, or
its TSV text (`kernel`'s as blocks of rows).  `main` alone writes it, once
it is formed, so a command that fails leaves stdout empty.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import arith, cfrac, dirichlet, expsums, gamma, schedule, smoothing
from .errors import DomainError, NumericError, PrecisionError, ResourceError

ENV_WORK_BUDGET = "LINNIKLAB_WORK_BUDGET"
_ROWS = 1 << 16     # rows of a `kernel` table formatted per write


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
    return v


def _json_line(obj: dict) -> str:
    try:
        text = json.dumps(_r15(obj), allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"report holds a non-finite value: {exc}") from None
    return text + "\n"


class _Coeff:
    """A coefficient flag's value: its constant's name, if named, and its
    exact value.  A decimal must be exact: one with a nonzero `±` error is
    refused, since the scans read one rational and would drop the error."""

    def __init__(self, text: str):
        s = text.strip()
        key = s.lstrip("+-")
        self.name = key if key in cfrac.NAMED else None
        try:
            cert = cfrac.certified_named(s) if self.name else cfrac.certified_decimal(s)
        except (DomainError, PrecisionError) as exc:
            raise argparse.ArgumentTypeError(f"cannot use {text!r}: {exc}") from None
        if not self.name and cert.abs_error:
            raise argparse.ArgumentTypeError(
                f"cannot use {text!r}: a coefficient must be exact, not an interval")
        self.value = cert.value


def _ratio_irrational(c1: _Coeff, c2: _Coeff, forced: bool) -> bool:
    """λ₁/λ₂ is known irrational when exactly one is named or the names differ."""
    return forced or c1.name != c2.name


# ------------------------------------------------------------- flag types

def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


def _int_from_float(text: str) -> int:
    """An integer that may be written as a float, e.g. 1e6."""
    return int(_finite_float(text))


def _positive_int(text: str) -> int:
    v = _int_from_float(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return v


def _int_list(text: str) -> list[int]:
    """Comma list of integers, e.g. `100,1e4`; the empty string is the empty list."""
    return [_int_from_float(t) for t in text.split(",") if t.strip()]


# ------------------------------------------------------ config and parsing

def _load_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(f"config line is not key=value: {line!r}")
                k, v = line.split("=", 1)
                cfg[k.strip().replace("-", "_")] = v.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from None
    return cfg


def _config_defaults(sp: argparse.ArgumentParser, cfg: dict) -> dict:
    """The config values that are flags of subcommand sp, as its defaults.

    Strings stay strings, so argparse runs them through the flag's type;
    `true`/`false` are the values of on/off flags.  Other keys are ignored.
    """
    flags = {a.dest: a for a in sp._actions if a.dest != "help"}
    out = {}
    for key, v in cfg.items():
        a = flags.get(key)
        if a is None:
            continue
        if a.nargs == 0:
            if v not in ("true", "false"):
                raise DomainError(f"config {key}: expected true or false, got {v!r}")
            v = v == "true"
        elif a.choices is not None and v not in a.choices:
            raise DomainError(f"config {key}: {v!r} is not one of {sorted(a.choices)}")
        out[key] = v
    return out


def _join_signed_values(subs: dict, argv: list[str]) -> list[str]:
    """argv with `--flag -v` written `--flag=-v` where the subcommand's --flag
    takes a value.

    argparse reads a token that starts with `-` and is not a plain number as
    a flag, so a signed named constant or fraction (`--l3 -sqrt3`,
    `--value -355/113`) would otherwise end in "expected one argument".
    Tokens that start with `--` or are flags of the subcommand stay flags.
    """
    sp = subs.get(argv[0]) if argv else None
    if sp is None:
        return argv
    flags = sp._option_string_actions
    out = argv[:1]
    for tok in argv[1:]:
        prev = flags.get(out[-1])
        if (prev is not None and prev.nargs is None and tok.startswith("-")
                and not tok.startswith("--") and tok not in flags):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv; precedence of a value is flag > environment > config > built-in."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subs = _build_parser(argv[0] if argv else None)
    argv = _join_signed_values(subs, argv)
    args = parser.parse_args(argv)
    cfg = _load_config(args.config) if args.config else {}
    env = os.environ.get(ENV_WORK_BUDGET)
    if env is not None:
        cfg["work_budget"] = env
    sp = subs[args.cmd]
    defaults = _config_defaults(sp, cfg)
    sp.set_defaults(**defaults)
    return parser.parse_args(argv) if defaults else args


def _need(args, key: str):
    v = getattr(args, key)
    if v is None:
        raise DomainError(f"--{key.replace('_', '-')} is required")
    return v


def _table_for(x: float) -> arith.PrimeTable:
    return arith.sieve_primes(int(math.ceil(x)))


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    # `kernel` peaks near 81 B a grid point with --fourier and 42 B without
    # (tracemalloc at 1e6 points)
    need = 96 * n
    if need > arith.MEMORY_BUDGET:
        raise ResourceError(
            f"grid of {n} points needs about {need:.3e} bytes, over the memory "
            f"budget {arith.MEMORY_BUDGET:.3e}; lower --grid"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.linspace(lo, hi, n)
    if not np.isfinite(g).all():
        raise DomainError(f"grid from {lo} to {hi} overflows")
    return g


# ----------------------------------------------------------- subcommands

def cmd_schedule(args) -> dict:
    if args.eps_report:
        return schedule.eps_positivity_report(args.x_lo, args.x_hi)
    x = _need(args, "x")
    if args.mode == "paper":
        return schedule.paper_schedule(x).as_dict()
    return schedule.desk_schedule(x, _need(args, "d"), _need(args, "eps"),
                                  h=args.h, delta=args.delta).as_dict()


def cmd_cfrac(args) -> str:
    name, value, count, verify = args.name, args.value, args.count, args.verify
    if (name is None) == (value is None):
        raise DomainError("exactly one of --name / --value is required")
    if count < 1:
        raise DomainError(f"--count must be ≥ 1, got {count}")
    if args.pattern and name is None:
        raise DomainError("--pattern needs --name (classical expansions only)")
    cert = cfrac.certified_named(name) if name else cfrac.certified_decimal(value)
    convs = (cfrac.convergents_from_terms(cfrac.named_cf_terms(name), count)
             if args.pattern else cfrac.convergents(cert, count))
    rows = ["# index\ta\tq" + ("\tq2_err" if verify else "")]
    for c in convs:
        row = f"{c.index}\t{c.a}\t{c.q}"
        if verify:
            try:
                err = float(cfrac.verify_eq1(cert, c)["q2_lhs"])
            except OverflowError:
                raise PrecisionError(f"q²·|x - a/q| of convergent {c.index} is not "
                                     f"a finite float; lower --count") from None
            row += "\t" + _g(err)
        rows.append(row)
    return "\n".join(rows) + "\n"


def cmd_kernel(args):
    eps, k, n = _need(args, "eps"), args.k, args.grid
    kern = smoothing.kernel_new(eps, k)
    if n < 2:
        raise DomainError(f"--grid must be ≥ 2, got {n}")
    if args.fourier:
        xmax = args.xmax if args.xmax is not None else 8.0 * k / (math.pi * eps)
        xs = _grid(0.0, xmax, n)
        header = "# x\ttheta_hat\tbound\n"
        cols = (xs, smoothing.theta_fourier(kern, xs), smoothing.theta_fourier_bound(kern, xs))
    else:
        smoothing.check_table_budget(k, args.work_budget)
        ymax = args.ymax if args.ymax is not None else 1.25 * eps
        ys = _grid(-ymax, ymax, n)
        header = "# y\ttheta\tantideriv\n"
        cols = (ys, smoothing.theta_eval(kern, ys), smoothing.theta_antiderivative(kern, ys))

    def blocks():
        # _g's format on plain floats, a block of rows per write: no call per
        # value, and the block's strings stay small beside the grid's arrays
        yield header
        for i in range(0, n, _ROWS):
            rows = zip(*(c[i:i + _ROWS].tolist() for c in cols))
            yield "".join(map("%.15g\t%.15g\t%.15g\n".__mod__, rows))
    return blocks()


def cmd_expsum(args) -> dict:
    x, alpha, l, d, delta = _need(args, "x"), _need(args, "alpha"), args.l, args.d, args.delta
    lo = args.lo if args.lo is not None else args.lambda0 * x
    hi = args.hi if args.hi is not None else x
    table = _table_for(hi)
    rep = expsums.major_arc_gap(table, x, alpha, delta=delta, j=(lo, hi), l=l, d=d)
    s, i = rep.pop("s"), rep.pop("i")
    return {
        "x": x, "alpha": alpha, "l": l, "d": d, "lo": lo, "hi": hi,
        "s_re": s.real, "s_im": s.imag, "s_abs": abs(s),
        "i_re": i.real, "i_im": i.imag, "i_abs": abs(i), **rep,
    }


def cmd_eterm(args) -> dict:
    x, q, a = _need(args, "x"), _need(args, "q"), _need(args, "a")
    table = _table_for(x)
    return {"x": x, "q": q, "a": a, "e_term": expsums.e_term(table, x, q, a)}


def cmd_bvsum(args) -> dict:
    x, q_max = _need(args, "x"), _need(args, "q_max")
    table = _table_for(x)
    val = expsums.bv_aggregate(table, x, q_max, work_budget=args.work_budget)
    return {"x": x, "q_max": q_max, "bv_sum": val}


def cmd_minorarc(args) -> dict:
    x, a, q, alpha = _need(args, "x"), _need(args, "a"), _need(args, "q"), args.alpha
    if alpha is None:
        if q < 1:
            raise DomainError(f"q must be ≥ 1, got {q}")
        alpha = a / q
    table = _table_for(x)
    return expsums.minor_arc_report(table, x, a, q, alpha)


def _parse_instance(args, x: float, forced_irrational: bool = False) -> gamma.Instance:
    c1, c2, c3, ce = _need(args, "l1"), _need(args, "l2"), _need(args, "l3"), args.eta
    return gamma.Instance(
        lambda1=c1.value, lambda2=c2.value, lambda3=c3.value,
        eta=ce.value, eps=_need(args, "eps"), x=x, lambda0=args.lambda0,
        ratio_irrational=_ratio_irrational(c1, c2, forced_irrational),
    )


def cmd_gamma(args) -> dict:
    x, mode, threads, budget = _need(args, "x"), args.mode, args.threads, args.work_budget
    inst = _parse_instance(args, x)
    table = _table_for(x)
    if mode == "sharp":
        val, count = gamma.gamma_sharp(inst, table, threads, budget)
        return {"mode": "sharp", "x": x, "eps": inst.eps,
                "gamma": val, "triple_count": count}
    k = args.k if args.k is not None else smoothing.suggested_k(x)
    kern = smoothing.kernel_new(inst.eps, k)
    out = {"mode": mode, "x": x, "eps": inst.eps, "k": k}
    if mode == "smoothed":
        return {**out, "gamma0": gamma.gamma_smoothed(inst, kern, table, threads, budget)}
    if mode == "split":
        # default divisor cut X^0.4 keeps all three ranges populated at X ≥ 1e4
        d = args.d if args.d is not None else x ** 0.4
        return {**out, **gamma.gamma_split(inst, kern, table, d, threads, budget).as_dict()}
    j_lo = args.j_lo if args.j_lo is not None else inst.lambda0 * x
    j_hi = args.j_hi if args.j_hi is not None else x
    return {**out, "j_lo": j_lo, "j_hi": j_hi,
            "b_j": gamma.b_j_volume(inst, kern, (j_lo, j_hi), budget)}


def cmd_triples(args) -> str:
    x = _need(args, "x")
    inst = _parse_instance(args, x, args.ratio_irrational)
    table = _table_for(x)
    wits = gamma.find_triples(
        inst, table, require_linnik=frozenset(args.require_linnik),
        max_results=args.max_results, threads=args.threads,
        work_budget=args.work_budget,
    )
    return "# p1\tp2\tp3\tx\ty\tresidual\n" + "".join(
        f"{w.p1}\t{w.p2}\t{w.p3}\t{w.x}\t{w.y}\t{_g(w.residual)}\n" for w in wits)


def cmd_hooley(args) -> dict:
    x = _need(args, "x")
    table = _table_for(x)
    if args.stat == "sigma":
        d, lam0 = _need(args, "d"), args.lambda0
        return {"stat": "sigma_prime", "x": x, "d": d, "lambda0": lam0,
                "value": gamma.hooley_sigma_prime(table, x, d, lam0)}
    omega = _need(args, "omega")
    return {"stat": "f_omega", "x": x, "omega": omega,
            "value": gamma.hooley_f_omega(table, x, omega)}


def cmd_singular(args) -> dict:
    pmax, s, dmax = _need(args, "pmax"), args.s, args.dmax
    table = _table_for(pmax)
    approx = dirichlet.n_s(s, pmax, table)
    lo, hi = approx.bracket()
    # one N(0) for both constants, formed as dirichlet.f_zero and
    # dirichlet.linnik_constant form them, so 4·f(0) = π·N(0) stays bitwise
    n0 = approx.value if s == 0 else dirichlet.n_s(0.0, pmax, table).value
    out = {
        "s": s, "pmax": pmax, "n_s": approx.value,
        "tail_bound": approx.tail_bound, "bracket_lo": lo, "bracket_hi": hi,
        "f_zero": 0.25 * math.pi * n0,
        "linnik_constant": math.pi * n0,
    }
    if dmax is not None:
        out["chi_phi"] = dirichlet.chi_phi_partial(dmax, args.checkpoints or None)
    return out


def cmd_linnik(args) -> dict | str:
    x = _need(args, "x")
    table = _table_for(x)
    if args.empirical:
        return {"x": x, **dirichlet.linnik_empirical(table, x)}
    r, wx = arith.linnik_rows(table, 0, x)          # the first r.size primes
    n, wx = table.primes[: r.size][r > 0] - 1, wx[r > 0]
    # n − x² is a perfect square below 2⁵², whose float root is exact
    wy = np.sqrt(n - wx * wx).astype(np.int64)
    rows = zip(n.tolist(), wx.tolist(), wy.tolist())
    return "# p\tx\ty\n" + "".join(f"{m + 1}\t{a}\t{b}\n" for m, a, b in rows)


_COMMANDS = ("schedule", "cfrac", "kernel", "expsum", "eterm", "bvsum",
             "minorarc", "gamma", "triples", "hooley", "singular", "linnik")


# each shared group adds its flags to the one subparser being built

def _threads(sp):
    sp.add_argument("--threads", type=_positive_int, default=1,
                    help="worker threads for the pair scan (default 1)")


def _budget(sp):
    sp.add_argument("--work-budget", dest="work_budget", type=_positive_int,
                    default=arith.WORK_BUDGET,
                    help=f"cap on work: pair evaluations, the build of θ's "
                         f"table (kernel, gamma), Q·π(X) (bvsum) (default "
                         f"{arith.WORK_BUDGET}; env {ENV_WORK_BUDGET})")


def _instance(sp):
    sp.add_argument("--x", type=_finite_float)
    sp.add_argument("--l1", type=_Coeff)
    sp.add_argument("--l2", type=_Coeff)
    sp.add_argument("--l3", type=_Coeff)
    sp.add_argument("--eta", type=_Coeff, default="0")
    sp.add_argument("--eps", type=_finite_float)
    sp.add_argument("--lambda0", type=_finite_float, default=0.5)


def _build_parser(cmd: str | None = None) -> tuple[argparse.ArgumentParser, dict]:
    """A new parser and its subcommand parsers by name: cmd's only, if it names one."""
    num = _finite_float
    p = argparse.ArgumentParser(
        prog="linniklab",
        description="Numerical laboratory for a three-prime Diophantine "
                    "inequality in which one prime is one plus a sum of "
                    "two squares.",
    )
    # the usage lists every subcommand also when one is built
    sub = p.add_subparsers(dest="cmd", required=True,
                           metavar="{%s}" % ",".join(_COMMANDS) if cmd in _COMMANDS else None)

    def add(name, run, *shared, **text):
        if cmd in _COMMANDS and name != cmd:
            return argparse.Namespace(add_argument=lambda *a, **k: None)
        sp = sub.add_parser(name, **text)
        sp.set_defaults(run=run)
        sp.add_argument("--config", help="key=value file supplying flag defaults")
        for group in shared:
            group(sp)
        return sp

    sp = add(
        "schedule", cmd_schedule,
        help="derived parameter schedule at a given scale",
        description="Derived parameters at scale X: major-arc radius, "
                    "divisor cut D, window width, smoothing budget; or, with "
                    "--eps-report, a certificate that the asymptotic window "
                    "width stays above 1 for all X up to 1e300.")
    sp.add_argument("--x", type=num)
    sp.add_argument("--mode", choices=["paper", "desk"], default="paper")
    sp.add_argument("--d", type=num)
    sp.add_argument("--eps", type=num)
    sp.add_argument("--h", type=num)
    sp.add_argument("--delta", type=num)
    sp.add_argument("--eps-report", dest="eps_report", action="store_true",
                    help="emit the window-width positivity certificate")
    sp.add_argument("--x-lo", dest="x_lo", type=num, default=100.0)
    sp.add_argument("--x-hi", dest="x_hi", type=num, default=1e300)

    sp = add(
        "cfrac", cmd_cfrac,
        help="certified continued-fraction convergents",
        description="Convergents a/q of a certified real; every emitted "
                    "convergent satisfies |x - a/q| < 1/q².")
    sp.add_argument("--name", choices=sorted(cfrac.NAMED) + ["-sqrt2", "-sqrt3", "-phi", "-e"])
    sp.add_argument("--value", help="decimal or decimal±err")
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--pattern", action="store_true",
                    help="use the classical expansion pattern (named constants only)")
    sp.add_argument("--verify", action="store_true",
                    help="append q²·|x - a/q| per row")

    sp = add(
        "kernel", cmd_kernel, _budget,
        help="smoothed window function tables",
        description="Tabulate the C^k smoothed window θ (plateau on "
                    "[-3ε/4, 3ε/4], support (-ε, ε)) or, with --fourier, its "
                    "transform and decay ceiling.")
    sp.add_argument("--eps", type=num)
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--grid", type=int, default=201)
    sp.add_argument("--ymax", type=num)
    sp.add_argument("--fourier", action="store_true")
    sp.add_argument("--xmax", type=num)

    sp = add(
        "expsum", cmd_expsum,
        help="prime exponential sum vs its integral",
        description="S(α) = Σ e(αp)·ln p over a prime range against "
                    "I(α) = ∫ e(αy) dy, with the normalized gap |S-I|/X.")
    sp.add_argument("--x", type=num)
    sp.add_argument("--alpha", type=num)
    sp.add_argument("--lambda0", type=num, default=0.5)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--lo", type=num)
    sp.add_argument("--hi", type=num)
    sp.add_argument("--delta", type=num,
                    help="major-arc radius to compare |α| against")

    sp = add(
        "eterm", cmd_eterm,
        help="prime-progression error term",
        description="E(x;q,a) = Σ_{p≤x, p≡a (q)} ln p − x/φ(q).")
    sp.add_argument("--x", type=num)
    sp.add_argument("--q", type=int)
    sp.add_argument("--a", type=int)

    sp = add(
        "bvsum", cmd_bvsum, _budget,
        help="aggregated worst-case progression error",
        description="Σ_{q≤Q} max over residues and y ≤ X of |E(y;q,a)|, "
                    "the quantity the large-sieve machinery controls on "
                    "average over moduli.")
    sp.add_argument("--x", type=num)
    sp.add_argument("--q-max", dest="q_max", type=int)

    sp = add(
        "minorarc", cmd_minorarc,
        help="exponential sum near a rational point",
        description="|S(α)| for α within 1/q² of a/q, against the classical "
                    "q-dependent ceiling (reported, not asserted).")
    sp.add_argument("--x", type=num)
    sp.add_argument("--a", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--alpha", type=num, help="defaults to a/q")

    sp = add(
        "gamma", cmd_gamma, _threads, _budget, _instance,
        help="weighted triple counts",
        description="Weighted counts over prime triples with "
                    "|λ₁p₁+λ₂p₂+λ₃p₃+η| small: sharp window, smoothed "
                    "window, its three-way divisor split (exact identity "
                    "Γ₀ = 4(Γ₁+Γ₂+Γ₃)), or the continuous volume analogue.")
    sp.add_argument("--mode", choices=["sharp", "smoothed", "split", "volume"],
                    default="sharp")
    sp.add_argument("--d", type=num, help="divisor cut for --mode split (default X^0.4)")
    sp.add_argument("--k", type=int, help="smoothness order (default ⌊ln X⌋)")
    sp.add_argument("--j-lo", dest="j_lo", type=num, help="default λ₀X")
    sp.add_argument("--j-hi", dest="j_hi", type=num, help="default X")

    sp = add(
        "triples", cmd_triples, _threads, _budget, _instance,
        help="explicit solution triples with witnesses",
        description="Prime triples satisfying the inequality, each with the "
                    "two-squares witness (x, y) of p3 = x²+y²+1 (-1, -1 when "
                    "p3 has none); residuals re-verified exactly.")
    sp.add_argument("--ratio-irrational", dest="ratio_irrational", action="store_true",
                    help="pledge that λ₁/λ₂ is irrational (theorem mode)")
    sp.add_argument("--require-linnik", dest="require_linnik", type=_int_list,
                    default="3",
                    help="comma list of positions that must be Linnik primes "
                         "(default 3; empty string for none)")
    sp.add_argument("--max-results", dest="max_results", type=int, default=100)

    sp = add(
        "hooley", cmd_hooley,
        help="mid-range divisor statistics of p−1",
        description="Mean-square character sum over divisors of p−1 in "
                    "(D, X/D), or the count of p whose p−1 has a divisor "
                    "near √X.")
    sp.add_argument("--x", type=num)
    sp.add_argument("--stat", choices=["sigma", "fomega"], default="sigma")
    sp.add_argument("--d", type=num)
    sp.add_argument("--lambda0", type=num, default=0.0)
    sp.add_argument("--omega", type=num)

    sp = add(
        "singular", cmd_singular,
        help="Euler products and the density constant",
        description="Truncated Euler product N(s), the two-squares density "
                    "constant (π/4)·N(0), the asymptotic constant π·N(0), "
                    "and optional character partial sums Σ χ(d)/φ(d).")
    sp.add_argument("--pmax", type=_int_from_float)
    sp.add_argument("--s", type=num, default=0.0)
    sp.add_argument("--dmax", type=_int_from_float)
    sp.add_argument("--checkpoints", type=_int_list,
                    help="comma list of D ≤ Dmax (default Dmax)")

    sp = add(
        "linnik", cmd_linnik,
        help="primes of the form x²+y²+1",
        description="List primes p ≤ X expressible as x²+y²+1 with a "
                    "witness pair, or (--empirical) compare Σ r(p−1) to its "
                    "predicted main term.")
    sp.add_argument("--x", type=num)
    sp.add_argument("--empirical", action="store_true")

    return p, sub.choices


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        report = args.run(args)
        if isinstance(report, dict):
            report = _json_line(report)
        sys.stdout.writelines((report,) if isinstance(report, str) else report)
        return 0
    except SystemExit as exc:      # argparse printed the usage and the reason
        return exc.code
    except (DomainError, PrecisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ResourceError, NumericError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
