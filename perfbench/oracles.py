"""Output checks that do not use the code under test.

`Oracle.check` parses one command's stdout and returns a list of problems;
an empty list means the output passed.  The independent pieces are:

- a plain Eratosthenes sieve, for primality;
- a least-witness table, built by enumerating x ≤ y with x² + y² ≤ N in
  descending x, so the least x wins;
- residuals recomputed with mpmath at 256 bits from `mpmath.sqrt`.

At seed 0 the parsed outputs are also compared with reference values
recorded from the seed commit (reference_seed0.json): integers exactly, floats
within REL_TOL.  Bytes are not compared, so a later engine that changes the
15th digit still passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import mpmath
import numpy as np

REL_TOL = 1e-9
_INT = re.compile(r"-?\d+")


def sieve(n: int) -> np.ndarray:
    """is_prime[0..n] by the sieve of Eratosthenes."""
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p::p] = False
    return is_p


def witness_table(n: int) -> np.ndarray:
    """wx[m] = least x with m = x² + y², 0 ≤ x ≤ y, or −1; for m ≤ n."""
    wx = np.full(n + 1, -1, dtype=np.int64)
    for x in range(math.isqrt(n // 2), -1, -1):
        y = np.arange(x, math.isqrt(n - x * x) + 1, dtype=np.int64)
        wx[x * x + y * y] = x
    return wx


def options(argv) -> dict:
    """--key value / --key=value / bare --flag (True) from an argv list."""
    out, i = {}, 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            if "=" in tok:
                k, v = tok[2:].split("=", 1)
            elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                k, v = tok[2:], argv[i + 1]
                i += 1
            else:
                k, v = tok[2:], True
            out[k] = v
        i += 1
    return out


def parse(text: str):
    """Single-line JSON -> ("json", value); '#'-headed TSV -> ("tsv", header, rows)."""
    if text.startswith("{"):
        return ("json", json.loads(text))
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("output is neither a JSON line nor a '#'-headed TSV")
    header = lines[0][2:].split("\t")
    rows = [[int(c) if _INT.fullmatch(c) else float(c) for c in ln.split("\t")]
            for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("TSV row width differs from its header")
    return ("tsv", header, rows)


def canonical(parsed):
    """Reference form: JSON as is; TSV integer columns as a digest."""
    if parsed[0] == "json":
        return parsed[1]
    _, header, rows = parsed
    cols = []
    for j in range(len(header)):
        col = [r[j] for r in rows]
        if all(isinstance(v, int) for v in col):
            blob = ",".join(map(str, col)).encode()
            cols.append({"ints_sha256": hashlib.sha256(blob).hexdigest()})
        else:
            cols.append(col)
    return {"header": header, "rows": len(rows), "columns": cols}


def compare(got, ref, where: str = "") -> list[str]:
    """Integers, bools, strings and None equal; floats within REL_TOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ from the reference"]
        return [p for k in ref for p in compare(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs from the reference"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in compare(g, r, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(ref, numbers) and isinstance(got, numbers)
            and not isinstance(ref, bool) and not isinstance(got, bool)
            and not (isinstance(ref, int) and isinstance(got, int))):
        if abs(got - ref) <= REL_TOL * max(abs(got), abs(ref)):
            return []
        return [f"{where}: {got!r} vs reference {ref!r}"]
    if type(got) is not type(ref) or got != ref:
        return [f"{where}: {got!r} vs reference {ref!r}"]
    return []


def _hp(text: str):
    """256-bit value of a coefficient as the CLI accepts it (sign + name/decimal)."""
    sign = -1 if text.startswith("-") else 1
    key = text.lstrip("+-")
    named = {"sqrt2": lambda: mpmath.sqrt(2), "sqrt3": lambda: mpmath.sqrt(3)}
    return sign * (named[key]() if key in named else mpmath.mpf(key))


def _finite(v) -> bool:
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, dict):
        return all(_finite(u) for u in v.values())
    if isinstance(v, list):
        return all(_finite(u) for u in v)
    return True


class Oracle:
    """Independent tables up to `limit`, and the per-command checks."""

    def __init__(self, limit: int):
        self.limit = limit
        self.is_prime = sieve(limit)
        self.wx = witness_table(limit)

    def check(self, argv, stdout: str) -> list[str]:
        try:
            parsed = parse(stdout)
        except ValueError as exc:
            return [f"unparseable output: {exc}"]
        if parsed[0] == "json" and not _finite(parsed[1]):
            return ["non-finite number in JSON output"]
        try:
            return self._check(options(argv), argv[0], parsed)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]

    def _check(self, opt, cmd, parsed) -> list[str]:
        if cmd == "triples":
            return self._triples(opt, parsed)
        if cmd == "gamma" and opt.get("mode") in ("split", "sharp"):
            return self._gamma(opt["mode"], parsed[1])
        if cmd == "linnik" and "empirical" not in opt:
            return self._linnik(opt, parsed)
        if cmd == "singular":
            v = parsed[1]
            if not math.isclose(v["linnik_constant"], 4 * v["f_zero"], rel_tol=1e-13):
                return ["linnik_constant != 4·f_zero"]
            if not v["bracket_lo"] <= v["n_s"] <= v["bracket_hi"]:
                return ["n_s outside its certified bracket"]
        if cmd == "cfrac" and "verify" in opt:
            if any(not r[3] < 1 for r in parsed[2]):
                return ["a convergent has q²·|x − a/q| ≥ 1"]
        if cmd == "kernel" and "fourier" in opt:
            if any(abs(r[1]) > r[2] * (1 + 1e-12) for r in parsed[2]):
                return ["|theta_hat| exceeds its proven envelope"]
        return []

    def _triples(self, opt, parsed) -> list[str]:
        if parsed[0] != "tsv" or parsed[1] != ["p1", "p2", "p3", "x", "y", "residual"]:
            return ["triples: unexpected output layout"]
        rows = parsed[2]
        x_max = float(opt["x"])
        lo = float(opt["lambda0"]) * x_max
        if not 1 <= len(rows) <= int(opt.get("max-results", 100)):
            return [f"triples: {len(rows)} rows"]
        if x_max > self.limit:
            return [f"triples: X={x_max} beyond the oracle's table"]
        probs = []
        last = -1.0
        with mpmath.workprec(256):
            lam = [_hp(opt[k]) for k in ("l1", "l2", "l3")]
            eta, eps = _hp(opt.get("eta", "0")), mpmath.mpf(opt["eps"])
            for row in rows:
                ps, x, y, res = row[:3], row[3], row[4], row[5]
                if not all(isinstance(p, int) and lo < p <= x_max
                           and self.is_prime[p] for p in ps):
                    probs.append(f"triples: {ps} not primes in ({lo:g}, {x_max:g}]")
                    continue
                if ps[2] - 1 != x * x + y * y or not 0 <= x <= y \
                        or self.wx[ps[2] - 1] != x:
                    probs.append(f"triples: ({x}, {y}) is not the least witness "
                                 f"of p3 = {ps[2]}")
                r = sum(l * p for l, p in zip(lam, ps)) + eta
                if not abs(r) < eps:
                    probs.append(f"triples: |residual| ≥ eps for {ps}")
                if abs(res - float(r)) > 1e-12 * abs(float(r)):
                    probs.append(f"triples: printed residual {res!r} vs {float(r)!r}")
                # the finder orders by its float residual: allow its rounding
                if abs(float(r)) < last - 1e-8:
                    probs.append("triples: rows not sorted by |residual|")
                last = max(last, abs(float(r)))
        return probs

    @staticmethod
    def _gamma(mode: str, v: dict) -> list[str]:
        probs = []
        cnt = v.get("triple_count")
        if not isinstance(cnt, int) or isinstance(cnt, bool) or cnt < 0:
            probs.append(f"gamma: triple_count {cnt!r} is not a count")
        if mode == "split":
            ident = 4 * (v["g1"] + v["g2"] + v["g3"])
            if not abs(ident - v["gamma0"]) <= 1e-9 * abs(v["gamma0"]):
                probs.append(f"gamma: 4(g1+g2+g3) = {ident!r} vs gamma0 = "
                             f"{v['gamma0']!r}")
        return probs

    def _linnik(self, opt, parsed) -> list[str]:
        if parsed[0] != "tsv" or parsed[1] != ["p", "x", "y"]:
            return ["linnik: unexpected output layout"]
        x_max = int(float(opt["x"]))
        if x_max > self.limit:
            return [f"linnik: X={x_max} beyond the oracle's table"]
        got = np.array(parsed[2], dtype=np.int64).reshape(-1, 3)
        ps = np.nonzero(self.is_prime[:x_max + 1])[0]
        ps = ps[self.wx[ps - 1] >= 0]
        xs = self.wx[ps - 1]
        ys = np.sqrt(ps - 1 - xs * xs).round().astype(np.int64)
        if len(got) != len(ps):
            return [f"linnik: {len(got)} rows, independent count {len(ps)}"]
        if not np.array_equal(got, np.stack([ps, xs, ys], axis=1)):
            return ["linnik: rows differ from the independent witness table"]
        return []
