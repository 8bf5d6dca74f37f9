"""Outside-in layer spans for a traced benchmark worker.

`Tracer.install` replaces chosen public functions of the linniklab modules
with timing wrappers.  Modules import each other's functions by name
(`from .arith import divisors`), so a wrapper is installed under every
module attribute that holds the original function: `gamma.divisors` and
`arith.divisors` both time the same calls.  Per-element helpers (`chi`,
`factorize`, `euler_phi`, `theta_antiderivative`) are left alone; they run
inside loops where a wrapper would cost more than the work, and their time
stays in the caller's self time.

Spans are kept in memory as (id, parent, name, t0, t1, count) tuples and
written out once, after the measured commands have finished.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy as np

# module -> public functions that get a span; the span name is "module.function"
WRAP = {
    "arith": ("sieve_primes", "r2_bulk", "divisors", "linnik_witness"),
    "smoothing": ("theta_eval", "theta_fourier", "theta_fourier_bound"),
    "gamma": ("gamma_sharp", "gamma_smoothed", "gamma_split", "find_triples",
              "b_j_volume", "hooley_sigma_prime", "hooley_f_omega"),
    "expsums": ("s_ld", "i_j", "e_term", "bv_aggregate", "major_arc_gap",
                "minor_arc_report"),
    "dirichlet": ("n_s", "f_zero", "linnik_constant", "chi_phi_partial",
                  "linnik_empirical"),
    "cfrac": ("certified_named", "certified_decimal", "convergents",
              "convergents_from_terms", "verify_eq1"),
    "schedule": ("paper_schedule", "desk_schedule", "eps_positivity_report"),
}

# span name -> count recorded with each call, from (args, kwargs, result)
COUNTS = {
    "arith.linnik_witness": lambda a, k, out: int(out is not None),
    "arith.r2_bulk": lambda a, k, out: int(np.size(a[0] if a else k["ns"])),
    "smoothing.theta_eval":
        lambda a, k, out: int(np.size(a[1] if len(a) > 1 else k["y"])),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, ids, main = self.spans, self._ids, self._main
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs under the caller's open span
            parent = stack[-1] if stack else (main[-1] if main else -1)
            sid = next(ids)
            stack.append(sid)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1,
                              count(args, kwargs, out) if count else 0))

        return traced

    def install(self):
        """Wrap every function in WRAP under each name the package binds it to."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "linniklab" or k.startswith("linniklab.")}
        for modname, funcs in WRAP.items():
            mod = mods.get(f"linniklab.{modname}")
            for fname in funcs:
                # a function the program no longer has simply records nothing
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                wrapped = self.wrap(f"{modname}.{fname}", orig)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, count sum.

        Self time is a span's duration minus the part of it that the union
        of its children's intervals covers.
        """
        kids: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, t0, t1, _ in self.spans:
            kids.setdefault(parent, []).append((t0, t1))
        out: dict[str, list] = {}
        for sid, _, name, t0, t1, cnt in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(kids.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            agg = out.setdefault(name, [0, 0.0, 0.0, 0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += (t1 - t0) - covered
            agg[3] += cnt
        return {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2], "count": v[3]}
                for k, v in out.items()}

    def dump(self, path: str):
        """Write the spans as TSV, times in seconds from the first span."""
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("# id\tparent\tname\tstart_s\tend_s\tcount\n")
            for sid, parent, name, t0, t1, cnt in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0 - base:.9f}\t"
                         f"{t1 - base:.9f}\t{cnt}\n")
