"""Seeded command lists for the benchmark workloads.

Each workload is a fixed list of `linniklab` argv lists.  The seed picks only
values that leave the amount of work of the same order: the shift η of the
pair-scan instances, the divisor cut D, the modulus q and the frequency α.
The program receives nothing but the generated argv.  Why each workload
exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

NAMES = ("triples-1e6", "split-1e5", "tour-arith")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # (X, λ₀) of a pair scan over primes in (λ₀X, X], else None
    pair_scan: tuple[float, float] | None = None


def _threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _eta(rng: random.Random) -> str:
    return f"{rng.uniform(-1.0, 1.0):.4f}"


def _triples(x: str, eta: str, threads: int) -> Command:
    return Command(
        ("triples", "--l1", "sqrt2", "--l2", "-1", "--l3=-sqrt3",
         f"--eta={eta}", "--eps", "0.01", "--x", x, "--lambda0", "0.5",
         "--threads", str(threads)),
        pair_scan=(float(x), 0.5),
    )


def _gamma(mode: str, x: str, eta: str, *extra: str) -> Command:
    return Command(
        ("gamma", "--mode", mode, "--x", x, "--l1", "1.4", "--l2", "-1",
         "--l3", "-1.7", f"--eta={eta}", "--eps", "2", "--lambda0", "0.1",
         *extra),
        pair_scan=None if mode == "volume" else (float(x), 0.1),
    )


def build(name: str, seed: int) -> list[Command]:
    """The command list of workload `name` at `seed`."""
    rng = random.Random(f"{name}/{seed}")
    if name == "triples-1e6":
        return [_triples("1e6", _eta(rng), _threads())]
    if name == "split-1e5":
        return [_gamma("split", "1e5", _eta(rng), "--d", "100")]
    if name == "tour-arith":
        d = rng.randint(20, 400)           # any 1 < D < √X costs the same
        q = rng.randint(20, 80)            # a = 1 is coprime to every q
        alpha = f"{rng.uniform(0.05, 0.45):.4f}"
        eta = _eta(rng)
        argvs = [
            "linnik --x 1e6",
            f"hooley --x 1e6 --stat sigma --d {d}",
            "hooley --x 1e6 --stat fomega --omega 1",
            "linnik --x 1e7 --empirical",
            "singular --pmax 1e7 --dmax 1e6 --checkpoints 100,10000,1000000",
            "bvsum --x 1e6 --q-max 30",
            "eterm --x 1e6 --q 4 --a 1",
            f"minorarc --x 1e7 --a 1 --q {q}",
            f"expsum --x 1e7 --alpha {alpha}",
            "schedule --eps-report",
            "cfrac --name sqrt2 --count 8 --verify",
            "kernel --eps 0.1 --k 4 --grid 2001 --fourier",
        ]
        return [Command(tuple(a.split())) for a in argvs] + [
            _gamma("volume", "1e5", "0"),
            # small pair scans, so the tour reaches every subcommand
            _gamma("sharp", "3e4", eta),
            _triples("1e5", eta, _threads()),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
