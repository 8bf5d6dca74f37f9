"""linniklab benchmark: drives the CLI in fresh worker processes and checks
every output.

    python3 perfbench/run.py --workload triples-1e6 --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  This process builds the command list from the seed and starts
workers one at a time: a closed loop with one client.  Each worker is a
fresh interpreter that imports `linniklab.cli` and runs the whole list (see
worker.py).  After one untimed warm-up import, workers run until `--seconds`
is spent (at least MIN_REPS), and the metrics are medians over them.  With
`--trace 0` each is followed by an import-only worker that samples set-up
time once more.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced and
traced workers and prints the per-layer metrics.  The last line of stdout is
the result object; the line before it records the machine.  README.md
defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import oracles
import workloads
from worker import IMPORT_BEGIN, IMPORT_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
HARD_LIMIT_S = 170.0          # the whole run ends well inside 180 s
LAYERS = ("arith", "smoothing", "gamma", "expsums", "dirichlet", "cfrac",
          "schedule", "cli")
IMPORTS = ("linniklab", "numpy", "scipy", "mpmath")


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        **{m: metadata.version(m) for m in ("numpy", "scipy", "mpmath")},
    }


def run_worker(commands, trace: bool, spans_out: Path, deadline: float) -> dict:
    spec = {"src": str(SRC), "commands": [list(c.argv) for c in commands],
            "trace": trace, "spans_out": str(spans_out)}
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) \
        + [str(HERE / "worker.py")]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(cmd, input=json.dumps(spec), capture_output=True,
                          text=True, cwd=ROOT, env=env,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    rep = json.loads(proc.stdout)
    if trace:
        rep["imports"] = import_split(proc.stderr)
    return rep


def import_split(stderr: str) -> dict:
    """Self time of the timed import per top-level package, from -X importtime."""
    out = dict.fromkeys(IMPORTS, 0.0)
    inside = False
    for line in stderr.splitlines():
        if line in (IMPORT_BEGIN, IMPORT_END):
            inside = line == IMPORT_BEGIN
        elif inside and line.startswith("import time:") and "|" in line:
            self_us, _, name = (f.strip() for f in line[12:].split("|"))
            top = name.split(".")[0]
            if self_us.isdigit() and top in out:
                out[top] += int(self_us) * 1e-6
    return out


def check_rep(rep, commands, oracle, reference, first) -> list[int]:
    """Indices of the commands in `rep` that failed; prints why to stderr."""
    failed = []
    for i, (cmd, res) in enumerate(zip(commands, rep["commands"])):
        probs = []
        if res["error"] is not None:
            probs.append(res["error"].strip().splitlines()[-1])
        elif res["rc"] != 0:
            probs.append(f"exit code {res['rc']}")
        else:
            probs = oracle.check(cmd.argv, res["stdout"])
            if reference is not None and not probs:
                got = oracles.canonical(oracles.parse(res["stdout"]))
                probs = oracles.compare(got, reference[i]["output"], cmd.argv[0])
            if first is not None and res["stdout"] != first["commands"][i]["stdout"]:
                probs.append("stdout differs from the first run of the same argv")
        if probs:
            failed.append(i)
            sys.stderr.write(f"FAIL {' '.join(cmd.argv)}\n")
            for p in probs[:5]:
                sys.stderr.write(f"    {p}\n")
    return failed


def load_reference(name: str, commands) -> list:
    ref = json.loads((HERE / "reference_seed0.json").read_text())[name]
    if [r["argv"] for r in ref] != [list(c.argv) for c in commands]:
        raise RuntimeError(f"reference_seed0.json does not hold the seed-0 "
                           f"argv of {name}")
    return ref


def pair_counts(commands, is_prime) -> list[int]:
    """P² per command, P = #primes in (λ₀X, X]; 0 for commands with no pair scan."""
    out = []
    for c in commands:
        if c.pair_scan is None:
            out.append(0)
            continue
        x, lam0 = c.pair_scan
        p = int(is_prime[int(lam0 * x) + 1:int(x) + 1].sum())
        out.append(p * p)
    return out


def end_to_end(reps, setups, pairs) -> dict:
    rates = [sum(pairs) / r["run_s"] for r in reps]
    return {
        "run_s": (median([r["run_s"] for r in reps]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
        "pairs_per_s": (median(rates), "1/s"),
    }


def per_layer(plain, traced, pairs, n_failed, n_attempted) -> dict:
    def med(fn):
        return median([fn(r) for r in traced])

    def span(r, name, field):
        return r["spans"].get(name, {}).get(field, 0)

    def layer_self(r, layer):
        return sum(v["self_s"] for k, v in r["spans"].items()
                   if k.split(".")[0] == layer)

    m = {}
    for short, name in (("sieve", "arith.sieve_primes"), ("r2", "arith.r2_bulk"),
                        ("divisors", "arith.divisors"),
                        ("witness", "arith.linnik_witness")):
        m[f"arith.{short}_s"] = (med(lambda r: span(r, name, "incl_s")), "s")
        m[f"arith.{short}_calls"] = (med(lambda r: span(r, name, "calls")), "count")
    m["arith.r2_elems"] = (med(lambda r: span(r, "arith.r2_bulk", "count")), "count")
    calls, found = m["arith.witness_calls"][0], \
        med(lambda r: span(r, "arith.linnik_witness", "count"))
    m["arith.witness_found_ratio"] = (found / calls if calls else 0.0, "ratio")
    m["smoothing.theta_s"] = (med(lambda r: span(r, "smoothing.theta_eval", "incl_s")), "s")
    m["smoothing.theta_points"] = (
        med(lambda r: span(r, "smoothing.theta_eval", "count")), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda r: layer_self(r, layer)), "s")

    first = traced[0]["commands"]
    counted = [i for i, c in enumerate(first) if c["stdout"].startswith("{")
               and "triple_count" in json.loads(c["stdout"])]
    hits = sum(json.loads(first[i]["stdout"])["triple_count"] for i in counted)
    hit_pairs = sum(pairs[i] for i in counted)
    m["gamma.pairs"] = (sum(pairs), "count")
    m["gamma.hits"] = (hits, "count")
    m["gamma.hit_ratio"] = (hits / hit_pairs if hit_pairs else 0.0, "ratio")
    m["cli.stdout_bytes"] = (sum(len(c["stdout"].encode()) for c in first), "bytes")
    m["cli.fail_frac"] = (n_failed / n_attempted, "ratio")

    for pkg in IMPORTS:
        m[f"import.{pkg}_s"] = (med(lambda r: r["imports"][pkg]), "s")
    traced_run = med(lambda r: r["run_s"])
    m["trace.run_s"] = (traced_run, "s")
    m["trace.overhead_s"] = (traced_run - median([r["run_s"] for r in plain]), "s")
    m["trace.unattributed_s"] = (
        med(lambda r: r["run_s"] - sum(layer_self(r, l) for l in LAYERS)), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + HARD_LIMIT_S
    if not (SRC / "linniklab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no linniklab sources under {SRC}\n")
        return 2
    commands = workloads.build(args.workload, args.seed)
    reference = load_reference(args.workload, commands) if args.seed == 0 else None
    oracle = oracles.Oracle(10**6)
    pairs = pair_counts(commands, oracle.is_prime)
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"

    # untimed: compiles bytecode and warms the file cache, which users have
    run_worker([], False, spans_out, deadline)

    plain, traced, setups = [], [], []
    n_attempted = n_failed = 0
    t0 = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(plain) > len(traced)
        rep = run_worker(commands, trace, spans_out, deadline)
        first = plain[0] if plain else None
        n_attempted += len(commands)
        n_failed += len(check_rep(rep, commands, oracle, reference, first))
        (traced if trace else plain).append(rep)
        if not args.trace:
            setups.append(rep["setup_s"])
            setups.append(run_worker([], False, spans_out, deadline)["setup_s"])
        elapsed = time.perf_counter() - t0
        per_rep = elapsed / (len(plain) + len(traced))
        enough = len(plain) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
        if enough and elapsed + per_rep > args.seconds:
            break
        if time.perf_counter() + 2 * per_rep > deadline:
            break

    if args.trace:
        metrics = per_layer(plain, traced, pairs, n_failed, n_attempted)
    else:
        metrics = end_to_end(plain, setups, pairs)
    sys.stderr.write(
        f"perfbench: {args.workload} seed {args.seed}: {len(plain)} plain + "
        f"{len(traced)} traced workers, run_s "
        f"{[round(r['run_s'], 3) for r in plain]}\n")
    print(json.dumps({"machine": machine(), "workload": args.workload,
                      "seed": args.seed,
                      "argv": [" ".join(c.argv) for c in commands]}))
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": n_attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
