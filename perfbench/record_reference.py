"""Record reference_seed0.json: the parsed seed-0 outputs of every workload.

    python3 perfbench/record_reference.py

The file pins the outputs of the commit it was recorded at; later commits
are checked against it (oracles.compare), so re-record it only when an
output is meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import sys
import time

import oracles
import run
import workloads


def main() -> int:
    oracle = oracles.Oracle(10**6)
    out = {}
    for name in workloads.NAMES:
        commands = workloads.build(name, 0)
        rep = run.run_worker(commands, False, run.OUT / "unused.tsv",
                             time.perf_counter() + 600)
        if run.check_rep(rep, commands, oracle, None, None):
            return 1
        out[name] = [{"argv": list(c.argv),
                      "output": oracles.canonical(oracles.parse(r["stdout"]))}
                     for c, r in zip(commands, rep["commands"])]
    (run.HERE / "reference_seed0.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
