"""One benchmark worker: a fresh interpreter that imports the CLI once and
runs a command list through `linniklab.cli.main`, one command after another.

Input, a JSON object on stdin:
    src        directory that must hold the imported `linniklab` package
    commands   list of argv lists
    trace      wrap the layers with spans (see spans.py)
    spans_out  where a traced worker writes its spans
Output, one JSON object on stdout: setup_s (the import), run_s (the command
list), peak_rss_mb, per-command exit code, seconds, captured stdout and error,
and for a traced worker the span summary.  With `python -X importtime`, the
import's own breakdown goes to stderr between two marker lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

IMPORT_BEGIN = "perfbench: import begin"
IMPORT_END = "perfbench: import end"


def _run(entry, argv: list[str]) -> dict:
    buf = io.StringIO()
    rc, err = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = entry(argv)
    except SystemExit as exc:          # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        err = traceback.format_exc()
    return {"rc": rc, "s": time.perf_counter() - t0,
            "stdout": buf.getvalue(), "error": err}


def main() -> int:
    spec = json.load(sys.stdin)
    print(IMPORT_BEGIN, file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    import linniklab.cli as cli
    setup_s = time.perf_counter() - t0
    print(IMPORT_END, file=sys.stderr, flush=True)

    pkg = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(pkg) != os.path.abspath(spec["src"]):
        print(f"perfbench: imported linniklab from {pkg}, not from "
              f"{spec['src']}", file=sys.stderr)
        return 2

    tracer = None
    entry = cli.main
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)

    t0 = time.perf_counter()
    results = [_run(entry, argv) for argv in spec["commands"]]
    run_s = time.perf_counter() - t0
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": results,
    }
    if tracer is not None:
        out["spans"] = tracer.summary()
        tracer.dump(spec["spans_out"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
