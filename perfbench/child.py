"""Child processes started by the benchmark.

    python3 perfbench/child.py setup <workload>
        Time ``import richtoric`` plus the workload's warm-up calls in a
        fresh interpreter; print the raw seconds.
    python3 perfbench/child.py cli <richtoric arguments...>
        Run ``richtoric.cli.main`` with the layer tracer installed.  Stdout
        and the exit code are the program's own; the trace goes to
        ``perfbench/out/cli-<pid>.json``.  ``PERFBENCH_SPAWN`` holds the
        parent's ``time.monotonic()`` at spawn, for the start-up time.
"""

from __future__ import annotations

import json
import os
import sys
import time

import inputs


def setup(workload: str) -> int:
    import workloads

    t0 = time.perf_counter()
    rt = inputs.import_program()
    workloads.warm_up(rt, workload)
    print(repr(time.perf_counter() - t0))
    return 0


def traced_cli(argv) -> int:
    inputs.import_program()
    import richtoric.cli

    startup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])
    import tracer
    import workloads

    t = tracer.install()
    t.kind = workloads.request_kind(argv)
    try:
        return richtoric.cli.main(argv)
    finally:
        summary = t.summary()
        summary["startup_s"] = startup_s
        summary["span_list"] = t.spans
        inputs.OUT_DIR.mkdir(exist_ok=True)
        with open(inputs.OUT_DIR / f"cli-{os.getpid()}.json", "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2]))
    if mode == "cli":
        sys.exit(traced_cli(sys.argv[2:]))
    sys.exit(f"unknown mode {mode!r}")
