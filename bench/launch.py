#!/usr/bin/env python3
"""Traced `python -m sdesym.cli`, for the traced run of the cli-cold workload.

    PYTHONPATH=src python3 bench/launch.py SPANS_DIR ARGS...

Installs the span wrappers of spans.py, runs `sdesym.cli.main(ARGS)` and
writes this process's counters, self times and spans to
SPANS_DIR/<start time in ns>-<pid>.json.  Exits with main's exit code.
"""

import json
import os
import sys
import time


def main() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    start_ns = time.time_ns()
    import sdesym
    import sdesym.cli
    from spans import Tracer, register_counters

    tracer = Tracer()
    register_counters(tracer)
    tracer.install(sdesym)
    try:
        code = sdesym.cli.main(argv)
    except SystemExit as exc:   # argparse rejects the arguments
        code = exc.code
    finally:
        tracer.uninstall()
    record = {"summary": tracer.summary(),
              "main_s": sum(tracer.root_s.values()),
              "spans": [s for s in tracer.spans if s is not None]}
    path = os.path.join(out_dir, f"{start_ns:020d}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
