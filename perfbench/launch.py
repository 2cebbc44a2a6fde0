"""Child process of the cold workloads: run one ``dfchaos`` CLI command.

    python3 perfbench/launch.py <dfchaos arguments...>

It behaves like ``python -m dfchaos.cli``: stdout, stderr and the exit code
are the CLI's own.  With ``PERFBENCH_TRACE_OUT`` set, it first installs the
tracer's wrappers and, on exit, writes the trace summary to that file, with
``import_s`` = time from ``PERFBENCH_SPAWN`` (the parent's
``time.monotonic()`` just before spawning) to the tracer's
installation, just before ``main`` is entered.
"""

import json
import os
import sys
import time

import dfchaos.cli


def main() -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        return dfchaos.cli.main(sys.argv[1:])

    from tracer import Tracer

    import_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])
    tracer = Tracer()
    tracer.install()
    try:
        return dfchaos.cli.main(sys.argv[1:])
    finally:
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
