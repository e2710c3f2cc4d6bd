"""Traced cold CLI process: ``cli_child.py DUMP TASK CLI-ARGS...``.

Times ``import redhom.cli``, installs the span wrappers, runs the CLI and
writes the spans, counters and builder cache totals to DUMP.  The exit code
is the CLI's.
"""

import json
import sys
import time

from guards import CacheLedger
from spans import Tracer


def main() -> int:
    dump_path, task, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.task = task
    start = time.perf_counter()
    import redhom.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return redhom.cli.main(cli_args)
    finally:
        dump = tracer.dump()
        dump["cache"] = CacheLedger().totals()
        with open(dump_path, "w") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main())
