"""Run one `bgg` command under the layer tracer.

Usage: python cli_child.py <fd> <bgg arguments...>

Behaves like `python -m bgg.cli <arguments>` (same stdout, stderr and
exit code) and, when the command ends, writes its import time, main time
and tracer state as JSON to the inherited file descriptor <fd>.
"""

import json
import os
import sys
import time

from tracing import Tracer


def main() -> None:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    clock = time.perf_counter
    start = clock()
    import bgg.cli

    import_s = clock() - start
    tracer = Tracer()
    tracer.install()
    start = clock()
    try:
        code = bgg.cli.main(argv)
    finally:
        report = {"import_s": import_s, "main_s": clock() - start, "state": tracer.state()}
        with os.fdopen(fd, "w") as pipe:
            json.dump(report, pipe)
    sys.exit(code)


if __name__ == "__main__":
    main()
