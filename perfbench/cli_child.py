"""Run the coalition-forge CLI as a benchmark op, paced and optionally traced.

    python3 perfbench/cli_child.py REPORT_JSON OP_ID CLI_ARGS...

Behaves like `python3 -m coalition_forge.cli CLI_ARGS...` and, on the
way out, writes to REPORT_JSON the reference loop's rate inside this
process (see pace.py) and, unless OP_ID is "-", the spans and counters
of the library calls, recorded under OP_ID.
"""

from __future__ import annotations

import json
import sys

from pace import Pacer
from spans import Tracer


def main() -> int:
    report_path, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    pacer = Pacer()
    pacer.start()
    tracer = None
    if op != "-":
        tracer = Tracer()
        tracer.install()
        tracer.op = op
    from coalition_forge import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        report = {"rate": pacer.stop()}
        if tracer is not None:
            tracer.uninstall()
            report.update(spans=tracer.spans, counts=tracer.counts)
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
