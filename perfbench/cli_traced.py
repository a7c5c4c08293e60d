"""Traced CLI process: ``python3 perfbench/cli_traced.py TOTALS SPANS ARGS...``.

Runs ``npicheck.cli.main(ARGS)`` exactly as ``python -m npicheck.cli`` would,
with the tracer installed, then writes the span totals and the spans.
"""

import json
import sys

import npicheck.cli
from tracer import Tracer


def main() -> int:
    totals_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    unbound = tracer.unbound_references()
    tracer.begin_op(0)
    code = npicheck.cli.main(argv)
    tracer.end_op()
    sys.stdout.flush()
    totals = tracer.totals()
    totals["unbound"] = unbound
    with open(totals_path, "w") as fh:
        json.dump(totals, fh)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
