"""Run one ghzgen CLI invocation with the benchmark's tracer installed.

    python benchmarks/traced_child.py SPANS_JSON ARG...

ARG... are the arguments of ``python -m ghzgen``.  The program's output
and exit code are left as they are; the spans are written to SPANS_JSON
when the command returns.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    import ghzgen.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.request():
            return ghzgen.cli.main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main())
