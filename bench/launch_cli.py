"""Run the steadycredit CLI with the benchmark tracer installed.

    python bench/launch_cli.py SPANS_PATH ARG...

Installs the same wrappers as the in-process workloads, calls
``steadycredit.cli.main(ARG...)`` and writes the recorded spans to
SPANS_PATH, so a traced CLI op prints the same bytes as a plain one.
"""

import sys

import tracer
from steadycredit import cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.op = 0
    tr.install()
    try:
        return cli.main(argv)
    finally:
        tr.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
