"""Run one entconv CLI call with spans recorded, for the traced cli-session.

    python cli_shim.py SPANS_OUT [entconv arguments...]

Behaves like ``python -m entconv ARGS`` (same output and exit code) and
writes the spans of the call to SPANS_OUT as JSON. The package must be on
PYTHONPATH.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import entconv.cli  # noqa: E402

from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        code = entconv.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
