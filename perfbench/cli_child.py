"""Run one ``wlvmser`` command with span tracing, in a fresh interpreter.

    python perfbench/cli_child.py SPANS.json <wlvmser arguments...>

Times the numpy import, the rest of wlvmser's import and the command
itself, with every function in ``spans.WRAPS`` traced, and writes the
spans and counts to SPANS.json.  Exits with the command's exit code.
"""

import json
import sys

from spans import Tracer, instrument


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import_numpy"):
        import numpy  # noqa: F401
    with tracer.span("cli.import_wlvmser"):
        import wlvmser.cli
    instrument(tracer)
    with tracer.span("cli.command"):
        rc = wlvmser.cli.main(argv)
    tracer.unwrap()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.to_records(), "counts": dict(tracer.counts),
                   "missing": tracer.missing}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
