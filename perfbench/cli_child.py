"""Run the motiongraph CLI in this process with spans recorded.

    python3 perfbench/cli_child.py TRACE_OUT <motiongraph CLI arguments>

The spans and counts go to TRACE_OUT as JSON when the CLI returns or
fails; the exit status is the CLI's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing


def main() -> None:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from motiongraph import cli

    tracer.recording = True
    span = tracer.begin("cli.main")
    try:
        status = cli.main(argv)
    finally:
        tracer.end(span)
        out.write_text(json.dumps(tracer.dump()))
    sys.exit(status)


if __name__ == "__main__":
    main()
