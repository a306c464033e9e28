"""Run one mottreg CLI command with layer spans, for the traced cli_reports run.

    python3 perfbench/cli_child.py SPANS_JSON [mottreg arguments...]

Times the import of mottreg.cli as the span cli.import, wraps the layer
functions, runs mottreg.cli.main and writes the spans and counters to
SPANS_JSON when the command ends.  The exit code is the command's.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from layers import Tracer


def main() -> int:
    spans_path, cli_args = Path(sys.argv[1]), sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    start = time.perf_counter()
    import mottreg.cli
    tracer.add_span("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return mottreg.cli.main(cli_args)
    finally:
        spans_path.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    raise SystemExit(main())
