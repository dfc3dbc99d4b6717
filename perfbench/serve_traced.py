"""Run ``repro-verify serve`` with the benchmark's span recorders installed.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python3 perfbench/serve_traced.py SPANS.json serve --port 0 --jobs 2

The spans, the import time and the bytecode setting are written to
``SPANS.json`` once the server has drained and returned (on SIGTERM).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    start = time.perf_counter()
    import repro.cli
    import repro.server
    import_ms = 1000 * (time.perf_counter() - start)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    recorder = tracing.Recorder()
    tracing.install(recorder, server=True)
    code = repro.cli.main(serve_args)
    Path(spans_path).write_text(json.dumps({
        "spans": recorder.export(), "import_ms": import_ms,
        "dont_write_bytecode": sys.dont_write_bytecode}), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
