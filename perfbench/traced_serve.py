"""``repro serve`` with every benchmarked layer wrapped in spans.

Usage: ``python perfbench/traced_serve.py --trace-dir DIR serve ...``
(everything after ``--trace-dir DIR`` goes to ``repro.cli.main``).
Spans land in ``DIR/spans-<pid>.jsonl``, one file per process.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SERVER_TARGETS, Recorder  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-dir":
        print("usage: traced_serve.py --trace-dir DIR serve ...",
              file=sys.stderr)
        return 2
    # The serving modules must be imported before wrapping, so that
    # their by-name imports are found and rebound.
    import repro.cli
    import repro.service.server  # noqa: F401

    Recorder(argv[1]).install(SERVER_TARGETS)
    return repro.cli.main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
