"""Run one qopt CLI job under the tracer, in a fresh process.

Usage: python -X importtime bench/child.py SUMMARY_JSON COMMAND [qopt options...]

Imports ``qopt.cli`` (timed; ``-X importtime`` splits it on stderr), installs
the tracer, runs ``qopt.cli.main`` on the remaining arguments, writes the
tracer's summary to SUMMARY_JSON and exits with the job's return code.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import qopt.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402


def run(summary_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = qopt.cli.main(argv)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["import.total_s"] = import_s
    Path(summary_path).write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
