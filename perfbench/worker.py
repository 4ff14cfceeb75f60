"""One benchmark operation in a fresh process.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments, or null to time the import
only), ``trace`` (install the layer trace or not), ``run_id`` and
``trace_file``.  The worker times the import of ``graphrestrict`` and
``graphrestrict.cli`` before importing anything else, then one call of the
CLI's ``main``, and prints one JSON object: exit code, setup and wall
seconds, peak RSS, the CLI's captured output and, when traced, the
per-layer metrics.  ``graphrestrict`` is found through PYTHONPATH.
"""

from __future__ import annotations

import sys
from time import perf_counter

_t0 = perf_counter()
import graphrestrict  # noqa: E402
import graphrestrict.cli  # noqa: E402
SETUP_S = perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["argv"] is None:
        print(json.dumps({"setup_s": SETUP_S}))
        return
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = graphrestrict.cli.main(spec["argv"])
    except Exception:  # the operation failed; report it instead of dying
        code = None
        error = traceback.format_exc()
    wall = perf_counter() - start
    result = {
        "exit_code": code,
        "error": error,
        "setup_s": SETUP_S,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = sorted(tracer.missing)
        tracer.write(spec["trace_file"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
