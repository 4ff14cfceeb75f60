"""Benchmark of the graphrestrict CLI: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``wide-star``, ``tall-graph`` and ``verify-pair`` (see
``workloads.py`` and README.md).  Each operation is one call of the public
CLI in a fresh worker process (``worker.py``), so its peak RSS and import
time belong to it alone.  Operations run one at a time, a closed loop with
one caller, and repeat while another one still fits in ``--seconds``; at
least one runs.  Every operation's output is checked; exports go to a
temporary directory under ``.bench_tmp/`` that is deleted after the checks.

The run pins itself and its children to one CPU.  Beside each operation, a
speed probe (``calibrate.py``) at the lowest priority measures how fast that
CPU ran meanwhile, and every time measured in the operation is scaled to the
probe's reference speed: ``seconds x REF_UNIT_S / probe seconds per unit``.
The raw times are printed too.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (median
seconds of one CLI operation, import excluded), ``peak_rss_mb`` (median peak
RSS of an operation's process) and ``setup_s`` (median time to import
``graphrestrict`` and ``graphrestrict.cli`` in a fresh process).  With
``--trace 1`` half the time runs untraced and half traced, and the run
reports the per-layer metrics of ``spans.py`` plus ``trace.overhead_s``;
the spans are written to ``.bench_trace/<workload>.jsonl``.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_trace"
WORKER = HERE / "worker.py"
PROBE = HERE / "calibrate.py"
REF_UNIT_S = 0.0005      # reference CPU seconds of one calibrate.unit()
IMPORT_PROBES = 7        # import-only processes per run for setup_s
OP_TIMEOUT_S = 150       # one operation; the slowest takes about 16 s


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GRAPHRESTRICT_CAPS", None)
    return env


def run_worker(spec: dict, env: dict) -> dict:
    """Run one worker process to its end and return its JSON report."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": f"timed out after {OP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"exit_code": None,
                "error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}


def with_speed_probe(fn):
    """Run ``fn()`` beside a speed probe; return its result and the factor
    that scales times measured meanwhile to the reference speed."""
    probe = subprocess.Popen([sys.executable, str(PROBE)], stdout=subprocess.PIPE,
                             text=True, cwd=ROOT)
    try:
        if probe.stdout.readline().strip() != "ready":
            raise RuntimeError("speed probe did not start")
        value = fn()
    finally:
        probe.send_signal(signal.SIGTERM)
        try:
            out = probe.communicate(timeout=30)[0]
        except subprocess.TimeoutExpired:
            probe.kill()
            probe.communicate()
            raise
    report = json.loads(out)
    return value, REF_UNIT_S * report["units"] / report["cpu_s"]


def measure(workload, inputs, tmp: Path, seed: int, budget: float, env: dict,
            trace_file: Path | None = None) -> list[dict]:
    """Run operations one at a time while the next one should fit in ``budget``."""
    results: list[dict] = []
    start = perf_counter()
    # elapsed * (k + 1) / k predicts the elapsed time after one more operation
    while not results or (perf_counter() - start) * (len(results) + 1) / len(results) <= budget:
        with tempfile.TemporaryDirectory(dir=tmp) as out:
            out = Path(out)
            spec = {"argv": workload.argv(inputs, out, seed),
                    "trace": trace_file is not None,
                    "run_id": f"{workload.name}-{seed}-{len(results)}",
                    "trace_file": str(trace_file) if trace_file else None}
            result, speed = with_speed_probe(lambda: run_worker(spec, env))
            result["speed"] = speed
            result["failures"] = workload.check(result, out, seed)
            if result.get("error"):
                result["failures"].insert(0, result["error"])
        results.append(result)
    return results


def describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    values = sorted(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} over "
            f"{len(values)} (min {values[0]:.6g}, max {values[-1]:.6g})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "graphrestrict" / "cli.py").is_file():
        print(f"error: no graphrestrict sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = worker_env()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        tmp = Path(tmp)
        inputs = workload.prepare(tmp, args.seed, env)
        run_worker({"argv": None}, env)          # warm the bytecode cache
        if args.trace:
            TRACE_DIR.mkdir(exist_ok=True)
            trace_file = TRACE_DIR / f"{workload.name}.jsonl"
            trace_file.unlink(missing_ok=True)
            plain = measure(workload, inputs, tmp, args.seed, args.seconds / 2, env)
            traced = measure(workload, inputs, tmp, args.seed, args.seconds / 2, env,
                             trace_file)
            ops = plain + traced
        else:
            probes, speed = with_speed_probe(
                lambda: [run_worker({"argv": None}, env) for _ in range(IMPORT_PROBES)])
            for p in probes:
                p["speed"] = speed
            ops = measure(workload, inputs, tmp, args.seed, args.seconds, env)

    failed = [r for r in ops if r["failures"]]
    for r in failed:
        print(f"FAILED: {'; '.join(r['failures'])}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}: {len(ops)} operations, "
          f"fail_frac {len(failed) / len(ops):.6g} ratio")
    if args.trace:
        metrics = layer_metrics(plain, traced)
        missing = sorted({m for r in traced for m in r.get("missing", ())})
        if missing:
            print(f"not traced (names missing): {', '.join(missing)}")
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {unit_of(name)}")
    else:
        metrics = end_to_end_metrics(ops, probes)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def end_to_end_metrics(ops: list[dict], probes: list[dict]) -> dict:
    """Medians of wall_s and peak_rss_mb over the operations, and of setup_s
    over the operations and the import-only probes; times at reference speed."""
    timed = [r for r in ops if "wall_s" in r]
    imports = [r for r in probes + timed if "setup_s" in r]
    print(describe("raw wall_s", [r["wall_s"] for r in timed], "s"))
    print(describe("raw setup_s", [r["setup_s"] for r in imports], "s"))
    print(describe("speed factor", [r["speed"] for r in timed], "x"))
    samples = {"wall_s": [r["wall_s"] * r["speed"] for r in timed],
               "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
               "setup_s": [r["setup_s"] * r["speed"] for r in imports]}
    metrics = {}
    for name, values in samples.items():
        if values:
            metrics[name] = statistics.median(values)
            print(describe(name, values, unit_of(name)))
    return metrics


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Medians of the traced operations' layer metrics, and trace.overhead_s:
    the traced median wall_s minus the untraced one; times at reference speed."""
    traced = [r for r in traced if "layers" in r]
    if not traced:
        return {}
    metrics = {name: statistics.median(r["layers"][name] * (r["speed"] if name.endswith("_s") else 1)
                                       for r in traced)
               for name in traced[0]["layers"]}
    plain_walls = [r["wall_s"] * r["speed"] for r in plain if "wall_s" in r]
    if plain_walls:
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] * r["speed"] for r in traced)
                                       - statistics.median(plain_walls))
    return metrics


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
