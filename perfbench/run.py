#!/usr/bin/env python3
"""fvbound benchmark: three fixed workloads through the public fvbound API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload psys-shock-L11 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One workload runs in one single-threaded process.  Ops run back to back
(a closed loop with one client) until --seconds have passed; every op is
checked by the result gate (gate.py) and counts as failed if it raises or
the gate rejects it.  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced ops and reports the
per-layer metrics of tracing.py.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  `--workload all` runs
every workload untraced and traced, each in its own process, and prints the
end-to-end metrics followed by the per-layer table.

Files the benchmark writes (op outputs, byte-compiled sources, span dumps) go
under .bench_build/perfbench in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("psys-shock-L11", "burgers-converge", "psys-audit-L9")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
PYCACHE_DIR = os.path.abspath(os.path.join(BUILD_DIR, "pycache"))
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170

# Time to import fvbound and build one workload's op inputs, in a fresh
# interpreter (interpreter start-up itself is excluded).
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def measure_setup(name: str, seed: int, src: str, work_dir: str) -> list[float]:
    """SETUP_REPEATS set-up times; one extra first probe byte-compiles the
    sources of a fresh checkout and is not counted."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, src, BENCH_DIR, name, str(seed), work_dir],
            check=True, capture_output=True, text=True, timeout=60,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples[1:]


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"; q1 {q1:.4g}, q3 {q3:.4g}"


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    untraced: list = field(default_factory=list)  # wall seconds per untraced op
    traced: dict = field(default_factory=dict)  # op id -> wall seconds
    output_bytes: dict = field(default_factory=dict)  # op id -> bytes written
    files_identical: bool | None = None  # vs pinned seed-0 files; None if not pinned
    missing: list = field(default_factory=list)  # trace targets that do not exist


def measure(wl, pinned: dict | None, seconds: float, tracer=None) -> Measurement:
    """Run ops back to back until `seconds` have passed, gating each one.

    With a tracer, even ops run untraced and odd ops traced, and the loop
    goes on until it has at least one of each.
    """
    # imported here so that numpy loads after main() has set the thread count
    import gate
    import tracing

    m = Measurement(files_identical=None if pinned is None else True)
    first_digest = None
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        with_trace = tracer is not None and op_id % 2 == 1
        wl.prepare()
        gc.collect()
        m.attempted += 1
        t0 = time.perf_counter()
        try:
            if with_trace:
                tracer.op_id = op_id
                with tracing.Instrumentation(tracer) as inst:
                    t0 = time.perf_counter()
                    raw = wl.op()
                    wall = time.perf_counter() - t0
                m.missing = inst.missing
            else:
                raw = wl.op()
                wall = time.perf_counter() - t0
            result = wl.result(raw)
            del raw
            problems = []
            if pinned is not None:
                problems += gate.mismatches(pinned["fingerprint"], result.fingerprint,
                                            "fingerprint")
                m.files_identical = m.files_identical and result.files == pinned["files"]
            if first_digest is None:
                first_digest = result.digest
            elif result.digest != first_digest:
                problems.append("result differs from the first op of this run")
            m.output_bytes[op_id] = result.output_bytes
        except Exception as exc:  # any error in an op counts as a failed op
            wall = time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
            m.output_bytes[op_id] = 0
        if problems:
            m.failed += 1
            print(f"op {op_id} failed: " + "; ".join(problems), file=sys.stderr)
        if with_trace:
            m.traced[op_id] = wall
        else:
            m.untraced.append(wall)
        op_id += 1
        if time.perf_counter() >= deadline and (tracer is None or m.traced):
            return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import gate
    import tracing
    import workloads

    work_dir = os.path.join(BUILD_DIR, name)
    os.makedirs(work_dir, exist_ok=True)
    setup = None if trace else measure_setup(name, seed, src, work_dir)
    wl = workloads.make(name, seed, work_dir)
    pinned = gate.load_pinned()[name] if seed == 0 else None
    tracer = tracing.Tracer() if trace else None
    m = measure(wl, pinned, seconds, tracer)

    print(f"{name} seed={seed} trace={int(trace)}: {m.attempted} ops, {m.failed} failed"
          f" (fail_ratio {m.failed / m.attempted:.4g}); pinned gate "
          + ("not applied (seed != 0)" if pinned is None else
             f"applied; output files byte-identical to seed 0: {m.files_identical}"))
    if trace:
        metrics = tracing.layer_metrics(tracer, m.traced, m.untraced, m.missing, m.output_bytes)
        for path in m.missing:
            print(f"trace target missing: {path}")
        tracer.save(os.path.join(BUILD_DIR, f"spans-{name}-seed{seed}.npz"))
        print(f"per-layer metrics: per-op means over {len(m.traced)} traced ops;"
              f" {len(m.untraced)} untraced ops for trace.overhead_s")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(m.untraced), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        print(f"  wall_s       {metrics['wall_s']['value']:.4f} s   median of"
              f" {len(m.untraced)} ops" + _quartiles(m.untraced))
        print(f"  peak_rss_mb  {rss_mb:.1f} MB   1 sample: ru_maxrss of this process")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   median of"
              f" {len(setup)} set-ups" + _quartiles(setup))
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, one process each; then the table."""
    layer: dict[str, dict] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {out.returncode}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            if trace:
                layer[name] = result["metrics"]
    if layer:
        names = list(layer)
        keys = list(layer[names[0]])
        print(f"\n{'per-layer metric':<36}{'unit':>8}" + "".join(f"{n:>20}" for n in names))
        for key in keys:
            unit = layer[names[0]][key]["unit"]
            cells = "".join(f"{layer[n][key]['value']:>20.6g}" for n in names)
            print(f"{key:<36}{unit:>8}{cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fvbound", "__init__.py")):
        print("error: run from the root of an fvbound checkout (src/fvbound not found)",
              file=sys.stderr)
        return 2
    # Single-threaded numpy for this process and the ones it starts.  Their
    # byte-compiled files go to the build directory and are written even
    # where the environment turns that off, so set-up time does not depend
    # on whether the interpreter compiles every module again.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    os.environ["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix = PYCACHE_DIR
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
