"""Benchmark for ghm: end-to-end workloads with output checks, and a traced
mode that times each layer's public calls.

    python3 bench/run.py --workload integrate --seed 1 --seconds 15 --trace 0

Run from the repository root.  The script imports ``ghm`` from ``src/`` of
the tree it sits in and drives it as a user does: ``ghm.cli.main(argv)``
in-process with stdout captured, plus public library calls.  All load comes
from this one process and thread, in a closed loop: each call waits for the
previous one.  The timed section repeats whole rounds of the same
operations until ``--seconds`` have passed, so every run attempts the same
mix and a repeated call must reproduce its output byte for byte.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  See bench/README.md for the workloads.
"""

from __future__ import annotations

import os

# One compute thread: pinned before numpy (imported by ghm) loads its BLAS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REF_KERNEL_S, kernel_s, warm_up  # noqa: E402
from harness import Tracer, timed_section  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 4  # before the timed section, and as many again after it
# numpy is loaded first: its import is a fixed cost that no change to ghm moves
IMPORT_PROBE = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ghm.cli; print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_revision() -> str:
    """HEAD of the checkout if it is a git work tree; read from .git directly."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    try:
        scipy_version = importlib.metadata.version("scipy")  # no import: it would count in peak RSS
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    modules = sorted((SRC / "ghm").glob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git": git_revision(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "src_lines": {m.name: len(m.read_text().splitlines()) for m in modules},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def import_ghm():
    """Import ghm from this tree's src/ only; another installed copy would
    measure the wrong program."""
    if not (SRC / "ghm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {SRC / 'ghm'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ghm
    import ghm.cli
    if Path(ghm.__file__).resolve().parent != (SRC / "ghm").resolve():
        raise SystemExit(f"bench: imported ghm from {ghm.__file__}, expected {SRC / 'ghm'}")
    return ghm


def setup_samples(workload) -> list[tuple[float, float, float]]:
    """(import, build, kernel) seconds, SETUP_REPEATS times.  The import is
    timed in a fresh interpreter each time (this process imports ghm only
    once); the build is the workload's own: build each system once and make
    its first call.  The calibration kernel is timed before, between and
    after the two; ``kernel`` is the mean of those three times."""
    warm_up()
    samples = []
    for _ in range(SETUP_REPEATS):
        k0 = kernel_s()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                              text=True, timeout=60, check=True)
        k1 = kernel_s()
        ts = time.perf_counter()
        workload.setup()
        build = time.perf_counter() - ts
        samples.append((float(done.stdout), build, (k0 + k1 + kernel_s()) / 3))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("integrate", "verify-builtins", "family-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    ghm = import_ghm()

    import layers
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    print("run-record " + json.dumps(record, sort_keys=True))

    workload = workloads.WORKLOADS[args.workload](ghm, args.seed, OUT_DIR)
    setup = setup_samples(workload)

    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    ops = workload.ops()
    first, nondeterministic, timing = timed_section(ops, args.seconds, tracer, bool(args.trace))
    rss = peak_rss_mb()  # before the checks import scipy
    # set-up samples on both sides of the timed section see different
    # stretches of the host's speed, which drifts over tens of seconds
    setup += setup_samples(workload)

    verdicts = workload.check(first)
    attempted = timing.rounds * len(ops)
    failed = 0
    unexpected = []
    for op, verdict, nd in zip(ops, verdicts, nondeterministic):
        if verdict is not None:
            failed += timing.rounds
            tag = "known fault" if op.expect_fault else "FAILED"
            print(f"{tag}: {op.name}: {verdict}")
            if not op.expect_fault:
                unexpected.append(op.name)
        elif nd:
            failed += nd
            print(f"FAILED: {op.name}: output changed in {nd} of {timing.rounds - 1} repeats")
            unexpected.append(op.name)
    correct = not unexpected

    print(f"rounds {timing.rounds}, operations per round {len(ops)}, "
          f"attempted {attempted}, failed {failed}")
    for name, value, unit in workload.report(timing, first):
        print(f"{name} = {value:.6g} {unit}")

    if args.trace:
        metrics = layers.probe(ghm, tracer, workload.probe_set(first), timing)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        for layer, secs in sorted(tracer.self_times().items()):
            print(f"self-time {layer} = {secs:.6f} s")
    else:
        metrics = {
            "setup_s": (statistics.median(REF_KERNEL_S * (i + b) / k for i, b, k in setup), "s"),
            "wall_s": (sum(timing.op_median_ref_s()), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        print("setup samples, measured (import + build, kernel): "
              + ", ".join(f"{i:.4f} + {b:.4f}, {1e3 * k:.3f} ms" for i, b, k in setup))
        kernels = sorted(k for *_, k in setup)
        print(f"calibration kernel: {1e3 * kernels[0]:.3f} to {1e3 * kernels[-1]:.3f} ms in set-up, "
              f"reference {1e3 * REF_KERNEL_S:.3f} ms")
        print(f"round time, measured: fastest {min(timing.round_s):.4f} s, median "
              f"{statistics.median(timing.round_s):.4f} s, slowest {max(timing.round_s):.4f} s; "
              f"sum of fastest repeats {sum(min(t) for t in timing.op_s):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
