"""Load generation shared by the workloads: operations, the closed-loop timed
section, in-process CLI calls with captured output, and in-memory spans."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from calibrate import REF_KERNEL_S, kernel_s, warm_up


# ---------------------------------------------------------------------------
# Tracing: spans kept in memory, written out when the run ends
# ---------------------------------------------------------------------------

class Tracer:
    """Records (id, name, start, end, parent, run id) spans while enabled."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (span-name prefix) not covered by child spans."""
        child = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for sid, name, start, end, _ in self.spans:
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    rc: int | None  # None: the call raised instead of returning an exit code
    stdout: str
    stderr: str
    json: str | None = None


@dataclass(frozen=True)
class Op:
    """One call into ghm; ``run`` returns its output for checking."""

    name: str
    span: str
    run: Callable[[], Any]
    expect_fault: bool = False  # a known program fault: fails until it is fixed


def run_cli(cli_main, argv: list[str], json_path: Path | None = None) -> CliResult:
    """``ghm`` in-process with stdout/stderr captured.  A raised exception is
    a finding (the CLI promises exit codes, not tracebacks), so it is kept as
    the call's output rather than ending the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    if json_path is not None and json_path.exists():
        json_path.unlink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - recorded and reported as a failed operation
            rc = None
            err.write(traceback.format_exc())
    text = json_path.read_text() if json_path is not None and json_path.exists() else None
    return CliResult(rc, out.getvalue(), err.getvalue(), text)


def cli_op(cli_main, name: str, argv: list[str], json_path: Path | None = None,
           expect_fault: bool = False) -> Op:
    return Op(name, f"cli.{argv[0]}", lambda: run_cli(cli_main, argv, json_path), expect_fault)


def digest(output: Any) -> str:
    if isinstance(output, CliResult):
        text = f"{output.rc}\0{output.stdout}\0{output.stderr}\0{output.json}"
    else:
        text = repr(output)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Timing:
    round_s: list[float]  # untraced rounds, calibration kernel excluded
    round_units: list[float]  # round_s over the mean kernel time of the round
    traced_round_units: list[float]  # the same for traced rounds
    op_s: list[list[float]]  # per op, one entry per round
    op_units: list[list[float]]  # op_s over the mean of the kernel times on either side
    rounds: int

    def ref_s(self) -> list[list[float]]:
        """Per op, one entry per round: the time in reference-machine seconds."""
        return [[REF_KERNEL_S * u for u in units] for units in self.op_units]

    def op_median_ref_s(self) -> list[float]:
        return [statistics.median(t) for t in self.ref_s()]


def timed_section(ops: list[Op], seconds: float, tracer: Tracer, traced: bool):
    """Whole rounds of ``ops`` until ``seconds`` have passed, with the
    calibration kernel timed between every two operations.  In a traced run
    every other round is traced, so the rounds without spans give the
    tracing overhead."""
    op_s: list[list[float]] = [[] for _ in ops]
    op_units: list[list[float]] = [[] for _ in ops]
    round_s, round_units, traced_round_units = [], [], []
    first: list[Any] | None = None
    first_digests: list[str] = []
    nondeterministic = [0] * len(ops)
    min_rounds = 2 if traced else 1
    warm_up()
    k_prev = kernel_s()
    start = time.perf_counter()
    rounds = 0
    while True:
        tracer.enabled = traced and rounds % 2 == 0
        outputs = []
        kernels = [k_prev]
        t0 = time.perf_counter()
        with tracer.span("bench.round"):
            for i, op in enumerate(ops):
                with tracer.span(op.span):
                    ts = time.perf_counter()
                    outputs.append(op.run())
                    dt = time.perf_counter() - ts
                k_next = kernel_s()
                kernels.append(k_next)
                op_s[i].append(dt)
                op_units[i].append(dt / (0.5 * (k_prev + k_next)))
                k_prev = k_next
        elapsed = time.perf_counter() - t0 - sum(kernels[1:])
        if tracer.enabled:
            traced_round_units.append(elapsed / statistics.fmean(kernels))
        else:
            round_s.append(elapsed)
            round_units.append(elapsed / statistics.fmean(kernels))
        digests = [digest(o) for o in outputs]
        if first is None:
            first, first_digests = outputs, digests
        else:
            for i, (a, b) in enumerate(zip(first_digests, digests)):
                nondeterministic[i] += a != b
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
    tracer.enabled = traced
    timing = Timing(round_s, round_units, traced_round_units, op_s, op_units, rounds)
    return first, nondeterministic, timing
