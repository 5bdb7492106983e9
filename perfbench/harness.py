"""Measurement plumbing shared by the workloads: spans, percentiles, failure
accounting, process-tree memory, child commands and run metadata.

Nothing here imports the package under test, so the self-tests run without
it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Candidate tail percentiles, highest first.  A percentile is reported only
# when at least MIN_BEYOND samples lie above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def supports_percentile(n: int, p: float) -> bool:
    """True when n samples leave at least MIN_BEYOND above percentile p."""
    return round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile that n samples support, or None."""
    for p in TAIL_PERCENTILES:
        if supports_percentile(n, p):
            return p
    return None


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


@dataclass
class Outcomes:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason or "unspecified failure")
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Tracer:
    """In-memory spans recorded around calls made from the benchmark.

    A span is [name, start_ns, end_ns, parent index or -1, request id].
    Disabled tracers add one method call and record nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, req=None) -> int:
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else -1
        if req is None and parent >= 0:
            req = self.spans[parent][4]
        self.spans.append([name, time.perf_counter_ns(), 0, parent, req])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        if idx < 0:
            return
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, req=None):
        if not self.enabled:
            return fn(*args)
        idx = self.begin(name, req)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    def totals(self, first: int = 0) -> dict[str, tuple[int, int]]:
        """name -> (span count, summed self time in ns) over spans[first:]."""
        out: dict[str, list[int]] = {}
        for span, own in zip(self.spans[first:], self_times_ns(self.spans)[first:]):
            entry = out.setdefault(span[0], [0, 0])
            entry[0] += 1
            entry[1] += own
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(self.spans, self_times_ns(self.spans))):
                name, start, end, parent, req = span
                fh.write(json.dumps({
                    "i": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "req": req, "self_ns": own,
                }) + "\n")


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, req in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, req) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


# -- memory ---------------------------------------------------------------

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after the last ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def tree_rss_kb(root_pid: int) -> int:
    """Summed resident set of a process and all its descendants."""
    kids = _children_map()
    total = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * _PAGE_KB
        except OSError:
            continue
    return total


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class CommandResult:
    returncode: int
    wall_s: float
    peak_rss_kb: int
    stdout: str
    stderr: str


def run_command(argv: list[str], env: dict, cwd: Path, timeout_s: float = 150.0,
                sample_s: float = 0.1) -> CommandResult:
    """Run a child command and wait for it, sampling its process tree's
    memory from a helper thread.

    The wall time ends when the blocking wait returns, so sampling adds no
    delay to it.  A child that outlives the timeout is killed and reaped.
    """
    out_path = cwd / ".cmd_stdout"
    err_path = cwd / ".cmd_stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        peak = [0]
        done = threading.Event()

        def sample() -> None:
            while True:
                peak[0] = max(peak[0], tree_rss_kb(proc.pid))
                if done.wait(sample_s):
                    return

        sampler = threading.Thread(target=sample, daemon=True)
        killer = threading.Timer(timeout_s, proc.kill)
        sampler.start()
        killer.start()
        try:
            proc.wait()
        finally:
            wall = time.perf_counter() - start
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            done.set()
            sampler.join()
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return CommandResult(proc.returncode, wall, peak[0], stdout, stderr)


# -- host speed -------------------------------------------------------------

# Median time of reference_work() on an idle core of a 2-core 2.1 GHz Xeon VM.
REF_NOMINAL_S = 0.016


def reference_work() -> int:
    """Fixed integer arithmetic in the interpreter loop.

    Of the references tried (this loop, string hashing and sorting, small
    tokenise-and-count graphs), this one's time moved most closely with the
    per-request time of the online workload as the shared host sped up and
    slowed down.
    """
    total = 0
    for i in range(200_000):
        total += (i * i) % 7
    return total


class HostSpeed:
    """Reference timings interleaved with a workload's operations.

    On a shared host the speed of interpreted code drifts by tens of percent
    within a minute.  Dividing a time by `factor` (or multiplying a rate)
    reports it at the nominal host speed, so runs made while the host is
    slow or fast compare with each other.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    @property
    def factor(self) -> float:
        """Measured reference time over nominal: above 1 on a slow host."""
        return median(self.samples) / REF_NOMINAL_S


# -- metadata -------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_info() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def run_metadata(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(result: dict) -> None:
    """Print the result object as the final line of standard output."""
    for name in result["metrics"]:
        check_metric_name(name)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
