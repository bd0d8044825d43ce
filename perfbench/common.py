"""Shared plumbing for the benchmark harness: process control, statistics,
the result line and the span tracer used by the traced runs.

The harness drives the program from outside.  End-to-end figures come from
the ``repro`` command line run as child processes with ``REPRO_OBS=0``;
per-layer figures come from a separate traced run in which the harness
calls each layer's exported functions itself and times every call.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: The checkout the benchmark runs in (``perfbench/`` lives at its root).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes goes under this directory of the checkout.
WORK = ROOT / ".perfbench"

#: The nine coder families, in the order every workload walks them.
FAMILIES = (
    "window8",
    "context8",
    "stride4",
    "last",
    "invert",
    "businvert",
    "codebook8",
    "fcm",
    "transition",
)

#: A hard ceiling on any one child process, well inside the 180 s a run
#: may take, so a wedged child fails the run instead of hanging it.
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot run or a workload step failed outright."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {SRC}: expected src/repro/")


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(obs: bool = False, **extra: str) -> Dict[str, str]:
    """Environment for a ``repro`` child: sources on the path, tracing
    off unless asked for, and caches confined to the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_OBS"] = "1" if obs else "0"
    env["PYTHONHASHSEED"] = "0"
    env.setdefault("REPRO_TRACE_CACHE_DIR", str(WORK / "cache-unused"))
    env.update(extra)
    return env


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def fresh_dir(name: str) -> Path:
    """A new, empty directory under the work area."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


class Finished:
    """What one child process did: exit code, output, wall time and the
    peak resident set of it and every descendant it waited for."""

    def __init__(self, code: int, stdout: str, stderr: str, wall_s: float, maxrss_mb: float):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb

    def check(self, what: str) -> "Finished":
        if self.code != 0:
            tail = (self.stderr or self.stdout).strip().splitlines()[-5:]
            raise BenchError(f"{what} exited {self.code}: {' | '.join(tail)}")
        return self


def wait_rusage(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, float]:
    """Reap ``proc`` with ``wait4``; returns ``(exit code, peak RSS MB)``.

    ``wait4`` reports the child's own resource usage (including the
    descendants it reaped), which ``subprocess`` would otherwise discard.
    A child still running after ``timeout_s`` is killed.
    """
    timer = threading.Timer(timeout_s, _kill_quietly, (proc,))
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return code, usage.ru_maxrss / 1024.0


def _kill_quietly(proc: subprocess.Popen) -> None:
    try:
        proc.kill()
    except ProcessLookupError:
        pass


def run_child(cmd: Sequence[str], env: Dict[str, str], timeout_s: float = CHILD_TIMEOUT_S) -> Finished:
    """Run one child to completion, timing it from spawn to exit."""
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=WORK) as out, tempfile.TemporaryFile("w+", dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err, env=env, cwd=ROOT)
        code, rss = wait_rusage(proc, timeout_s)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Finished(code, out.read(), err.read(), wall, rss)


class Daemon:
    """A long-lived child (the cluster) with line-oriented stdout."""

    def __init__(self, cmd: Sequence[str], env: Dict[str, str]):
        self.proc = subprocess.Popen(
            list(cmd),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
            bufsize=1,
        )
        self._stderr: List[str] = []
        self._drainer = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drainer.start()

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self._stderr.append(line)

    def read_line(self, timeout_s: float) -> str:
        """The next stdout line; raises when none arrives in time."""
        result: List[str] = []
        reader = threading.Thread(target=lambda: result.append(self.proc.stdout.readline()))
        reader.daemon = True
        reader.start()
        reader.join(timeout_s)
        if not result or not result[0]:
            raise BenchError(f"no output from {self.proc.args[3:5]}: {''.join(self._stderr[-5:])}")
        return result[0]

    def stop(self, timeout_s: float = 30.0) -> Tuple[int, float]:
        """SIGTERM, then reap; returns ``(exit code, peak RSS MB)``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        code, rss = wait_rusage(self.proc, timeout_s)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._drainer.join(5.0)
        return code, rss

    def stderr_tail(self) -> str:
        return "".join(self._stderr[-5:])


# -- statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


# -- the result line ----------------------------------------------------


class Outcome:
    """Operations attempted and failed, plus why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons.append(reason)


def emit(outcome: Outcome, metrics: Dict[str, Tuple[float, str]], report: Dict[str, Any]) -> int:
    """Print the human report, then the one-line JSON result last."""
    for name, value in report.items():
        print(f"  {name:<34} {value}")
    for reason in outcome.reasons:
        print(f"  FAILED: {reason}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_frac':<34} {frac:.6f} ({outcome.failed}/{outcome.attempted})")
    correct = outcome.failed == 0 and outcome.attempted > 0
    line = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


# -- the tracer ---------------------------------------------------------


class Tracer:
    """In-memory spans around the harness's calls into each layer.

    A span records its name, start, end and parent.  A layer's self time
    is its span's duration minus what its child spans cover, so nested
    layers (``count_activity`` inside ``CrossoverAnalysis``) are not
    counted twice.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, work: float = 0) -> Iterator[None]:
        index = len(self.spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "child_s": 0.0,
            "work": work,
        }
        self.spans.append(record)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record["start"], record["end"] = start, end
            duration = end - start
            if record["parent"] is not None:
                self.spans[record["parent"]]["child_s"] += duration

    @contextmanager
    def wrapping(self, module: Any, attr: str, name: str) -> Iterator[None]:
        """Time every call to ``module.attr`` as a ``name`` span whose
        work is the length of the call's first argument (a trace)."""
        original = getattr(module, attr)

        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, work=len(args[0])):
                return original(*args, **kwargs)

        setattr(module, attr, timed)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def self_s(self, name: str) -> float:
        return sum(
            s["end"] - s["start"] - s["child_s"] for s in self.spans if s["name"] == name
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def work(self, name: str) -> float:
        return sum(s["work"] for s in self.spans if s["name"] == name)

    def rate(self, name: str) -> float:
        """Work units (cycles) per second of ``name``'s self time, in millions."""
        return mcycles_per_s(self.work(name), self.self_s(name))

    def unattributed_frac(self, root: str) -> float:
        """Share of the ``root`` span's time that no layer span covers."""
        total = sum(s["end"] - s["start"] for s in self.spans if s["name"] == root)
        own = self.self_s(root)
        return own / total if total > 0 else 0.0


class NullTracer(Tracer):
    """The same calls with no timing: the untraced twin of a traced run."""

    @contextmanager
    def span(self, name: str, work: float = 0) -> Iterator[None]:
        yield

    @contextmanager
    def wrapping(self, module: Any, attr: str, name: str) -> Iterator[None]:
        yield


def traced_and_overhead(replay: Callable[[Tracer], Any]) -> Tuple[Tracer, Any, float]:
    """Run ``replay`` untraced, traced, then untraced again.

    Returns the tracer, the traced run's result and the tracing
    overhead: the traced wall time over the faster untraced one, minus
    one.  The untraced run first also warms what a first call pays for.
    """
    walls = []
    tracer = Tracer()
    result = None
    for current in (NullTracer(), tracer, NullTracer()):
        start = time.perf_counter()
        out = replay(current)
        walls.append(time.perf_counter() - start)
        if current is tracer:
            result = out
    return tracer, result, walls[1] / min(walls[0], walls[2]) - 1.0


# -- host speed ---------------------------------------------------------

#: What one pass of :func:`calibration_s` takes on a host of reference
#: speed.  Times scaled by :func:`at_reference_speed` read as they would
#: on that host.
REFERENCE_CALIBRATION_S = 0.2


def calibration_s() -> float:
    """Time one pass of a fixed kernel that uses the CPU the way the
    program does: a per-value Python loop over a small dict and window,
    then numpy bit operations over a 64K-word array.

    On a shared host the CPU's speed can drift by a quarter or more
    within minutes, CPU time moving with wall time; timed right beside a
    repetition, this kernel reads the speed that repetition ran at.  It
    uses none of the program, so a change to the program leaves it alone.
    """
    import numpy as np

    start = time.perf_counter()
    table: Dict[int, Tuple[int, int]] = {}
    window: List[int] = []
    acc = 0
    for i in range(160_000):
        value = (i * 2654435761) & 0xFFFF
        hit = table.get(value & 1023)
        if hit is None:
            table[value & 1023] = (i, value)
        else:
            acc ^= hit[1] ^ value
        window.append(value)
        if len(window) > 8:
            window.pop(0)
        acc += bin((value ^ acc) & 0xFFFF).count("1")
    words = np.arange(1 << 16, dtype=np.uint64) * np.uint64(2654435761)
    for _ in range(40):
        words = words ^ (words >> np.uint64(7))
        acc += int(np.unpackbits(words.view(np.uint8)).sum())
    return time.perf_counter() - start


def at_reference_speed(wall_s: float, calibrations: Sequence[float]) -> float:
    """``wall_s`` scaled to the reference host speed, by the mean of the
    calibration passes timed just before and just after it."""
    return wall_s * REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)


def load_json(path: Path) -> Any:
    with open(path) as handle:
        return json.load(handle)


def mcycles_per_s(cycles: float, seconds: float) -> float:
    return cycles / seconds / 1e6 if seconds > 0 else 0.0


def window8_miss_share(streams: Sequence[Any]) -> float:
    """Share of cycles on which an 8-entry window holds no match.

    The input property that hit-rate-dependent optimisations must cite;
    measured with the program's own ``WindowPredictor`` over ``streams``
    (each a ``BusTrace``).
    """
    from repro.coding.window import WindowPredictor

    misses = total = 0
    for trace in streams:
        predictor = WindowPredictor(8, trace.width)
        mask = (1 << trace.width) - 1
        for value in trace.values.tolist():
            value &= mask
            if predictor.match(value) is None:
                misses += 1
            predictor.update(value)
        total += len(trace)
    return misses / total
