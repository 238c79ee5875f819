"""Shared plumbing: the process under test, measurements, tallies, metadata.

Everything here observes the program from outside: a server is a child
process started with ``python -m repro serve`` and read through
``/proc``; a checker is a child process that reports its own timings on
stdout.  Nothing in this module imports :mod:`repro` at import time, so
:mod:`run` can refuse to start before ``src/`` is known to exist.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

#: The checkout the benchmark runs in (the driver starts it from there).
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space for data directories, span files and child output.
WORK = ROOT / ".bench_work"
BENCH_DIR = Path(__file__).resolve().parent

#: The scenario every serving workload streams, and its monitored spec.
SCENARIO = "two_phase_dynamic"
MONITORED = "DynamicCoordinator"

_READY = re.compile(r"repro service on [\d.]+:(\d+) ")
_HTTP = re.compile(r"http on :(\d+)")


def checkout_ok() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


#: The benchmark process runs on the first CPU and the processes under
#: test on the second, so the scheduler never puts them on one core.
_CPUS = sorted(os.sched_getaffinity(0))
BENCH_CPUS = {_CPUS[0]}
CHILD_CPUS = {_CPUS[1]} if len(_CPUS) > 1 else BENCH_CPUS


def pin_benchmark() -> None:
    os.sched_setaffinity(0, BENCH_CPUS)


def pin_child() -> None:
    os.sched_setaffinity(0, CHILD_CPUS)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def new_workdir(prefix: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass


# -- the server process -------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` child: launch until listening, /proc readings, stop."""

    def __init__(
        self,
        *,
        data_dir: Path | None = None,
        http: bool = False,
        spans: Path | None = None,
    ) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--scenario", SCENARIO, "--port", "0",
        ]
        if data_dir is not None:
            cmd += ["--data-dir", str(data_dir)]
        if http:
            cmd += ["--http-port", "0"]
        if spans is not None:
            cmd += ["--obs-spans", str(spans)]
        self.cmd = cmd
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.http_port = 0

    def start(self, speed: SpeedProbe) -> float:
        """Launch and wait for the listening line; returns the set-up seconds."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            bufsize=0, preexec_fn=pin_child,
        )
        try:
            line = LineReader(self.proc, speed).readline(timeout=120.0)
        except BaseException:
            self.stop()
            raise
        setup = time.perf_counter() - start
        match = _READY.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        http = _HTTP.search(line)
        self.http_port = int(http.group(1)) if http else 0
        return setup

    def cpu_seconds(self) -> float:
        """User+sys CPU of every live thread, in ns resolution (schedstat)."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, ValueError, IndexError):
                continue  # a thread that ended between listing and reading
        return total / 1e9

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kib / 1024.0

    def interrupt(self) -> None:
        """Ask for a clean stop (SIGINT, as Ctrl-C) without waiting."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)

    def stop(self) -> None:
        """Clean stop; kill only if it does not exit; reap the process."""
        proc = self.proc
        if proc is None or proc.stdout.closed:
            return
        self.interrupt()
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


# -- host speed ---------------------------------------------------------------

#: Seconds the calibration loop takes per 100k iterations at the reference
#: speed (about this 2-vCPU host's fast state).
CALIBRATION_REFERENCE_S = 0.0065
_CHUNK = 20_000  # iterations per sample taken while waiting on a child


def _calibration_loop(iterations: int) -> float:
    """Seconds per 100k iterations of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return (time.perf_counter() - start) * 100_000 / iterations


class SpeedProbe:
    """Samples the host's speed with a fixed pure-Python loop.

    The host's speed drifts by tens of percent within a minute (README,
    finding 1).  A round (or a checker) samples it whenever the benchmark
    process would otherwise wait — while a server starts, while a checker
    runs — and around its timed parts; the times it measured are then
    reported at the reference speed, multiplied by :attr:`factor`.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples += [_calibration_loop(100_000) for _ in range(3)]

    def tick(self) -> None:
        self.samples.append(_calibration_loop(_CHUNK))

    @property
    def factor(self) -> float:
        """Reference loop time over the median of these samples."""
        return CALIBRATION_REFERENCE_S / median(self.samples)


class LineReader:
    """Reads a child's stdout by lines; samples the speed while it waits."""

    def __init__(self, proc: subprocess.Popen, speed: SpeedProbe) -> None:
        self._fd = proc.stdout.fileno()
        self._speed = speed
        self._buf = b""

    def readline(self, timeout: float = 120.0) -> str:
        deadline = time.perf_counter() + timeout
        while b"\n" not in self._buf:
            ready, _, _ = select.select([self._fd], [], [], 0)
            if ready:
                chunk = os.read(self._fd, 1 << 16)
                if not chunk:
                    break
                self._buf += chunk
            else:
                self._speed.tick()
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no line from the child in {timeout}s")
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode("utf-8")


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


class Tally:
    """Operations attempted and failed; every failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def fail(self, what: str) -> None:
        self.check(False, what)


# -- per-run environment metadata --------------------------------------------


def _filesystem_of(path: Path) -> str:
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for entry in mounts:
        fields = entry.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, fields[2]
    return fstype


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(data_dir: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(_CPUS),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "loadavg_1m": os.getloadavg()[0],
        "data_fs": _filesystem_of(data_dir),
    }


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)
