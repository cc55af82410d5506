"""One benchmark process: set up a workload, then run timed ops in a closed loop.

    python bench/worker.py op  WORKLOAD SEED SECONDS TRACE INDEX WORKERS OUT_DIR
    python bench/worker.py ref WORKLOAD SEED
    python bench/worker.py cli-input SEED CSV_PATH

``op`` builds the inputs from the seed, warms up, and runs ops for SECONDS
seconds, starting at its INDEX-th share of the seeded op order. With TRACE 1
the first half of the time runs plain and the second half with the tracer
installed. ``ref`` builds the reference outputs in a fresh process;
``cli-input`` writes the CLI's input file and its expected output. Each
prints one JSON object as its last line; ``run.py`` combines them.

The ``cli-cold`` worker imports neither numpy nor the package (``workloads``
is imported only where needed): on Linux a child's peak RSS includes its
parent's resident memory at spawn, so the CLI children must be started from
a small process.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracer
from checks import digest

BENCH_DIR = Path(__file__).resolve().parent
CLI_COLD = "cli-cold"
WINDOW_SWEEP = "window-sweep"
SWEEP_WARMUP_OPS = 20
# how a plain cli-cold op runs the CLI, after the interpreter
CLI_ARGS = ["-m", "steadycredit.cli"]


def _phases(seconds: float, trace: bool) -> list[tuple[str, float]]:
    return [("plain", seconds / 2), ("traced", seconds / 2)] if trace else [("plain", seconds)]


def _inputs(workload: str, seed: int):
    import workloads

    if workload == WINDOW_SWEEP:
        return workloads.SweepInputs(seed)
    return workloads.LongInputs(seed)


def reference(workload: str, seed: int) -> dict:
    ref = _inputs(workload, seed).reference()
    return {"ref": {str(k): list(v) for k, v in ref.items()}}


def warm_worker(workload: str, seed: int, seconds: float, trace: bool,
                index: int, n_workers: int, out_dir: Path) -> dict:
    """Timed ops of ``window-sweep`` or ``long-series`` in this process."""
    inputs = _inputs(workload, seed)
    order = inputs.order
    pos = index * len(order) // n_workers
    for i in range(SWEEP_WARMUP_OPS if workload == WINDOW_SWEEP else 1):
        inputs.op(order[(pos + i) % len(order)])

    ops: list[list] = []
    t_first = time.monotonic()
    tr = None
    for phase, budget in _phases(seconds, trace):
        if phase == "traced":
            tr = tracer.Tracer()
            tr.install()
        end = time.monotonic() + budget
        while True:
            key = order[pos % len(order)]
            pos += 1
            if tr is not None:
                tr.op = len(ops)
            t0 = time.perf_counter()
            try:
                out = inputs.op(key)
            except Exception as exc:  # a failed op is counted, the loop goes on
                elapsed = time.perf_counter() - t0
                result = f"error: {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t0
                result = digest(*out)
            ops.append([key, result, elapsed, phase])
            if time.monotonic() >= end:
                break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = None
    if tr is not None:
        tr.uninstall()
        tr.dump(out_dir / f"spans-{workload}-{seed}-{index}.json")
        spans = tracer.summarize(tr.spans)
    return {"t_first": t_first, "ops": ops, "rss_mb": [rss], "spans": spans}


def _spawn(argv: list[str], out: Path, err: Path) -> tuple[int, float, float]:
    """Run one child with stdout/stderr to files; return exit code, seconds, peak RSS MB."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024.0


def cli_worker(seed: int, seconds: float, trace: bool, index: int, out_dir: Path) -> dict:
    """Timed ``steadycredit analyze`` child processes, one after another."""
    stem = out_dir / f"cli-{seed}-{index}"
    csv_path = stem.with_suffix(".csv")
    setup = subprocess.run([sys.executable, __file__, "cli-input", str(seed), str(csv_path)],
                           capture_output=True, text=True, check=True)
    ref = {"0": json.loads(setup.stdout)}
    out, err, spans_path = stem.with_suffix(".out"), stem.with_suffix(".err"), stem.with_suffix(".spans")
    args = ["analyze", "--input", str(csv_path)]
    commands = {
        "plain": [sys.executable, *CLI_ARGS, *args],
        "traced": [sys.executable, str(BENCH_DIR / "launch_cli.py"), str(spans_path), *args],
    }

    def run(phase: str) -> tuple[str, float, float]:
        code, elapsed, rss = _spawn(commands[phase], out, err)
        stderr = err.read_text(encoding="utf-8")
        if code != 0 or stderr:
            return f"error: exit {code}: {stderr.strip()[:200]}", elapsed, rss
        return digest(out.read_text(encoding="utf-8")), elapsed, rss

    run("plain")  # warm-up: byte-compiles the package and fills the file cache
    ops: list[list] = []
    rss_plain: list[float] = []
    spans: dict = {}
    traced_spans: list[list] = []
    t_first = time.monotonic()
    for phase, budget in _phases(seconds, trace):
        end = time.monotonic() + budget
        while True:
            result, elapsed, rss = run(phase)
            ops.append([0, result, elapsed, phase])
            if phase == "plain":
                rss_plain.append(rss)
            else:
                op_spans = json.loads(spans_path.read_text(encoding="utf-8"))
                traced_spans.append(op_spans)
                spans = tracer.merge(spans, tracer.summarize(op_spans))
            if time.monotonic() >= end:
                break
    for path in (csv_path, out, err, spans_path):
        path.unlink(missing_ok=True)
    if trace:
        (out_dir / f"spans-{CLI_COLD}-{seed}-{index}.json").write_text(
            json.dumps(traced_spans), encoding="utf-8")
    return {"t_first": t_first, "ops": ops, "rss_mb": rss_plain,
            "spans": spans if trace else None, "ref": ref}


def main(argv: list[str]) -> None:
    role = argv[0]
    if role == "cli-input":
        import workloads

        result = workloads.write_cli_input(int(argv[1]), argv[2])
    elif role == "ref":
        result = reference(argv[1], int(argv[2]))
    else:
        workload, seed = argv[1], int(argv[2])
        seconds, trace, index, n_workers = float(argv[3]), argv[4] == "1", int(argv[5]), int(argv[6])
        if workload == CLI_COLD:
            result = cli_worker(seed, seconds, trace, index, Path(argv[7]))
        else:
            result = warm_worker(workload, seed, seconds, trace, index, n_workers, Path(argv[7]))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
