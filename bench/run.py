"""Benchmark of the steadycredit analysis pipeline.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. WORKLOAD is one of:

- ``cli-cold``: ``python -m steadycredit.cli analyze`` on a 67-quarter CSV,
  one process after another. The only workload where interpreter start-up
  and the numpy/scipy imports show in the ops.
- ``window-sweep``: ``analyze`` + ``to_json`` over all 1830 windows of at
  least 8 quarters of the 67-quarter series, in a warm process. Fixed cost
  per call dominates.
- ``long-series``: ``parse_csv`` + ``analyze`` + ``to_json`` +
  ``render_svg`` of a 1001-quarter series, in a warm process. Cost per
  element dominates. Not listed in BENCHMARK.json: on the 2-vCPU host the
  benchmark was built on, its run-to-run spread (0.21-0.29 of the median
  over ten runs) exceeds the largest bound a listed metric may have, so it
  serves as a diagnostic, mainly for the irr-root solver at n = 1000.

Each run starts ``WORKERS`` fresh worker processes one after another; each
measures its own set-up (process start to first timed op) and then runs a
closed loop with one caller for its share of S seconds. Every op's output is
checked against a reference built in another process. With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics, taken from spans recorded around the
package's public functions (``tracer.py``) and from ``-X importtime``.
Metric names and units are those of ``BENCHMARK.json``; what each one
should move is in ``bench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cli-cold", "window-sweep", "long-series")
WARM_WORKLOADS = ("window-sweep", "long-series")
WORKERS = 5
IMPORT_REPEATS = 5
# every child process of a run must have ended this long after the run began
RUN_DEADLINE_S = 170

TIMED_SPANS = (
    "series.parse_csv", "series.slice",
    "rates.credit_growth_rates", "rates.select_window",
    "ols.fit",
    "steady_state.ssp_irr_root", "steady_state.ssp_least_squares",
    "steady_state.trajectory", "steady_state.chi2_p_value",
    "cycles.cycle_stats",
    "basel.hp_filter", "basel.credit_gap",
    "report.analyze", "report.to_json", "report.render_svg",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Children:
    """Runs child processes one at a time, with src/ on PYTHONPATH, before a deadline."""

    def __init__(self, seconds: float):
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.deadline = time.monotonic() + seconds

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        # a session of its own, so that on timeout the child's own children die with it
        with subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"out of time: {' '.join(argv)}") from None
        if proc.returncode != 0:
            raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}\n{stderr.strip()}")
        return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)

    def worker(self, *args: str) -> dict:
        proc = self.run([sys.executable, str(BENCH_DIR / "worker.py"), *args])
        return json.loads(proc.stdout.strip().splitlines()[-1])


def import_breakdown(text: str) -> dict[str, float]:
    """``-X importtime`` output reduced to the ``import.*`` metrics, in ms.

    Each module's self time goes to the outermost numpy or scipy module that
    imported it, if any; the rest of the time spent under ``steadycredit``
    is the package's own.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _cum, field = line[len("import time:"):].split("|", 2)
        if not self_us.strip().isdigit():
            continue  # the header line
        name = field[1:].lstrip(" ")
        depth = (len(field) - 1 - len(name)) // 2
        entries.append((depth, name, int(self_us)))
    totals = {"numpy": 0, "scipy": 0, "steadycredit": 0, "all": 0}
    stack: list[str] = []
    for depth, name, self_us in reversed(entries):  # output is post-order
        stack[depth:] = [name.partition(".")[0]]
        owner = next((top for top in stack if top in ("numpy", "scipy")), None)
        if owner is None and "steadycredit" in stack:
            owner = "steadycredit"
        if owner is not None:
            totals[owner] += self_us
        totals["all"] += self_us
    return {
        "import.total_ms": totals["all"] / 1000.0,
        "import.numpy_ms": totals["numpy"] / 1000.0,
        "import.scipy_ms": totals["scipy"] / 1000.0,
        "import.steadycredit_self_ms": totals["steadycredit"] / 1000.0,
    }


def import_metrics(children: Children) -> dict[str, float]:
    runs = []
    starts = []
    for _ in range(IMPORT_REPEATS):
        proc = children.run([sys.executable, "-X", "importtime", "-c", "import steadycredit.cli"])
        runs.append(import_breakdown(proc.stderr))
        t0 = time.perf_counter()
        children.run([sys.executable, "-c", "pass"])
        starts.append(time.perf_counter() - t0)
    out = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    out["cli.interpreter_start_ms"] = 1000.0 * statistics.median(starts)
    return out


def failures(ops: list[list], ref: dict) -> list[str]:
    """One message per failed op: an exception, different bytes, or a bad reference."""
    out = []
    for key, result, _elapsed, _phase in ops:
        want, problems = ref[str(key)]
        if result.startswith("error:"):
            out.append(f"op {key}: {result}")
        elif result != want:
            out.append(f"op {key}: output differs from the reference pass")
        elif problems:
            out.append(f"op {key}: {'; '.join(problems)}")
    return out


def end_to_end(setups: list[float], ops: list[list], rss: list[float]) -> dict[str, float]:
    times = [op[2] for op in ops if op[3] == "plain"]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1000.0 * statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(ops: list[list], spans: dict, imports: dict[str, float]) -> dict[str, float]:
    """Per-op means over the traced ops; a function the op never calls reads 0."""
    plain = [op[2] for op in ops if op[3] == "plain"]
    traced = [op[2] for op in ops if op[3] == "traced"]
    n = len(traced)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}

    def agg(name: str) -> dict:
        return spans.get(name, empty)

    out = dict(imports)
    for name in TIMED_SPANS:
        out[f"{name}.self_ms"] = 1000.0 * agg(name)["self_s"] / n
    out["cli.main.total_ms"] = 1000.0 * agg("cli.main")["total_s"] / n
    out["ols.fit.calls"] = agg("ols.fit")["calls"] / n
    out["steady_state.chi2_p_value.calls"] = agg("steady_state.chi2_p_value")["calls"] / n
    computed = agg("rates.credit_growth_rates")["size"]
    out["rates.useful_ratio"] = agg("rates.select_window")["size"] / computed if computed else 0.0
    out["report.analyze.stage_errors"] = agg("report.analyze")["size"] / n
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return out


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "steadycredit" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'steadycredit'}")
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    children = Children(RUN_DEADLINE_S)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    setups, ops, rss, spans, ref = [], [], [], {}, {}
    for index in range(WORKERS):
        t_spawn = time.monotonic()
        res = children.worker("op", workload, str(seed), repr(seconds / WORKERS),
                              str(int(trace)), str(index), str(WORKERS), str(out_dir))
        setups.append(res["t_first"] - t_spawn)
        ops += res["ops"]
        rss += res["rss_mb"]
        ref.update(res.get("ref", {}))
        if res["spans"]:
            spans = merge(spans, res["spans"])
    if workload in WARM_WORKLOADS:
        ref = children.worker("ref", workload, str(seed))["ref"]

    failed = failures(ops, ref)
    for message in failed[:5]:
        print(f"failed {message}", file=sys.stderr)
    if trace:
        values = per_layer(ops, spans, import_metrics(children))
    else:
        values = end_to_end(setups, ops, rss)
    missing = [name for name, _unit in declared if name not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for name, unit in declared:
        print(f"{workload} {name} = {values[name]:.6g} {unit}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
