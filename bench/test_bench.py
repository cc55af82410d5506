"""Self-test of the benchmark harness.

    python -m pytest bench/test_bench.py

A short run of every workload must print every metric BENCHMARK.json
declares, and an op whose output is corrupted must count as failed.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from steadycredit import report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_every_listed_workload_runs():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_emits_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "1":
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["ols.fit.calls"] == 3
        assert values["report.analyze.stage_errors"] == 0
        if workload != "window-sweep":
            assert values["rates.useful_ratio"] == 1.0


def perturb_last_digit(text: str) -> str:
    i = max(text.rfind(d) for d in "0123456789")
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


# the CLI child runs the same perturbation inside the real ``steadycredit analyze``
CORRUPT_CLI = inspect.getsource(perturb_last_digit) + """
import sys
from steadycredit import cli, report
to_json = report.to_json
report.to_json = lambda *a, **k: perturb_last_digit(to_json(*a, **k))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, monkeypatch, tmp_path):
    """``to_json`` perturbs one digit of every report; the reference does not."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    if workload == "cli-cold":
        monkeypatch.setattr(worker, "CLI_ARGS", ["-c", CORRUPT_CLI])
        res = worker.cli_worker(5, 0.1, False, 0, tmp_path)
        ref = res["ref"]
    else:
        original = report.to_json
        monkeypatch.setattr(report, "to_json",
                            lambda *a, **k: perturb_last_digit(original(*a, **k)))
        res = worker.warm_worker(workload, 5, 0.1, False, 0, 1, tmp_path)
        ref = run.Children(60).worker("ref", workload, "5")["ref"]
    failed = run.failures(res["ops"], ref)
    assert res["ops"] and len(failed) == len(res["ops"])


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
    mapped = [name for entry in layers["layers"] for name in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_import_breakdown_attributes_by_outermost_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        10 |         10 |       json",
        "import time:        20 |         30 |     numpy.core",
        "import time:         5 |          5 |       scipy._lib",
        "import time:        40 |         45 |     scipy",
        "import time:         7 |          7 |     argparse",
        "import time:         3 |         85 |   steadycredit.basel",
        "import time:         2 |         87 | steadycredit",
    ])
    assert run.import_breakdown(text) == {
        "import.total_ms": 0.187,
        "import.numpy_ms": 0.030,
        "import.scipy_ms": 0.045,
        "import.steadycredit_self_ms": 0.012,
    }
