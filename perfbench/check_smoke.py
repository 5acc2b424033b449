"""Smoke test of the benchmark: every workload at toy size, traced and untraced.

Run from the repository root with::

    python3 -m pytest -q perfbench/check_smoke.py

The file name does not match pytest's ``test_*.py`` pattern, so the
default test collection (the tier-1 suite) never picks it up.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _smoke(trace: int, repeats: int):
    proc = _run(ROOT, "--workload", "all", "--seed", "11", "--seconds", "0.5",
                "--trace", str(trace), "--smoke", "--repeats", str(repeats))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    ends = [i for i, line in enumerate(lines) if line.startswith("{")]
    results = [json.loads(lines[i]) for i in ends]
    # the report line above each result names its workload; the order of the
    # workloads is reversed on the second repeat
    order = [lines[i - 1].split(":", 1)[0] for i in ends]
    assert order == (WORKLOADS + WORKLOADS[::-1])[:len(WORKLOADS) * repeats]
    return dict(zip(order, results)), lines


@pytest.fixture(scope="module")
def untraced():
    return _smoke(0, repeats=1)


@pytest.fixture(scope="module")
def traced():
    return _smoke(1, repeats=2)


def _check_result(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in spec]
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_emitted_and_checks_pass(untraced, workload):
    results, _ = untraced
    _check_result(results[workload], SPEC["end_to_end"])
    assert all(value["value"] > 0 for value in results[workload]["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_emitted_and_checks_pass(traced, workload):
    results, _ = traced
    _check_result(results[workload], SPEC["per_layer"])


def test_report_names_the_library_figures(untraced):
    _, lines = untraced
    assert lines[0].startswith("env: ")
    header = json.loads(lines[0][len("env: "):])
    assert {"nproc", "cpu", "python", "numpy", "scipy", "networkx", "blas"} <= set(header)
    expected = {
        "desk-rematch": ("run_s_p50", "run_s_p90", "pairs_per_s", "test_rsum", "ident_f1"),
        "desk-baselines": ("run_s_p50", "run_s_p90", "pairs_per_s", "test_rsum", "ident_f1"),
        "solver-certify": ("solve_ms_p50", "solve_ms_p90", "solves_per_s", "oracle_gap_max"),
    }
    for workload, names in expected.items():
        for name in names + ("setup_s", "pass_s", "wall_s_fastest", "failed_frac",
                             "peak_rss_mb", "reference_ms_median"):
            assert any(line.startswith(f"{workload}: {name} = ") for line in lines), name
        assert f"{workload}: failed_frac = 0.0 ratio" in lines


def test_traced_split_matches_the_workloads(traced):
    results, _ = traced
    layers = {name: {key: value["value"] for key, value in result["metrics"].items()}
              for name, result in results.items()}
    assert layers["desk-rematch"]["transport.partial_ot.calls"] > 0
    assert layers["desk-baselines"]["transport.partial_ot.calls"] == 0
    assert layers["desk-baselines"]["transport.sinkhorn.calls"] == 0
    assert layers["desk-baselines"]["mixture.fit_bmm.calls"] > 0
    for workload in ("desk-rematch", "desk-baselines"):
        assert layers[workload]["flow_oracle.exact_ot_oracle.calls"] == 0
    assert layers["solver-certify"]["flow_oracle.exact_ot_oracle.calls"] > 0
    assert layers["solver-certify"]["pipeline.run_experiment.calls"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
