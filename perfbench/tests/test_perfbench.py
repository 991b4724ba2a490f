"""Tests of the benchmark itself, on inputs small enough to run in seconds."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compare, harness, run, spans, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def records():
    """One small untraced and one small traced run of every workload."""
    return {
        (name, traced): harness.run(name, 1, 0.05, traced, small=True)
        for name in workloads.NAMES
        for traced in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_metric_names_and_units_match_benchmark_json(records, name, traced):
    record = records[name, traced]
    declared = SPEC["per_layer" if traced else "end_to_end"]
    selected = run.select(record["metrics"], declared)
    assert [m["name"] for m in declared] == list(selected)
    assert all(isinstance(m["value"], (int, float)) for m in selected.values())
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert record["metrics"]["failed_ratio"]["value"] == 0
    assert set(record["env"]) == {"backend", "python", "nproc", "seed"}


def test_sweeps_check_every_element(records):
    record = records["sweep-theorem", True]
    orders = sum(r**n * math.factorial(n) // p for r, p, n in workloads.SMALL_THEOREM_GROUPS)
    assert record["metrics"]["_kernels.theorem_stats.calls"]["value"] == orders


def test_kernel_counts_repeat_across_seeds(records):
    other = harness.run("sweep-theorem", 2, 0.05, True, small=True)
    name = "_kernels.theorem_stats.calls"
    assert other["metrics"][name] == records["sweep-theorem", True]["metrics"][name]


def test_wrong_inversion_count_raises_failed_ratio(monkeypatch):
    real_import = harness.import_grpn

    def import_with_wrong_kernel():
        grpn = real_import()
        get_kernel = grpn.signs.get_kernel

        def wrong_get_kernel(backend=None):
            kernel = get_kernel(backend)

            def wrong(perm, colors, r):
                inv_sigma, *rest = kernel(perm, colors, r)
                return (inv_sigma + 1, *rest)

            return wrong

        grpn.signs.get_kernel = wrong_get_kernel  # on the fresh import only
        return grpn

    monkeypatch.setattr(harness, "import_grpn", import_with_wrong_kernel)
    record = harness.run("sweep-theorem", 1, 0.05, False, small=True)
    assert record["metrics"]["failed_ratio"]["value"] > 0
    assert not record["correct"] and record["failures"]


def test_span_self_times_stay_within_request_wall_time(records):
    tracer = records["query-mix", True]["tracer"]
    per_request = tracer.request_times()
    assert per_request
    for wall, own in per_request.values():
        assert 0 < own <= wall


def test_tracer_restore_undoes_every_patch():
    with harness.isolated_grpn():
        grpn = harness.import_grpn()
        owners = list(harness._grpn_modules().values()) + [
            grpn.group.GroupElement,
            grpn.tableaux.StandardTableau,
            grpn.tableaux.Multitableau,
        ]
        before = [dict(vars(owner)) for owner in owners]
        tracer = spans.Tracer()
        spans.instrument(tracer, grpn)
        assert hasattr(grpn.signs.rs_map, "__wrapped__")
        assert hasattr(grpn._kernels._fallback.rs_map, "__wrapped__")
        tracer.restore()
        assert [dict(vars(owner)) for owner in owners] == before


def test_compare_refuses_different_environments():
    env = {"backend": "python", "python": "3.11.7", "nproc": 2, "seed": 1}
    base = {("query-mix", 1): {"workload": "query-mix", "env": env}}
    new = {("query-mix", 1): {"workload": "query-mix", "env": {**env, "backend": "cython"}}}
    with pytest.raises(compare.EnvironmentMismatch):
        compare.paired(base, new)
    assert compare.paired(base, {("query-mix", 1): {"workload": "query-mix", "env": env}})


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "query-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
