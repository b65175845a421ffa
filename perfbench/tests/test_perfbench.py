"""Self-tests of the benchmark at tiny size (n=51, K=8).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.checks import REFERENCE, check_outputs, reference_problem
from perfbench.repetition import run_repetition
from perfbench.tracing import LAYERS, Span, Tracer, installed, self_times
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, make_config

ROOT = Path(__file__).resolve().parents[2]


def tiny_config(workload, work_dir, seed=3):
    extra = {"fine_refine": 2} if workload == "oscillatory_cold_desk" else {}
    return make_config(workload, seed, work_dir, n=51, ensemble_size=8, t_end=0.04, **extra)


@pytest.fixture(scope="module")
def repetitions(tmp_path_factory):
    """An untraced and a traced tiny repetition per workload: {workload: (config, untraced, traced)}."""
    out = {}
    for workload in WORKLOADS:
        traced_cfg = tiny_config(workload, tmp_path_factory.mktemp(f"{workload}-traced"))
        traced = run_repetition(traced_cfg, trace=True)
        cfg = tiny_config(workload, tmp_path_factory.mktemp(workload))
        out[workload] = (cfg, run_repetition(cfg, trace=False), traced)
    return out


def test_metric_names_and_units_match_benchmark_json(repetitions):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload, (_, untraced, traced) in repetitions.items():
        metrics = run.summarize([untraced], [traced])
        end_to_end = {name: unit for name, (_, unit) in metrics.items() if name in run.END_TO_END_UNITS}
        per_layer = {name: unit for name, (_, unit) in metrics.items() if name not in run.END_TO_END_UNITS}
        assert end_to_end == {m["name"]: m["unit"] for m in bench["end_to_end"]}, workload
        assert per_layer == {m["name"]: m["unit"] for m in bench["per_layer"]}, workload


def test_tiny_repetitions_pass_their_checks(repetitions):
    for workload, (_, untraced, traced) in repetitions.items():
        assert untraced["problems"] == [] and traced["problems"] == [], workload
        assert untraced["posterior_rel_err"] == traced["posterior_rel_err"] > 0.0
        assert traced["layers"]["harness.truth_cache.hit_ratio"] == 0.5


def test_span_self_times_are_bounded_by_parent_durations(repetitions):
    for workload, (_, _, traced) in repetitions.items():
        spans = traced["spans"]
        durations = [s["end"] - s["start"] for s in spans]
        selfs = self_times([Span(**s) for s in spans])
        for i, span in enumerate(spans):
            assert selfs[i] >= 0.0, (workload, span["name"])
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
                assert selfs[i] <= durations[span["parent"]], (workload, span["name"])
        # the layers' self times account for the timed set-up plus run
        wall = traced["setup_samples_s"][0] + traced["run_samples_s"][0]
        assert 0.0 <= traced["unaccounted_s"] <= 0.01 * wall + 1e-3, workload


def test_installed_restores_the_original_functions():
    originals = [getattr(importlib.import_module(module), attr) for _, module, attr, _ in LAYERS]
    with installed(Tracer()):
        assert all(getattr(importlib.import_module(m), a) is not f for (_, m, a, _), f in zip(LAYERS, originals))
    assert all(getattr(importlib.import_module(m), a) is f for (_, m, a, _), f in zip(LAYERS, originals))


def _corrupt_value(out):
    path = out / "solution.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[-1] = "nan"
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _drop_row(out):
    path = out / "error.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _fail_manifest(out):
    path = out / "manifest.txt"
    path.write_text(path.read_text().replace("status = completed", "status = failed"))


def _drop_observation(out):
    path = out / "solution.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = ""
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt", [_corrupt_value, _drop_row, _fail_manifest, _drop_observation])
def test_corrupted_output_fails_the_check(repetitions, tmp_path, corrupt):
    cfg, _, _ = repetitions["sparse_clustered_ref"]
    copy = tmp_path / "out"
    shutil.copytree(cfg.output_dir, copy)
    cfg = dataclasses.replace(cfg, output_dir=copy)
    assert check_outputs(cfg) == []
    corrupt(copy)
    assert check_outputs(cfg) != []


def test_reference_pins_the_default_seed_only():
    ref = json.loads(REFERENCE.read_text())
    assert ref["seed"] == DEFAULT_SEED
    assert set(ref["posterior_rel_err"]) == set(WORKLOADS)
    for workload, value in ref["posterior_rel_err"].items():
        assert reference_problem(workload, DEFAULT_SEED, value) is None
        assert reference_problem(workload, DEFAULT_SEED, value * (1 + 10 * ref["rtol"])) is not None
        assert reference_problem(workload, DEFAULT_SEED + 1, 2 * value) is None


def test_failed_repetition_counts_and_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "run_one", lambda *args: (None, "repetition exited with 3: boom"))
    assert run.main(["--workload", "dense_baseline_ref", "--seed", "1", "--seconds", "1"]) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_baseline_ref", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
