"""Tests of the benchmark itself: generators, oracles, tracer, CLI contract.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


def inputs(workload):
    """The generated inputs of a workload, as comparable bytes."""
    if isinstance(workload, workloads.LstsqLadder):
        return [(m, a.data.tobytes(), b.data.tobytes()) for m, a, b in workload.systems]
    return repr(workload.starts)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    assert inputs(cls(5)) == inputs(cls(5))
    assert inputs(cls(5)) != inputs(cls(6))


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_checks_at_a_second_seed(name):
    workload = workloads.WORKLOADS[name](11, tiny=True)
    result = workload.run()
    assert workload.check(result) == []
    assert result.model_ms > 0 and result.model_launches > 0
    assert workload.run().digests == result.digests


def test_oracles_reject_wrong_outputs():
    ladder = workloads.LstsqLadder(1, tiny=True)
    result = ladder.run()
    result.outputs[0] = result.outputs[0] * 1.0000001
    assert len(ladder.check(result)) == 1

    fleet = workloads.Cyclic3Fleet(1, tiny=True)
    result = fleet.run()
    moved = result.outputs[0]
    # scaling a cyclic-3 root keeps x1+x2+x3 and x1x2+x2x3+x3x1 at 0
    # but moves x1x2x3 - 1 off 0
    result.outputs[0] = dataclasses.replace(
        moved, final_point=[x * 1.0000001 for x in moved.final_point]
    )
    result.outputs[1] = dataclasses.replace(result.outputs[1], reached=False)
    assert len(fleet.check(result)) == 2


def test_cyclic3_residual_oracle_is_exact():
    fleet = workloads.Cyclic3Fleet(1, tiny=True)
    root = complex(-0.5, 3**0.5 / 2)
    from repro.md import ComplexMultiDouble

    point = [ComplexMultiDouble(1.0), ComplexMultiDouble(root), ComplexMultiDouble(root.conjugate())]
    assert 0 < fleet.residual(point) < 1e-15
    assert fleet.residual([ComplexMultiDouble(1.0)] * 3) == 3.0


def test_tracer_restores_the_program_and_keeps_outputs_bitwise():
    import repro.core.least_squares as least_squares
    from repro.exec import get_backend
    from repro.md import MultiDouble

    originals = (least_squares.blocked_qr, MultiDouble.__add__)
    ladder = workloads.LstsqLadder(2, tiny=True)
    plain = ladder.run()
    spans = tracer.Tracer()
    with spans.installed():
        assert least_squares.blocked_qr is not originals[0]
        traced = ladder.run()
    assert (least_squares.blocked_qr, MultiDouble.__add__) == originals
    assert "add" not in vars(get_backend())
    assert traced.digests == plain.digests
    assert spans.layer("core.qr")[0] == 3 and spans.launches > 0
    assert spans.self_seconds() == pytest.approx(spans.covered_s)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_prints_every_metric(name, trace):
    child = run_bench(
        "--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"
    )
    assert child.returncode == 0, child.stdout + child.stderr
    lines = child.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " = ") for line in lines)
    assert any(line.startswith("env: ") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lstsq_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=180,
        cwd=tmp_path,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
