"""The perf-trend CLI: ingestion runs, the report, and the CI gate.

``benchmarks/trend.py`` is what the ``perf-trend`` CI job executes.
These tests run its ``main()`` over the repo's committed baselines
(fresh history never fails the gate) and over a sandboxed baseline
directory replaying four CI runs into one persisted store — the last
run with doubled seconds, which must trip ``--fail-on-regress``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "bench_trend", REPO_ROOT / "benchmarks" / "trend.py"
)
trend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trend)


def write_run(
    bench_dir: Path, run: int, seconds: float, backend: str = "generic"
) -> None:
    """One simulated CI run's BENCH_demo.json snapshot."""
    stamp = f"2026-08-{run:02d}T00:00:00Z"
    payload = {
        "suite": "demo",
        "git_sha": f"{run:040x}",
        "python": "3.11.7",
        "updated": stamp,
        "environment": {"exec_backend": backend},
        "entries": {
            "case": {
                "seconds": seconds,
                "speedup": 4.0,
                "floor": 1.3,
                "shape": {"n": 8},
                "git_sha": f"{run:040x}",
                "recorded_at": stamp,
            }
        },
    }
    (bench_dir / "BENCH_demo.json").write_text(json.dumps(payload))


def test_committed_baselines_pass_the_gate(tmp_path, capsys):
    """Fresh history is insufficient, never regress: exit 0."""
    code = trend.main(
        ["--store", str(tmp_path / "store.jsonl"), "--fail-on-regress"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Perf-trend report" in out
    assert "0 regress" in out
    assert (tmp_path / "store.jsonl").exists()


def test_store_accumulates_without_fabricating_history(tmp_path, capsys):
    """Re-running over unchanged baselines appends nothing."""
    store = tmp_path / "store.jsonl"
    assert trend.main(["--store", str(store)]) == 0
    first = store.read_text()
    assert trend.main(["--store", str(store)]) == 0
    assert store.read_text() == first
    capsys.readouterr()


def test_synthetic_slowdown_fails_the_gate(tmp_path, capsys):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    store = tmp_path / "store.jsonl"
    report = tmp_path / "trend_report.txt"
    base = ["--store", str(store), "--bench-dir", str(bench_dir), "--fail-on-regress"]

    # three clean runs build the history
    for run in range(1, 4):
        write_run(bench_dir, run, seconds=1.0)
        assert trend.main(base) == 0
    capsys.readouterr()

    # the fourth run doubles the measured seconds: regress, exit 1
    write_run(bench_dir, 4, seconds=2.0)
    code = trend.main(base + ["--report", str(report)])
    captured = capsys.readouterr()
    assert code == 1
    assert "REGRESS" in captured.out
    assert "regressed" in captured.err
    assert "REGRESS" in report.read_text()

    # without the gate flag the same state only reports
    assert trend.main(["--store", str(store), "--bench-dir", str(bench_dir)]) == 0
    capsys.readouterr()


def test_backend_switch_starts_a_new_series(tmp_path, capsys):
    """A run stamped with another execution backend is judged against its
    own (empty) history, never against the other backend's: the default
    backend changing under the baselines cannot trip the gate."""
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    store = tmp_path / "store.jsonl"
    base = ["--store", str(store), "--bench-dir", str(bench_dir), "--fail-on-regress"]
    for run in range(1, 4):
        write_run(bench_dir, run, seconds=1.0, backend="generic")
        assert trend.main(base) == 0
    capsys.readouterr()

    write_run(bench_dir, 4, seconds=2.0, backend="fused")
    assert trend.main(base) == 0
    out = capsys.readouterr().out
    assert "0 regress" in out
    fused_rows = [line for line in out.splitlines() if " fused " in line]
    assert fused_rows
    assert all("insufficient_history" in line for line in fused_rows)


def test_threshold_flags_reach_the_judge(tmp_path, capsys):
    """A 2x slowdown passes a 3x regress threshold (but still warns)."""
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    store = tmp_path / "store.jsonl"
    for run in range(1, 4):
        write_run(bench_dir, run, seconds=1.0)
        trend.main(["--store", str(store), "--bench-dir", str(bench_dir)])
    write_run(bench_dir, 4, seconds=2.0)
    code = trend.main(
        [
            "--store",
            str(store),
            "--bench-dir",
            str(bench_dir),
            "--fail-on-regress",
            "--regress-ratio",
            "3.0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1 warn" in out
