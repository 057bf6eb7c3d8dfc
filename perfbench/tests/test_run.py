"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_workload_emits_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
        if not trace:
            assert m["value"] > 0, name
    env = json.loads(lines[-2])["environment"]
    for key in ("python", "numpy", "scipy", "nproc", "cpu_model", "git_commit", "seed"):
        assert key in env


def test_fails_without_the_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no src/gpas.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results"))
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
        from gpas.numerics import RngStream

        before = [getattr(m, a) for m, a, _ in tracing.BINDINGS]
        next_uniform = RngStream.next_uniform
        tracer = tracing.Tracer()
        with tracer.installed():
            assert all(getattr(m, a) is not f for (m, a, _), f in zip(tracing.BINDINGS, before))
            RngStream(0).next_uniform()
        assert [getattr(m, a) for m, a, _ in tracing.BINDINGS] == before
        assert RngStream.next_uniform is next_uniform
        assert tracer.uniforms == 1
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(ROOT / "perfbench"))
