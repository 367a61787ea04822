"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
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
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import SPECS, make_instances, make_ops  # noqa: E402


def smoke_ops(name: str, seed: int = 5):
    lib = run.import_library()
    return lib, make_ops(lib, name, make_instances(lib, name, seed, smoke=True))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_work_counts_repeat_exactly(name):
    first, _ = run.run_workload(name, 3, 0.0, trace=True, smoke=True)
    again, _ = run.run_workload(name, 3, 0.0, trace=True, smoke=True)
    assert first["correct"] and again["correct"]
    for key in spans.EXACT_METRICS:
        assert first["metrics"][key] == again["metrics"][key], key


def test_trace_sees_every_layer_it_should():
    lib, work = smoke_ops("dense-few")
    metrics, _samples, problems = run.traced_rounds(lib, work.ops, 0.0)
    assert not problems
    assert metrics["extension.product_iterations"] > 0
    assert metrics["enumeration.incremental_stages"] > 0
    assert metrics["cliques.kept_ratio"] > 0
    assert metrics["cli.self_ms"] > 0
    # the tracer puts every wrapped global back
    assert not hasattr(lib.enumeration.extend, "__wrapped__")


def _planted(op, tamper):
    original = op.run

    def run_and_tamper(rec):
        answer = original(rec)
        return tamper(rec, answer)

    return dataclasses.replace(op, run=run_and_tamper)


def _drop_one_output(rec, answer):
    rec.outputs.pop()
    rec.stamps.pop()
    return answer


@pytest.mark.parametrize("name,kind", [
    ("sparse-many", "tree"),
    ("dense-few", "incremental"),
    ("dense-few", "hypercliques"),
    ("dense-few", "mis"),
])
def test_gate_catches_a_sink_that_drops_an_output(name, kind):
    _lib, work = smoke_ops(name)
    op = next(o for o in work.ops if o.kind == kind)
    assert run.run_op(op)["status"] == "ok"
    assert run.run_op(_planted(op, _drop_one_output))["status"].startswith("wrong")


@pytest.mark.parametrize("kind", ["rank-lookahead", "rank-bd", "conformal"])
def test_gate_catches_a_wrong_number(kind):
    _lib, work = smoke_ops("decide")
    op = next(o for o in work.ops if o.kind == kind)
    assert run.run_op(_planted(op, lambda _rec, ans: ans + 1))["status"].startswith("wrong")


def test_gate_catches_a_wrong_verdict():
    _lib, work = smoke_ops("decide")
    equal = next(o for o in work.ops if o.kind == "verify-equal")
    missing = next(o for o in work.ops if o.kind == "verify-missing")
    assert run.run_op(_planted(missing, lambda _rec, _ans: equal.run(_rec)))["status"].startswith("wrong")


def test_gate_catches_wrong_cli_output():
    _lib, work = smoke_ops("sparse-many")
    op = next(o for o in work.ops if o.kind == "cli-enumerate")
    truncated = _planted(op, lambda _rec, ans: (ans[0], ans[1].split("\n", 1)[1]))
    assert run.run_op(truncated)["status"].startswith("wrong")


def test_a_capped_op_fails_at_the_cap():
    _lib, work = smoke_ops("dense-few")
    op = next(o for o in work.ops if o.kind == "mis")
    sample = run.run_op(op, cap_s=1e-4)
    assert sample["status"] == "capped"
    assert sample["ns"] == int(1e-4 * 1e9)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_smoke_run_end_to_end(name, capsys):
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_library_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
