"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that generation is deterministic for a seed, that every correctness
check passes on every workload, that the printed metric names and units
match BENCHMARK.json, that traced counts repeat exactly, and that a
checkout without bictrace's sources is refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "agent_small": run.Workload(
        "agent", dict(files=4, functions=3, body=6, commits=24, cases=3, touch=1, full_blame=False),
        trace_cases=3,
    ),
    "agent_large_file": run.Workload(
        "agent", dict(files=2, functions=20, body=10, commits=12, cases=2, touch=3, full_blame=True),
        trace_cases=2,
    ),
    "szz_baselines": run.Workload(
        "szz", dict(files=2, functions=8, body=8, batches=1, touch=2), trace_cases=1
    ),
}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def bench(workload: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                       "--trace", str(trace)], workloads=TINY)
    return rc, json.loads(out.getvalue().splitlines()[-1])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_generation_is_deterministic(tmp_path, workload):
    wl = TINY[workload]
    build = synth.agent_repo if wl.kind == "agent" else synth.szz_repo
    first = build(str(tmp_path / "a"), 5, **wl.sizes)
    again = build(str(tmp_path / "b"), 5, **wl.sizes)
    other = build(str(tmp_path / "c"), 6, **wl.sizes)
    assert first.tip == again.tip
    assert first.agent_cases == again.agent_cases and first.szz_cases == again.szz_cases
    assert other.tip != first.tip


@pytest.mark.parametrize("workload", sorted(TINY))
def test_checks_pass_and_end_to_end_names_match(workload):
    rc, result = bench(workload, trace=0)
    assert rc == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_names_match_and_counts_repeat(workload):
    rc, first = bench(workload, trace=1)
    _, second = bench(workload, trace=1)
    assert rc == 0 and first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = [k for k, v in first["metrics"].items() if v["unit"] != "s"]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_wrappers_restore_every_reference():
    run.load_bictrace()
    from bictrace import cli, compress

    before = (cli.main, compress._FORMATTERS[compress.ToolName.BLAME], cli.load_fix_context)
    with tracing.Tracer() as tracer:
        assert cli.main is not before[0]
        assert compress._FORMATTERS[compress.ToolName.BLAME] is not before[1]
        assert cli.load_fix_context is not before[2]
    assert tracer.absent == []
    assert (cli.main, compress._FORMATTERS[compress.ToolName.BLAME], cli.load_fix_context) == before


def test_missing_target_is_reported_absent():
    targets = tracing.TARGETS + [("gitio.gone", "bictrace.gitio", "no_such_function", None)]
    with tracing.Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["bictrace.gitio.no_such_function"]


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "agent_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
