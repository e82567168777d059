"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail lines. Criterion 10 (live endpoint smoke) is skipped unless the
live backend environment variables are configured.
"""

import json
import os
import random
import re
import time
from fractions import Fraction

import pytest

from oracle import AttributionOracle
from repo_helpers import RepoBuilder, generate_random_repo, object_set_digest

from bictrace import gitio
from bictrace.agent import (
    LiveBackend,
    ScriptedBackend,
    final_step,
    record_transcript,
    run_investigation,
    tool_step,
)
from bictrace.caseprep import CaseSpec, assemble_initial_context, load_fix_context
from bictrace.compress import (
    MAX_OBS_OVERHEAD,
    CompressionConfig,
    compress_formatted,
    _FORMATTERS,
    execute_compressed,
)
from bictrace.evaluate import CaseResult, classify_cross_file, classify_ghost, metrics
from bictrace.gitio import RepoHandle
from bictrace.prompts import default_template
from bictrace.resolve import resolve_prediction, sanitize_hash
from bictrace.szz import b_szz, blame_candidates, l_szz, r_szz
from bictrace.tools import LogSArgs, ToolName, tool_schemas

HEX_TOKEN_RE = re.compile(r"\b[0-9a-f]{7,40}\b")


def make_ctx(repo_path, fix):
    repo = RepoHandle(repo_path)
    fc = load_fix_context(repo, fix)
    return repo, fc, assemble_initial_context(fc, tool_schemas(), default_template())


def test_c01_baseline_oracle_equivalence(tmp_path):
    """b_szz equals the per-line last-writer oracle on 20 random histories."""
    started = time.monotonic()
    n_repos = 20
    checked_fixes = 0
    addition_only_seen = 0
    for i in range(n_repos):
        rb, commits = generate_random_repo(tmp_path / f"r{i}", seed=1000 + 37 * i)
        repo = RepoHandle(rb.path)
        oracle = AttributionOracle(rb.path)
        fixes = commits[1:][-4:]
        for fix in fixes:
            expected = oracle.last_writer_b_szz(fix)
            fc = load_fix_context(repo, fix)
            got = b_szz(repo, fc)
            assert got == expected, (i, fix)
            checked_fixes += 1
            if not expected:
                addition_only_seen += 1

            # Selectors per their heuristics, tie-break = smallest id,
            # derived independently from oracle attribution counts.
            if expected:
                stamps = {c: gitio.commit_timestamp(repo, c) for c in expected}
                expect_r = min(expected, key=lambda c: (-stamps[c], c))
                assert r_szz(repo, fc) == expect_r, (i, fix)

                per_commit = {}
                for cand in blame_candidates(repo, fc):
                    per_commit[cand.commit] = per_commit.get(cand.commit, 0) + cand.lines_attributed
                expect_l = min(per_commit, key=lambda c: (-per_commit[c], c))
                assert l_szz(repo, fc) == expect_l, (i, fix)
            else:
                assert r_szz(repo, fc) is None
                assert l_szz(repo, fc) is None
    elapsed = time.monotonic() - started
    assert checked_fixes >= 2 * n_repos
    assert addition_only_seen >= 1, "generator produced no addition-only fixes"
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


def test_c02_compression_constants_and_bounds():
    """Defaults pin the published constants; bounds hold on random output."""
    from test_compress import synth_raw

    cfg = CompressionConfig()
    assert cfg.tau == 3000
    assert cfg.line_caps[ToolName.GREP] == 100
    assert cfg.line_caps[ToolName.LOG_FUNC] == 300

    for tool in ToolName:
        rng = random.Random(0xACC0 + hash(tool.value) % 1000)
        for trial in range(200):
            raw = synth_raw(tool, rng)
            formatted, truncated = _FORMATTERS[tool](raw, cfg)
            text, truncated = compress_formatted(tool, formatted, truncated, cfg)
            assert len(text) <= cfg.tau + MAX_OBS_OVERHEAD, (tool.value, trial)
            raw_tokens = set(HEX_TOKEN_RE.findall(raw))
            for token in HEX_TOKEN_RE.findall(text):
                assert any(rt.startswith(token) for rt in raw_tokens), (tool.value, trial)
            if truncated:
                assert text.splitlines()[-1].startswith("[output truncated"), (tool.value, trial)


def test_c03_cache_and_timeout_behavior(tmp_path, slow_repo):
    """One process per distinct call; timeouts hint and are never cached."""
    rb = RepoBuilder(tmp_path / "cache")
    rb.commit({"f.c": "int f(void) {\n  return 1;\n}\n"}, "seed")
    head = rb.commit({"f.c": "int f(void) {\n  return 2;\n}\n"}, "update")
    repo = RepoHandle(rb.path)
    cache = {}
    cfg = CompressionConfig()
    fix_date = 2_000_000_000

    calls = [
        (ToolName.BLAME, {"file_path": "f.c"}),
        (ToolName.SHOW, {"commit": head}),
        (ToolName.GREP, {"search_string": "return"}),
        (ToolName.LOG_S, {"search_string": "f"}),
        (ToolName.LOG_FUNC, {"function_name": "f", "file_path": "f.c"}),
    ]
    from bictrace.tools import parse_args

    for tool, payload in calls:
        args = parse_args(tool, payload)
        before = repo.process_count
        first = execute_compressed(repo, tool, args, fix_date, cache, cfg, head)
        second = execute_compressed(repo, tool, args, fix_date, cache, cfg, head)
        third = execute_compressed(repo, tool, args, fix_date, cache, cfg, head)
        assert repo.process_count - before == 1, tool.value
        assert first.text == second.text == third.text
        assert second.cache_hit and third.cache_hit and not first.cache_hit

    slow = RepoHandle(slow_repo.path, default_timeout=0.001)
    timeout_cache = {}
    obs = execute_compressed(
        slow, ToolName.LOG_S, LogSArgs(search_string="return"), fix_date, timeout_cache,
        cfg, slow_repo.head(),
    )
    assert "Retry with narrower parameters" in obs.text
    assert len(timeout_cache) == 0


def test_c04_turn_bound_and_determinism(cross_file_repo, tmp_path):
    """Unlimited tool calls stop at 15; scripted runs are byte-identical."""
    rb, info = cross_file_repo
    case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="acc")
    repo, fc, ctx = make_ctx(rb.path, info["fix"])

    def run_once(out_path):
        backend = ScriptedBackend(
            [tool_step(ToolName.GREP, search_string="core_alloc_event")], repeat_last=True
        )
        prediction, transcript = run_investigation(case, repo, fc, ctx, backend)
        record_transcript(transcript, prediction, out_path)
        return prediction, transcript

    p1, p2 = str(tmp_path / "one.jsonl"), str(tmp_path / "two.jsonl")
    _, t1 = run_once(p1)
    _, t2 = run_once(p2)
    assert t1.tool_turns <= 15 and t1.tool_turns == 15
    assert t2.tool_turns <= 15
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_c05_end_to_end_scripted_detection(cross_file_repo, ghost_repo, tmp_path):
    """Scripted trajectories land on the planted commit in both hard cases."""
    # Cross-file: fix in the driver, cause in the library, refactor between.
    rb, info = cross_file_repo
    case = CaseSpec(
        repo_path=rb.path, fix_commit=info["fix"], ground_truth={info["bic"]},
        dataset_tag="acc",
    )
    repo, fc, ctx = make_ctx(rb.path, info["fix"])
    steps = [
        tool_step(ToolName.BLAME, file_path="driver/hotplug.c"),
        tool_step(ToolName.SHOW, commit=info["refactor"][:12]),
        tool_step(ToolName.GREP, search_string="core_alloc_event"),
        tool_step(ToolName.LOG_S, search_string="dyn_alloc_event"),
        final_step(f"BIC: {info['bic']}\nConfidence: high\nReasoning: allocation rewrite"),
    ]
    prediction, transcript = run_investigation(case, repo, fc, ctx, ScriptedBackend(steps))
    assert prediction.status == "resolved"
    assert prediction.resolved_id == info["bic"]
    # The trajectory is grounded: blame surfaced the refactor, the pickaxe
    # search surfaced the planted commit itself.
    blame_obs = transcript.turns[0]["observation"].text
    assert info["refactor"][:12] in blame_obs
    pickaxe_obs = transcript.turns[3]["observation"].text
    assert info["bic"][:7] in pickaxe_obs
    assert classify_cross_file(repo, case, fc) is True
    assert classify_ghost(fc) is False

    # Ghost: addition-only fix, traced through the guarded identifier.
    grb, ginfo = ghost_repo
    gcase = CaseSpec(
        repo_path=grb.path, fix_commit=ginfo["fix"], ground_truth={ginfo["bic"]},
        dataset_tag="acc",
    )
    grepo, gfc, gctx = make_ctx(grb.path, ginfo["fix"])
    gsteps = [
        tool_step(ToolName.LOG_S, search_string="entry->weight"),
        final_step(f"BIC: {ginfo['bic']}\nConfidence: high\nReasoning: unguarded use"),
    ]
    gprediction, gtranscript = run_investigation(gcase, grepo, gfc, gctx, ScriptedBackend(gsteps))
    assert gprediction.status == "resolved"
    assert gprediction.resolved_id == ginfo["bic"]
    assert ginfo["bic"][:7] in gtranscript.turns[0]["observation"].text
    assert classify_ghost(gfc) is True
    assert classify_cross_file(grepo, gcase, gfc) is False


def test_c06_prefix_ladder(linear_handle, prefix_repo):
    """Resolution attempts full, 12, 10, 8, 7; ambiguity and floor behavior."""
    repo, shas = linear_handle
    target = shas[1]
    corrupted = target[:12] + "f" * 28
    if corrupted == target:
        corrupted = target[:12] + "e" * 28
    status, full, trace = resolve_prediction(repo, corrupted)
    assert status == "resolved" and full == target
    assert [n for n, _ in trace.attempts] == [40, 12]

    status, full, trace = resolve_prediction(repo, "9" * 40)
    assert status == "discarded"
    assert [n for n, _ in trace.attempts] == [40, 12, 10, 8, 7]

    prb, info = prefix_repo
    prepo = RepoHandle(prb.path)
    fake = info["prefix"] + "9" * 33
    status, full, trace = resolve_prediction(prepo, fake)
    assert status == "discarded" and full is None
    assert trace.attempts[-1] == (7, "ambiguous")

    before = repo.process_count
    status, full, trace = resolve_prediction(repo, "abc123")
    assert status == "discarded" and trace.attempts == []
    assert repo.process_count == before

    assert sanitize_hash("no idea") == ""


def test_c07_metrics_exactness():
    """Micro-averaged metrics match hand-computed rationals exactly."""
    from test_evaluate import HAND_TABLES

    assert len(HAND_TABLES) >= 10
    for gt, pred in HAND_TABLES:
        results = [CaseResult(case_id=c, predicted=sorted(p)) for c, p in pred.items()]
        inter = sum(len(gt[c] & set(pred[c])) for c in pred)
        p_total = sum(len(v) for v in pred.values())
        g_total = sum(len(gt[c]) for c in pred)
        expected = (
            float(Fraction(inter, p_total)) if p_total else 0.0,
            float(Fraction(inter, g_total)) if g_total else 0.0,
            float(Fraction(2 * inter, p_total + g_total)) if (p_total + g_total) else 0.0,
        )
        assert metrics(results, gt) == expected

    # Micro-vs-macro counterexample: the two averaging styles disagree here.
    gt = {"c1": {"A"}, "c2": {"B"}}
    pred = {"c1": ["A"], "c2": ["B", "X", "Y"]}
    results = [CaseResult(case_id=c, predicted=sorted(p)) for c, p in pred.items()]
    micro_p, _, _ = metrics(results, gt)
    macro_p = (Fraction(1, 1) + Fraction(1, 3)) / 2
    assert micro_p == 0.5
    assert micro_p != float(macro_p)


def test_c08_leakage_freedom(cross_file_repo, ghost_repo, tmp_path):
    """No ground-truth id (or 7+ char prefix) reaches the initial context."""
    fixtures = []
    rb, info = cross_file_repo
    fixtures.append((rb.path, info["fix"], {info["bic"]}))
    grb, ginfo = ghost_repo
    fixtures.append((grb.path, ginfo["fix"], {ginfo["bic"]}))

    leaky = RepoBuilder(tmp_path / "leaky")
    leaky.commit({"x.c": "v1\n"}, "seed")
    bic = leaky.commit({"x.c": "v2\n"}, "bad change")
    fix = leaky.commit(
        {"x.c": "v3\n"},
        f"repair regression\n\nThe earlier change {bic} broke this.\n"
        f"Fixes: {bic[:13]} (\"bad change\")\nSigned-off-by: Dev <d@example.test>\n",
    )
    fixtures.append((leaky.path, fix, {bic}))

    for repo_path, fix_commit, ground_truth in fixtures:
        _, _, ctx = make_ctx(repo_path, fix_commit)
        blob = "\n".join([ctx.system_prompt, ctx.fix_block, ctx.constraints_block])
        assert not re.search(r"(?im)^\s*Fixes:", blob)
        for gt in ground_truth:
            for n in range(7, 41):
                assert gt[:n] not in blob, (fix_commit, n)


def test_c09_read_only_guarantee(tmp_path):
    """A full investigation + baseline battery leaves the object set intact."""
    rb = RepoBuilder(tmp_path / "readonly")
    rb.commit({"lib/a.c": "int one(void) {\n  return 1;\n}\n"}, "seed lib")
    bic = rb.commit({"lib/a.c": "int one(void) {\n  return 2;\n}\n"}, "subtle change")
    fix = rb.commit({"lib/a.c": "int one(void) {\n  return 1;\n}\n"}, "restore behavior")
    before = object_set_digest(rb.path)

    case = CaseSpec(repo_path=rb.path, fix_commit=fix, ground_truth={bic}, dataset_tag="ro")
    repo, fc, ctx = make_ctx(rb.path, fix)
    steps = [
        tool_step(ToolName.BLAME, file_path="lib/a.c"),
        tool_step(ToolName.SHOW, commit=bic[:10]),
        tool_step(ToolName.GREP, search_string="return"),
        tool_step(ToolName.LOG_S, search_string="return 2"),
        tool_step(ToolName.LOG_FUNC, function_name="one", file_path="lib/a.c"),
        final_step(f"BIC: {bic}\nConfidence: high\nReasoning: direct"),
    ]
    prediction, _ = run_investigation(case, repo, fc, ctx, ScriptedBackend(steps))
    assert prediction.resolved_id == bic

    assert b_szz(repo, fc) == {bic}
    assert r_szz(repo, fc) == bic
    assert l_szz(repo, fc) == bic
    classify_ghost(fc)
    classify_cross_file(repo, case, fc)
    resolve_prediction(repo, bic[:12])
    resolve_prediction(repo, "9" * 40)

    assert object_set_digest(rb.path) == before


LIVE_READY = all(
    os.environ.get(v)
    for v in ("BICTRACE_ENDPOINT", "BICTRACE_API_KEY", "BICTRACE_MODEL")
)


@pytest.mark.skipif(not LIVE_READY, reason="live endpoint not configured")
def test_c10_live_smoke(cross_file_repo):
    """With a configured endpoint, one real investigation completes cleanly."""
    rb, info = cross_file_repo
    case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="live")
    repo, fc, ctx = make_ctx(rb.path, info["fix"])
    prediction, transcript = run_investigation(case, repo, fc, ctx, LiveBackend())
    assert transcript.tool_turns <= 15
    assert transcript.error is None
    assert prediction.status in ("resolved", "discarded")
    assert transcript.total_turns >= 1
    for turn in transcript.turns:
        if turn["step"].kind == "tool_call" and turn["observation"] is not None:
            assert isinstance(turn["observation"].text, str)
