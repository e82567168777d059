"""Loop behavior: turn budget, malformed recovery, parsing, record/replay."""

import json
import os
import re
import subprocess
import threading
import time
from itertools import islice
from pathlib import Path

import pytest
import requests

from chat_stub import ChatStub, call, reply

from bictrace.agent import (
    TRANSCRIPT_SCHEMA,
    BackendUnavailable,
    DesyncError,
    LiveBackend,
    ModelStep,
    Prediction,
    SchemaMismatch,
    ScriptedBackend,
    Transcript,
    _cpu_count,
    final_step,
    parse_final_output,
    read_transcript,
    record_transcript,
    require_recording,
    run_investigation,
    tool_step,
)
from bictrace.caseprep import CaseSpec, load_fix_context
from bictrace.compress import execute_compressed
from bictrace.gitio import RepoHandle
from bictrace.tools import SchemaError, ToolName, enforce_search_bound, parse_args


def open_case(repo_path, fix):
    repo = RepoHandle(repo_path)
    return repo, load_fix_context(repo, fix)


class TestParseFinalOutput:
    def test_labeled_fields(self):
        text = "BIC: 1c393b9abc123def456\nConfidence: high\nReasoning: event rewrite"
        raw, conf, reasoning = parse_final_output(text)
        assert raw == "1c393b9abc123def456"
        assert conf == "high"
        assert reasoning == "event rewrite"

    def test_labeled_field_beats_other_hashes(self):
        text = (
            "I considered deadbeefdeadbeef at first.\n"
            "BIC: cafebabe1234\nConfidence: medium\n"
        )
        raw, conf, _ = parse_final_output(text)
        assert raw == "cafebabe1234"
        assert conf == "medium"

    def test_fenced_block(self):
        text = "Here is my answer:\n```\nBIC: abcdef1234567\nConfidence: low\nReasoning: weak trail\n```\n"
        raw, conf, reasoning = parse_final_output(text)
        assert raw == "abcdef1234567"
        assert conf == "low"
        assert "weak trail" in reasoning

    def test_no_hex_anywhere(self):
        raw, conf, reasoning = parse_final_output("I could not find it, sorry.")
        assert raw == ""
        assert conf == "unstated"
        assert reasoning

    def test_unlabeled_hash_found(self):
        raw, _, _ = parse_final_output("the culprit looks like deadbeef99 to me")
        assert raw == "deadbeef99"

    def test_unknown_confidence_word(self):
        _, conf, _ = parse_final_output("BIC: abc1234\nConfidence: absolute")
        assert conf == "unstated"


class TestLoop:
    def test_scripted_end_to_end(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        steps = [
            tool_step(ToolName.BLAME, file_path="driver/hotplug.c"),
            tool_step(ToolName.SHOW, commit=info["refactor"][:12]),
            final_step(f"BIC: {info['bic']}\nConfidence: high\nReasoning: traced"),
        ]
        prediction, transcript = run_investigation(case, repo, fc, ScriptedBackend(steps))
        assert prediction.status == "resolved"
        assert prediction.resolved_id == info["bic"]
        assert prediction.confidence == "high"
        assert transcript.tool_turns == 2
        assert transcript.total_turns == 3
        for turn in transcript.turns:
            if turn["step"].kind == "tool_call":
                assert turn["observation"] is not None

    def test_turn_budget_with_unbounded_backend(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        backend = ScriptedBackend(
            [tool_step(ToolName.GREP, search_string="core_alloc_event")] * 20
        )
        prediction, transcript = run_investigation(case, repo, fc, backend)
        assert transcript.tool_turns == 15
        assert transcript.total_turns <= 16  # budget + forced answer
        assert prediction.status == "no_prediction"

    def test_final_with_no_hash_is_no_prediction(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        prediction, transcript = run_investigation(
            case, repo, fc, ScriptedBackend([final_step("BIC: unknown\nReasoning: lost")])
        )
        assert prediction.status == "no_prediction"
        assert transcript.total_turns == 1

    def test_loop_spawns_no_git_of_its_own(self, cross_file_repo, monkeypatch):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        from bictrace import gitio

        spawned = []
        real_spawn = gitio._spawn
        monkeypatch.setattr(gitio, "_spawn", lambda *a: spawned.append(a) or real_spawn(*a))
        prediction, _ = run_investigation(
            case, repo, fc, ScriptedBackend([final_step("no hash here")])
        )
        assert prediction.status == "no_prediction"
        assert spawned == []

    def test_unresolvable_hash_discarded(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        prediction, _ = run_investigation(
            case, repo, fc, ScriptedBackend([final_step("BIC: " + "f" * 40)])
        )
        assert prediction.status == "discarded"
        assert prediction.trace is not None

    def test_answer_probe_timeout_is_the_case_error(self, cross_file_repo, time_out_git):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        time_out_git()
        prediction, transcript = run_investigation(
            case, repo, fc, ScriptedBackend([final_step(f"BIC: {info['bic']}")])
        )
        assert prediction.status == "no_prediction"
        assert transcript.error == "git show timed out after 30s"

    def test_malformed_retries_then_gives_up(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        backend = ScriptedBackend([ModelStep(kind="malformed", raw="???")] * 5)
        prediction, transcript = run_investigation(case, repo, fc, backend)
        assert prediction.status == "no_prediction"
        assert transcript.total_turns == 3  # original + two corrective retries

    def test_malformed_then_recovery(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        backend = ScriptedBackend(
            [
                ModelStep(kind="malformed", raw="oops"),
                final_step(f"BIC: {info['bic'][:12]}\nConfidence: low\nReasoning: r"),
            ]
        )
        prediction, transcript = run_investigation(case, repo, fc, backend)
        assert prediction.status == "resolved"
        assert prediction.resolved_id == info["bic"]
        assert transcript.total_turns == 2

    def test_invalid_tool_args_become_error_observation(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        backend = ScriptedBackend(
            [
                tool_step(ToolName.BLAME, commit="HEAD"),  # missing file_path
                final_step("BIC: unknown"),
            ]
        )
        prediction, transcript = run_investigation(case, repo, fc, backend)
        obs = transcript.turns[0]["observation"]
        assert obs.text.startswith("Error (schema)")
        assert "file_path" in obs.text
        assert transcript.tool_turns == 1

    def test_token_accounting(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        steps = [
            ModelStep(kind="tool_call", tool=ToolName.SHOW, args={"commit": info["fix"][:10]},
                      prompt_tokens=100, completion_tokens=10),
            ModelStep(kind="final", text=f"BIC: {info['bic']}", prompt_tokens=200,
                      completion_tokens=20),
        ]
        _, transcript = run_investigation(case, repo, fc, ScriptedBackend(steps))
        assert transcript.total_tokens == 330

    def test_forced_answer_extracts_prediction(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        steps = [tool_step(ToolName.GREP, search_string="dispatch")] * 15
        steps.append(final_step(f"BIC: {info['bic']}\nConfidence: medium\nReasoning: forced"))
        prediction, transcript = run_investigation(case, repo, fc, ScriptedBackend(steps))
        assert prediction.status == "resolved"
        assert transcript.tool_turns == 15
        assert transcript.total_turns == 16


class NotScripted:
    """The same steps, one per message: the sequential loop."""

    def __init__(self, steps):
        self.scripted = ScriptedBackend(steps)

    def send(self, conversation, tool_specs):
        return islice(self.scripted.send(conversation, tool_specs), 1)


MALFORMED = ModelStep(kind="malformed", raw="???")

# name -> (steps from the repo info, max_turns, tool turns the loop runs)
LOOK_AHEAD_SCRIPTS = {
    "repeated call": (lambda info: [
        tool_step(ToolName.GREP, search_string="dispatch"),
        tool_step(ToolName.SHOW, commit=info["bic"]),
        tool_step(ToolName.GREP, search_string="dispatch"),
        final_step(f"BIC: {info['bic']}"),
    ], 15, 3),
    "schema error": (lambda info: [
        tool_step(ToolName.BLAME, commit="HEAD"),
        tool_step(ToolName.BLAME, commit="HEAD"),
        tool_step(ToolName.SHOW, commit=info["bic"]),
        final_step(f"BIC: {info['bic']}"),
    ], 15, 3),
    "file_not_found, repeated": (lambda info: [
        tool_step(ToolName.BLAME, file_path="no/such.c"),
        tool_step(ToolName.SHOW, commit=info["bic"]),
        tool_step(ToolName.BLAME, file_path="no/such.c"),
        final_step(f"BIC: {info['bic']}"),
    ], 15, 3),
    "timed-out call, repeated": (lambda info: [
        tool_step(ToolName.LOG_S, search_string="core_alloc_event"),
        tool_step(ToolName.SHOW, commit=info["bic"]),
        tool_step(ToolName.LOG_S, search_string="core_alloc_event"),
        final_step(f"BIC: {info['bic']}"),
    ], 15, 3),
    "tool calls after a final": (lambda info: [
        tool_step(ToolName.SHOW, commit=info["bic"]),
        final_step(f"BIC: {info['bic']}"),
        tool_step(ToolName.GREP, search_string="dispatch"),
        tool_step(ToolName.BLAME, file_path="driver/hotplug.c"),
    ], 15, 1),
    "three malformed steps, then a tool call": (lambda info: [
        tool_step(ToolName.SHOW, commit=info["bic"]),
        MALFORMED, MALFORMED, MALFORMED,
        tool_step(ToolName.GREP, search_string="dispatch"),
        final_step(f"BIC: {info['bic']}"),
    ], 15, 1),
    "a malformed step first": (lambda info: [
        MALFORMED,
        tool_step(ToolName.SHOW, commit=info["bic"]),
        tool_step(ToolName.GREP, search_string="dispatch"),
        final_step(f"BIC: {info['bic']}"),
    ], 15, 2),
    # The first run started the blame; its error is not cached, so the repeat spawns again.
    "file_not_found, repeated across two runs": (lambda info: [
        tool_step(ToolName.BLAME, file_path="no/such.c"),
        MALFORMED,
        tool_step(ToolName.BLAME, file_path="no/such.c"),
        final_step(f"BIC: {info['bic']}"),
    ], 15, 2),
    # The first run's timed-out log keeps no cache entry, so the second run starts it again.
    "timed-out call, repeated across two runs": (lambda info: [
        tool_step(ToolName.LOG_S, search_string="core_alloc_event"),
        MALFORMED,
        tool_step(ToolName.LOG_S, search_string="core_alloc_event"),
        final_step(f"BIC: {info['bic']}"),
    ], 15, 2),
    "more tool calls than max_turns": (lambda info: [
        tool_step(ToolName.GREP, search_string="dispatch"),
        MALFORMED,
        tool_step(ToolName.SHOW, commit=info["bic"]),
        tool_step(ToolName.GREP, search_string="dispatch"),
        tool_step(ToolName.BLAME, file_path="driver/hotplug.c"),
        tool_step(ToolName.SHOW, commit=info["refactor"]),
        final_step(f"BIC: {info['bic']}"),
    ], 3, 3),
}


class TestLookAhead:
    @pytest.mark.parametrize("name", list(LOOK_AHEAD_SCRIPTS))
    def test_scripted_run_equals_the_sequential_loop(self, cross_file_repo, time_out_git,
                                                     tmp_path, name):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        script, max_turns, tool_turns = LOOK_AHEAD_SCRIPTS[name]
        steps = script(info)
        if name.startswith("timed-out"):
            time_out_git(lambda args: args[0] == "log")
        runs = []
        for backend in (ScriptedBackend(steps), NotScripted(steps)):
            repo, fc = open_case(rb.path, info["fix"])
            before = repo.process_count
            prediction, transcript = run_investigation(case, repo, fc, backend, max_turns=max_turns)
            path = tmp_path / f"{len(runs)}.jsonl"
            record_transcript(transcript, prediction, path)
            runs.append((path.read_bytes(), transcript.tool_turns, repo.process_count - before))
        assert runs[0] == runs[1]
        assert transcript.tool_turns == tool_turns
        # Each observation is the pipeline's, called per step with one fresh cache for the case.
        repo, fc = open_case(rb.path, info["fix"])
        cache, expected = {}, []
        for step in [step for step in steps if step.kind == "tool_call"][:tool_turns]:
            try:
                args = enforce_search_bound(parse_args(step.tool, step.args), fc.fix_date)
            except SchemaError as exc:
                expected.append((f"Error (schema): {exc}", False, False))
                continue
            obs = execute_compressed(repo, args, fc, cache)
            expected.append((obs.text, obs.truncated, obs.cache_hit))
        observed = [(obs.text, obs.truncated, obs.cache_hit)
                    for obs in (turn["observation"] for turn in transcript.turns) if obs]
        assert observed == expected

    def test_look_ahead_threads_run_only_git(self, cross_file_repo, monkeypatch):
        from bictrace import compress

        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        threads = []
        for tool, format_raw in compress._FORMATTERS.items():
            monkeypatch.setitem(compress._FORMATTERS, tool, lambda raw, f=format_raw: (
                threads.append(threading.current_thread()) or f(raw)))
        steps = [
            tool_step(ToolName.GREP, search_string="dispatch"),
            tool_step(ToolName.SHOW, commit=info["bic"]),
            tool_step(ToolName.BLAME, file_path="driver/hotplug.c"),
            final_step(f"BIC: {info['bic']}"),
        ]
        prediction, transcript = run_investigation(case, repo, fc, ScriptedBackend(steps))
        assert transcript.tool_turns == 3
        # Layer 2 (and so layer 3 and the cache after it) runs where the loop takes the observation.
        assert threads == [threading.main_thread()] * 3

    def test_early_exit_neither_leaks_nor_waits(self, cross_file_repo, monkeypatch):
        from bictrace import compress

        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        slow_started, procs = threading.Event(), []
        real_init = subprocess.Popen.__init__

        def init(self, args, **kwargs):  # the grep for "slow" takes 3 s
            slow = "slow" in args
            real_init(self, ["sleep", "3"] if slow else args, **kwargs)
            procs.append(self)
            if slow:
                slow_started.set()

        def interrupted(raw):  # the first observation's formatting, once the slow grep runs
            assert slow_started.wait(10)
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess.Popen, "__init__", init)
        monkeypatch.setitem(compress._FORMATTERS, ToolName.SHOW, interrupted)
        steps = [
            tool_step(ToolName.SHOW, commit=info["bic"]),
            tool_step(ToolName.GREP, search_string="slow"),
            final_step(f"BIC: {info['bic']}"),
        ]
        threads = threading.active_count()
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_investigation(case, repo, fc, ScriptedBackend(steps))
        assert time.monotonic() - start < 1.5
        assert threading.active_count() == threads
        assert len(procs) == 2 and all(proc.returncode is not None for proc in procs)

    def test_cpu_count_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _cpu_count() == 1


class TestSearchBoundInTranscript:
    def test_late_before_is_capped_in_recorded_args(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        backend = ScriptedBackend(
            [
                tool_step(ToolName.LOG_S, search_string="dyn_alloc_event", before="2031-01-01"),
                final_step(f"BIC: {info['bic']}"),
            ]
        )
        from repo_helpers import committer_time

        from bictrace.tools import parse_date

        fix_date = committer_time(rb.path, info["fix"])
        prediction, transcript = run_investigation(case, repo, fc, backend)
        recorded = transcript.turns[0]["step"].args
        assert parse_date(recorded["before"], end_of_day=True) <= fix_date
        # The planted commit predates the fix, so the capped search finds it.
        assert info["bic"][:7] in transcript.turns[0]["observation"].text
        assert prediction.resolved_id == info["bic"]


class FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self._payload


def live_backend():
    return LiveBackend("https://example.test/v1/chat/completions", "test-model", "sk-test")


class TestLiveBackend:
    def test_missing_config_raises(self):
        from bictrace.agent import BackendUnavailable, LiveBackend

        with pytest.raises(BackendUnavailable):
            LiveBackend("", "", "")

    def test_tool_call_round_trip(self, monkeypatch):
        from bictrace.tools import tool_schemas

        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured["url"] = url
            captured["body"] = json
            captured["headers"] = headers
            return FakeResponse(
                {
                    "choices": [
                        {
                            "message": {
                                "tool_calls": [
                                    {
                                        "id": "call_1",
                                        "type": "function",
                                        "function": {
                                            "name": "git_blame",
                                            "arguments": "{\"file_path\": \"a.c\"}",
                                        },
                                    }
                                ]
                            }
                        }
                    ],
                    "usage": {"prompt_tokens": 42, "completion_tokens": 7},
                }
            )

        monkeypatch.setattr(requests, "post", fake_post)
        backend = live_backend()
        [step] = backend.send([{"role": "user", "content": "go"}], tool_schemas())
        assert step.kind == "tool_call"
        assert step.tool is ToolName.BLAME
        assert step.args == {"file_path": "a.c"}
        assert step.prompt_tokens == 42 and step.completion_tokens == 7
        assert captured["headers"]["Authorization"] == "Bearer sk-test"
        wire_tools = captured["body"]["tools"]
        assert len(wire_tools) == 5
        assert {t["function"]["name"] for t in wire_tools} == {
            "git_show", "git_blame", "git_log_s", "git_log_func", "git_grep"
        }

    def test_every_tool_call_of_a_message_is_a_step(self, monkeypatch):
        grep, show, bad = call("git_grep", search_string="a"), call("git_show", commit="HEAD"), call("git_push")
        message = {"content": "Two reads.", "tool_calls": [grep, show]}
        body = {"choices": [{"message": message}], "usage": {"prompt_tokens": 5, "completion_tokens": 2}}
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(body))
        steps = live_backend().send([], [])
        # The message's text and usage go on its first call, so token sums stay exact.
        assert [(s.kind, s.tool, s.args, s.text, s.prompt_tokens, s.completion_tokens)
                for s in steps] == [
            ("tool_call", ToolName.GREP, {"search_string": "a"}, "Two reads.", 5, 2),
            ("tool_call", ToolName.SHOW, {"commit": "HEAD"}, "", 0, 0),
        ]
        # One call the model cannot make is the whole message's mistake.
        message["tool_calls"] = [grep, bad, show]
        [step] = live_backend().send([], [])
        assert (step.kind, step.raw, step.prompt_tokens) == ("malformed", json.dumps(bad), 5)

    REASONED_CALL = {
        "content": "Blame the removed line first.",
        "tool_calls": [{"id": "call_1", "type": "function", "function": {
            "name": "git_blame", "arguments": "{\"file_path\": \"driver/hotplug.c\"}"}}],
    }

    def test_a_tool_call_keeps_its_reasoning(self, monkeypatch):
        body = {"choices": [{"message": self.REASONED_CALL}]}
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(body))
        [step] = live_backend().send([], [])
        assert (step.kind, step.tool, step.text) == (
            "tool_call", ToolName.BLAME, "Blame the removed line first."
        )

    def test_the_next_request_carries_the_reasoning(self, cross_file_repo, monkeypatch):
        rb, info = cross_file_repo
        replies = iter([self.REASONED_CALL, {"content": f"BIC: {info['bic']}"}])
        sent = []

        def fake_post(url, **kwargs):
            sent.append(json.loads(json.dumps(kwargs["json"])))  # a copy: the loop appends to it
            return FakeResponse({"choices": [{"message": next(replies)}]})

        monkeypatch.setattr(requests, "post", fake_post)
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        prediction, _ = run_investigation(case, repo, fc, live_backend())
        assert prediction.resolved_id == info["bic"] and len(sent) == 2
        (assistant,) = [m for m in sent[1]["messages"] if m["role"] == "assistant"]
        assert assistant["content"] == "Blame the removed line first."
        assert assistant["tool_calls"][0]["function"]["name"] == "git_blame"

    def test_text_content_is_final(self, monkeypatch):
        monkeypatch.setattr(
            requests, "post",
            lambda *a, **k: FakeResponse(
                {"choices": [{"message": {"content": "BIC: abc1234def\nConfidence: low"}}]}
            ),
        )
        [step] = live_backend().send([], [])
        assert step.kind == "final"
        assert "abc1234def" in step.text

    @pytest.mark.parametrize("body", [
        [],
        {"choices": [{"message": "hi"}]},
        {"choices": [{"message": {"content": "BIC: abc1234def"}}],
         "usage": {"prompt_tokens": "lots"}},
    ])
    def test_malformed_body_is_backend_unavailable(self, monkeypatch, body):
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(body))
        with pytest.raises(BackendUnavailable, match="^malformed endpoint response: "):
            live_backend().send([], [])

    def test_missing_or_null_usage_counts_as_zero(self, monkeypatch):
        body = {"choices": [{"message": {"content": "BIC: abc1234def"}}],
                "usage": {"prompt_tokens": None}}
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(body))
        [step] = live_backend().send([], [])
        assert (step.kind, step.prompt_tokens, step.completion_tokens) == ("final", 0, 0)

    def test_http_error_raises_backend_unavailable(self, monkeypatch):
        from bictrace.agent import BackendUnavailable

        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse({}, status=503))
        with pytest.raises(BackendUnavailable):
            live_backend().send([], [])

    def test_bad_tool_name_is_malformed(self, monkeypatch):
        call = {
            "id": "x", "type": "function",
            "function": {"name": "git_push", "arguments": "{}"},
        }
        monkeypatch.setattr(
            requests, "post",
            lambda *a, **k: FakeResponse({"choices": [{"message": {"tool_calls": [call]}}]}),
        )
        [step] = live_backend().send([], [])
        assert step.kind == "malformed"

    @pytest.mark.parametrize("message, raw", [
        ({"tool_calls": [{"function": {"name": "git_grep", "arguments": "[1]"}}]},
         json.dumps({"function": {"name": "git_grep", "arguments": "[1]"}})),
        ({"content": "  \n"}, "(empty message)"),
        ({"content": None}, "(empty message)"),
    ])
    def test_non_object_arguments_and_empty_content_are_malformed(self, monkeypatch, message, raw):
        body = {"choices": [{"message": message}], "usage": {"prompt_tokens": 3}}
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(body))
        [step] = live_backend().send([], [])
        assert (step.kind, step.raw, step.prompt_tokens) == ("malformed", raw, 3)


class TestMessageOfToolCalls:
    """A live message with several tool calls, served from a chat-completions endpoint on loopback."""

    def two_calls(self, info):
        return [
            reply("Blame, then read the refactor.", [call("git_blame", file_path="driver/hotplug.c"),
                                                     call("git_show", commit=info["refactor"])],
                  usage=(40, 4)),
            reply(f"BIC: {info['bic']}", usage=(90, 3)),
        ]

    def test_two_calls_give_two_observations_in_order(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        with ChatStub(self.two_calls(info)) as stub:
            prediction, transcript = run_investigation(case, repo, fc, LiveBackend(stub.url, "m", "k"))
        assert prediction.resolved_id == info["bic"]
        assert (transcript.tool_turns, transcript.total_turns, transcript.total_tokens) == (2, 3, 137)
        cache = {}
        expected = [execute_compressed(repo, enforce_search_bound(parse_args(tool, args), fc.fix_date),
                                       fc, cache).text
                    for tool, args in [(ToolName.BLAME, {"file_path": "driver/hotplug.c"}),
                                       (ToolName.SHOW, {"commit": info["refactor"]})]]
        assert [turn["observation"].text for turn in transcript.turns[:2]] == expected
        # One assistant message carries both calls, and one tool message answers each id in turn.
        _, request = stub.requests[1]
        assistant, *answers = request["messages"][2:]
        assert assistant["content"] == "Blame, then read the refactor."
        ids = [c["id"] for c in assistant["tool_calls"]]
        assert [c["function"]["name"] for c in assistant["tool_calls"]] == ["git_blame", "git_show"]
        assert len(set(ids)) == 2
        assert [(m["role"], m["tool_call_id"], m["content"]) for m in answers] == [
            ("tool", call_id, text) for call_id, text in zip(ids, expected)]

    def test_both_calls_start_their_git_before_the_first_observation(self, cross_file_repo,
                                                                      monkeypatch):
        from bictrace import agent

        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        barrier, execute_raw = threading.Barrier(2, timeout=10), agent.execute_raw

        def meet(*args):  # each call's git work waits until the other's has started too
            barrier.wait()
            return execute_raw(*args)

        monkeypatch.setattr(agent, "execute_raw", meet)
        monkeypatch.setattr(agent, "_cpu_count", lambda: 2)
        with ChatStub(self.two_calls(info)) as stub:
            prediction, transcript = run_investigation(case, repo, fc, LiveBackend(stub.url, "m", "k"))
        assert prediction.resolved_id == info["bic"] and transcript.tool_turns == 2


class TestRecordReplay:
    def _run_and_record(self, repo_info, path):
        rb, info = repo_info
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        steps = [
            tool_step(ToolName.BLAME, file_path="driver/hotplug.c"),
            tool_step(ToolName.GREP, search_string="core_alloc_event"),
            final_step(f"BIC: {info['bic']}\nConfidence: high\nReasoning: r"),
        ]
        prediction, transcript = run_investigation(case, repo, fc, ScriptedBackend(steps))
        record_transcript(transcript, prediction, path)
        return case, repo, fc, prediction, transcript

    def _replay(self, case, repo, fc, path, replay_path):
        """A replay as `bictrace replay` runs one: the recorded steps, scripted."""
        recording = Path(path).read_bytes()
        prediction, transcript = run_investigation(
            case, repo, fc, ScriptedBackend(read_transcript(path)[1])
        )
        record_transcript(transcript, prediction, replay_path)
        require_recording(recording, path, replay_path)
        return prediction

    def test_record_then_replay_identical(self, cross_file_repo, tmp_path):
        path = str(tmp_path / "run.jsonl")
        case, repo, fc, prediction, _ = self._run_and_record(cross_file_repo, path)
        replay_path = str(tmp_path / "replay.jsonl")
        assert self._replay(case, repo, fc, path, replay_path) == prediction
        assert Path(path).read_text() == Path(replay_path).read_text()

    def test_scripted_runs_byte_identical(self, cross_file_repo, tmp_path):
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        self._run_and_record(cross_file_repo, p1)
        self._run_and_record(cross_file_repo, p2)
        assert Path(p1).read_text() == Path(p2).read_text()

    def test_replay_detects_repo_drift(self, cross_file_repo, tmp_path):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc = open_case(rb.path, info["fix"])
        # Blame at HEAD depends on repository state beyond the fix.
        steps = [
            tool_step(ToolName.BLAME, file_path="driver/hotplug.c", commit="HEAD"),
            final_step(f"BIC: {info['bic']}"),
        ]
        prediction, transcript = run_investigation(case, repo, fc, ScriptedBackend(steps))
        path = str(tmp_path / "drift.jsonl")
        record_transcript(transcript, prediction, path)
        rb.commit({"driver/hotplug.c": "void driver_phy_hotplug(int phy) {}\n"}, "drift")
        replay_path = str(tmp_path / "replay.jsonl")
        # Line 3 is the blame's observation.
        with pytest.raises(DesyncError, match=re.escape(
                f"{replay_path}:3 differs from the recorded run {path}:3")):
            self._replay(case, repo, fc, path, replay_path)

    def test_truncated_file_schema_mismatch(self, cross_file_repo, tmp_path):
        path = str(tmp_path / "trunc.jsonl")
        self._run_and_record(cross_file_repo, path)
        lines = Path(path).read_text().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(lines[:-1]))
        with pytest.raises(SchemaMismatch, match=re.escape(f"{path} is truncated (no result record)")):
            read_transcript(path)

    def test_replay_past_the_recording_desyncs(self, cross_file_repo, tmp_path):
        path = str(tmp_path / "run.jsonl")
        case, repo, fc, _, _ = self._run_and_record(cross_file_repo, path)
        # Without its final answer the recording runs out while the loop still asks; the
        # scripted backend answers with an empty final step, which the recording lacks.
        lines = Path(path).read_text().splitlines()
        kept = [ln for ln in lines if json.loads(ln).get("step", {}).get("kind") != "final"]
        Path(path).write_text("\n".join(kept) + "\n")
        replay_path = str(tmp_path / "replay.jsonl")
        with pytest.raises(DesyncError, match=f"^{re.escape(replay_path)}:6 differs "):
            self._replay(case, repo, fc, path, replay_path)

    def test_line_that_is_not_json_schema_mismatch(self, cross_file_repo, tmp_path):
        path = str(tmp_path / "run.jsonl")
        self._run_and_record(cross_file_repo, path)
        lines = Path(path).read_text().splitlines()
        Path(path).write_text("\n".join([lines[0], "{oops", *lines[1:]]) + "\n")
        with pytest.raises(SchemaMismatch, match=f"^{re.escape(path)}:2: not JSON: "):
            read_transcript(path)

    def test_wrong_schema(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"schema": "something-else/v9"}) + "\n")
        with pytest.raises(SchemaMismatch, match=re.escape(f"{path} is not a {TRANSCRIPT_SCHEMA} file")):
            read_transcript(path)

    @pytest.mark.parametrize("record", [
        {"event": "model_step"},
        {"event": "model_step", "step": "final"},
        {"event": "model_step", "step": {"kind": "final", "text": "x", "usage": 5}},
    ])
    def test_malformed_step_record_schema_mismatch(self, cross_file_repo, tmp_path, record):
        path = str(tmp_path / "bad_step.jsonl")
        self._run_and_record(cross_file_repo, path)
        lines = Path(path).read_text().splitlines()
        with open(path, "w") as f:
            f.write("\n".join([lines[0], json.dumps(record), *lines[1:]]) + "\n")
        with pytest.raises(SchemaMismatch, match=re.escape(path)):
            read_transcript(path)


class TestModelStep:
    @pytest.mark.parametrize("data", [
        None,
        {"text": "no kind"},
        {"kind": "final", "usage": 5},
        {"kind": "final", "usage": {"prompt_tokens": "3"}},
        {"kind": "final", "usage": {"prompt_tokens": True}},
    ])
    def test_from_dict_rejects_what_to_dict_cannot_write(self, data):
        with pytest.raises(ValueError):
            ModelStep.from_dict(data)
