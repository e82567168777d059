"""Loop behavior: turn budget, malformed recovery, parsing, record/replay."""

import json

import pytest

from bictrace.agent import (
    DesyncError,
    ModelStep,
    Prediction,
    ReplayBackend,
    SchemaMismatch,
    ScriptedBackend,
    Transcript,
    final_step,
    parse_final_output,
    record_transcript,
    run_investigation,
    tool_step,
)
from bictrace.caseprep import CaseSpec, assemble_initial_context, load_fix_context
from bictrace.gitio import RepoHandle
from bictrace.prompts import default_template
from bictrace.tools import ToolName


def make_ctx(repo_path, fix):
    repo = RepoHandle(repo_path)
    fc = load_fix_context(repo, fix)
    return repo, fc, assemble_initial_context(fc, __import__("bictrace.tools", fromlist=["tool_schemas"]).tool_schemas(), default_template())


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
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        steps = [
            tool_step(ToolName.BLAME, file_path="driver/hotplug.c"),
            tool_step(ToolName.SHOW, commit=info["refactor"][:12]),
            final_step(f"BIC: {info['bic']}\nConfidence: high\nReasoning: traced"),
        ]
        prediction, transcript = run_investigation(case, repo, fc, ctx, ScriptedBackend(steps))
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
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        backend = ScriptedBackend(
            [tool_step(ToolName.GREP, search_string="core_alloc_event")], repeat_last=True
        )
        prediction, transcript = run_investigation(case, repo, fc, ctx, backend)
        assert transcript.tool_turns == 15
        assert transcript.total_turns <= 16  # budget + forced answer
        assert prediction.status == "no_prediction"

    def test_final_with_no_hash_is_no_prediction(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        prediction, transcript = run_investigation(
            case, repo, fc, ctx, ScriptedBackend([final_step("BIC: unknown\nReasoning: lost")])
        )
        assert prediction.status == "no_prediction"
        assert transcript.total_turns == 1

    def test_loop_spawns_no_git_of_its_own(self, cross_file_repo, monkeypatch):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        from bictrace import gitio

        spawned = []
        real_spawn = gitio._spawn
        monkeypatch.setattr(gitio, "_spawn", lambda *a: spawned.append(a) or real_spawn(*a))
        prediction, _ = run_investigation(
            case, repo, fc, ctx, ScriptedBackend([final_step("no hash here")])
        )
        assert prediction.status == "no_prediction"
        assert spawned == []

    def test_unresolvable_hash_discarded(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        prediction, _ = run_investigation(
            case, repo, fc, ctx, ScriptedBackend([final_step("BIC: " + "f" * 40)])
        )
        assert prediction.status == "discarded"
        assert prediction.trace is not None

    def test_malformed_retries_then_gives_up(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        backend = ScriptedBackend([ModelStep(kind="malformed", raw="???")], repeat_last=True)
        prediction, transcript = run_investigation(case, repo, fc, ctx, backend)
        assert prediction.status == "no_prediction"
        assert transcript.total_turns == 3  # original + two corrective retries

    def test_malformed_then_recovery(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        backend = ScriptedBackend(
            [
                ModelStep(kind="malformed", raw="oops"),
                final_step(f"BIC: {info['bic'][:12]}\nConfidence: low\nReasoning: r"),
            ]
        )
        prediction, transcript = run_investigation(case, repo, fc, ctx, backend)
        assert prediction.status == "resolved"
        assert prediction.resolved_id == info["bic"]
        assert transcript.total_turns == 2

    def test_invalid_tool_args_become_error_observation(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        backend = ScriptedBackend(
            [
                tool_step(ToolName.BLAME, commit="HEAD"),  # missing file_path
                final_step("BIC: unknown"),
            ]
        )
        prediction, transcript = run_investigation(case, repo, fc, ctx, backend)
        obs = transcript.turns[0]["observation"]
        assert obs.text.startswith("Error (schema)")
        assert "file_path" in obs.text
        assert transcript.tool_turns == 1

    def test_token_accounting(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        steps = [
            ModelStep(kind="tool_call", tool=ToolName.SHOW, args={"commit": info["fix"][:10]},
                      prompt_tokens=100, completion_tokens=10),
            ModelStep(kind="final", text=f"BIC: {info['bic']}", prompt_tokens=200,
                      completion_tokens=20),
        ]
        _, transcript = run_investigation(case, repo, fc, ctx, ScriptedBackend(steps))
        assert transcript.total_tokens == 330

    def test_forced_answer_can_be_disabled(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        backend = ScriptedBackend(
            [tool_step(ToolName.GREP, search_string="dispatch")], repeat_last=True
        )
        prediction, transcript = run_investigation(case, repo, fc, ctx, backend, forced_answer=False)
        assert transcript.total_turns == 15
        assert prediction.status == "no_prediction"

    def test_forced_answer_extracts_prediction(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        steps = [tool_step(ToolName.GREP, search_string="dispatch")] * 15
        steps.append(final_step(f"BIC: {info['bic']}\nConfidence: medium\nReasoning: forced"))
        prediction, transcript = run_investigation(case, repo, fc, ctx, ScriptedBackend(steps))
        assert prediction.status == "resolved"
        assert transcript.tool_turns == 15
        assert transcript.total_turns == 16


class TestSearchBoundInTranscript:
    def test_late_before_is_capped_in_recorded_args(self, cross_file_repo):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        backend = ScriptedBackend(
            [
                tool_step(ToolName.LOG_S, search_string="dyn_alloc_event", before="2031-01-01"),
                final_step(f"BIC: {info['bic']}"),
            ]
        )
        from bictrace import gitio
        from bictrace.gitio import RepoHandle
        from bictrace.tools import parse_date

        fix_date = gitio.commit_timestamp(RepoHandle(rb.path), info["fix"])
        prediction, transcript = run_investigation(case, repo, fc, ctx, backend)
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
            import requests

            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self._payload


class TestLiveBackend:
    def setup_env(self, monkeypatch):
        monkeypatch.setenv("BICTRACE_ENDPOINT", "https://example.test/v1/chat/completions")
        monkeypatch.setenv("BICTRACE_API_KEY", "sk-test")
        monkeypatch.setenv("BICTRACE_MODEL", "test-model")

    def test_missing_config_raises(self, monkeypatch):
        from bictrace.agent import BackendUnavailable, LiveBackend

        for var in ("BICTRACE_ENDPOINT", "BICTRACE_API_KEY", "BICTRACE_MODEL"):
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(BackendUnavailable):
            LiveBackend()

    def test_tool_call_round_trip(self, monkeypatch):
        from bictrace import agent
        from bictrace.tools import tool_schemas

        self.setup_env(monkeypatch)
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

        monkeypatch.setattr(agent.requests, "post", fake_post)
        backend = agent.LiveBackend()
        step = backend.send([{"role": "user", "content": "go"}], tool_schemas())
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

    def test_parallel_tool_calls_rejected(self, monkeypatch):
        from bictrace import agent

        self.setup_env(monkeypatch)
        call = {
            "id": "x", "type": "function",
            "function": {"name": "git_grep", "arguments": "{}"},
        }
        monkeypatch.setattr(
            agent.requests, "post",
            lambda *a, **k: FakeResponse({"choices": [{"message": {"tool_calls": [call, call]}}]}),
        )
        step = agent.LiveBackend().send([], [])
        assert step.kind == "malformed"

    def test_text_content_is_final(self, monkeypatch):
        from bictrace import agent

        self.setup_env(monkeypatch)
        monkeypatch.setattr(
            agent.requests, "post",
            lambda *a, **k: FakeResponse(
                {"choices": [{"message": {"content": "BIC: abc1234def\nConfidence: low"}}]}
            ),
        )
        step = agent.LiveBackend().send([], [])
        assert step.kind == "final"
        assert "abc1234def" in step.text

    def test_http_error_raises_backend_unavailable(self, monkeypatch):
        from bictrace import agent
        from bictrace.agent import BackendUnavailable

        self.setup_env(monkeypatch)
        monkeypatch.setattr(agent.requests, "post", lambda *a, **k: FakeResponse({}, status=503))
        with pytest.raises(BackendUnavailable):
            agent.LiveBackend().send([], [])

    def test_bad_tool_name_is_malformed(self, monkeypatch):
        from bictrace import agent

        self.setup_env(monkeypatch)
        call = {
            "id": "x", "type": "function",
            "function": {"name": "git_push", "arguments": "{}"},
        }
        monkeypatch.setattr(
            agent.requests, "post",
            lambda *a, **k: FakeResponse({"choices": [{"message": {"tool_calls": [call]}}]}),
        )
        step = agent.LiveBackend().send([], [])
        assert step.kind == "malformed"


class TestRecordReplay:
    def _run_and_record(self, repo_info, path):
        rb, info = repo_info
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        steps = [
            tool_step(ToolName.BLAME, file_path="driver/hotplug.c"),
            tool_step(ToolName.GREP, search_string="core_alloc_event"),
            final_step(f"BIC: {info['bic']}\nConfidence: high\nReasoning: r"),
        ]
        prediction, transcript = run_investigation(case, repo, fc, ctx, ScriptedBackend(steps))
        record_transcript(transcript, prediction, path)
        return case, repo, fc, ctx, prediction, transcript

    def test_record_then_replay_identical(self, cross_file_repo, tmp_path):
        path = str(tmp_path / "run.jsonl")
        case, repo, fc, ctx, prediction, _ = self._run_and_record(cross_file_repo, path)
        replay_prediction, replay_transcript = run_investigation(
            case, repo, fc, ctx, ReplayBackend(path)
        )
        assert replay_prediction.to_dict() == prediction.to_dict()
        replay_path = str(tmp_path / "replay.jsonl")
        record_transcript(replay_transcript, replay_prediction, replay_path)
        assert open(path).read() == open(replay_path).read()

    def test_scripted_runs_byte_identical(self, cross_file_repo, tmp_path):
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        self._run_and_record(cross_file_repo, p1)
        self._run_and_record(cross_file_repo, p2)
        assert open(p1).read() == open(p2).read()

    def test_replay_detects_repo_drift(self, cross_file_repo, tmp_path):
        rb, info = cross_file_repo
        case = CaseSpec(repo_path=rb.path, fix_commit=info["fix"], dataset_tag="t")
        repo, fc, ctx = make_ctx(rb.path, info["fix"])
        # Blame at HEAD depends on repository state beyond the fix.
        steps = [
            tool_step(ToolName.BLAME, file_path="driver/hotplug.c", commit="HEAD"),
            final_step(f"BIC: {info['bic']}"),
        ]
        prediction, transcript = run_investigation(case, repo, fc, ctx, ScriptedBackend(steps))
        path = str(tmp_path / "drift.jsonl")
        record_transcript(transcript, prediction, path)
        rb.commit({"driver/hotplug.c": "void driver_phy_hotplug(int phy) {}\n"}, "drift")
        with pytest.raises(DesyncError):
            run_investigation(case, repo, fc, ctx, ReplayBackend(path))

    def test_truncated_file_schema_mismatch(self, cross_file_repo, tmp_path):
        path = str(tmp_path / "trunc.jsonl")
        self._run_and_record(cross_file_repo, path)
        lines = open(path).read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(lines[:-1]))
        with pytest.raises(SchemaMismatch):
            ReplayBackend(path)

    def test_wrong_schema(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"schema": "something-else/v9"}) + "\n")
        with pytest.raises(SchemaMismatch):
            ReplayBackend(path)
