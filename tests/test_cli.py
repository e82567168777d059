"""End-to-end CLI behavior over the fixture repositories."""

import concurrent.futures
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from chat_stub import DROP, ChatStub, Delay, Status, call, reply
from oracle import AttributionOracle
from repo_helpers import RepoBuilder, object_set_digest

from bictrace import agent, cli, compress, evaluate, gitio, szz
from bictrace.agent import TRANSCRIPT_SCHEMA, BackendUnavailable
from bictrace.caseprep import CaseSpec
from bictrace.cli import build_parser, build_run_config, main, make_backend
from bictrace.evaluate import read_results


def write_script(path, steps):
    with open(path, "w") as f:
        json.dump({"steps": steps}, f)
    return str(path)


def write_dataset(path, rows, name="testset"):
    with open(path, "w") as f:
        f.write(json.dumps({"schema": "bictrace-dataset/v1", "name": name}) + "\n")
        for row in rows:
            f.write(json.dumps(row) + "\n")
    return str(path)


@pytest.fixture(autouse=True)
def no_live_env(monkeypatch):
    for var in ("BICTRACE_ENDPOINT", "BICTRACE_API_KEY", "BICTRACE_MODEL"):
        monkeypatch.delenv(var, raising=False)


class TestInvestigate:
    def test_scripted_prints_planted_bic(self, cross_file_repo, tmp_path, capsys):
        rb, info = cross_file_repo
        script = write_script(
            tmp_path / "script.json",
            [
                {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "driver/hotplug.c"}},
                {"kind": "final", "text": f"BIC: {info['bic']}\nConfidence: high\nReasoning: r"},
            ],
        )
        code = main(
            [
                "investigate", "--repo", rb.path, "--fix", info["fix"],
                "--backend", f"scripted:{script}", "--run-dir", str(tmp_path / "runs"),
                "--run-id", "r1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert info["bic"] in out
        assert "status: resolved" in out

    def test_default_run_ids_never_share_a_directory(self, linear_repo, tmp_path, monkeypatch,
                                                     capsys):
        rb, shas = linear_repo
        monkeypatch.setattr(cli.time, "strftime", lambda fmt, *args: "run-20261020-020726")
        runs, transcripts = tmp_path / "runs", []
        for i, bic in enumerate(shas[:2]):
            script = write_script(tmp_path / f"s{i}.json", [{"kind": "final", "text": f"BIC: {bic}"}])
            assert main(["investigate", "--repo", rb.path, "--fix", shas[2],
                         "--backend", f"scripted:{script}", "--run-dir", str(runs)]) == 0
            path = capsys.readouterr().out.split("transcript: ")[1].strip()
            transcripts.append((path, Path(path).read_bytes()))
        assert sorted(os.listdir(runs)) == ["run-20261020-020726", "run-20261020-020726-1"]
        assert [Path(path).read_bytes() for path, _ in transcripts] == [text for _, text in transcripts]
        assert transcripts[0][1] != transcripts[1][1]
        # Runs started at once each create a directory of their own.
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            made = list(pool.map(lambda _: cli._new_run_dir(str(runs)), range(16)))
        assert len(set(made)) == 16 and len(os.listdir(runs)) == 18

    def test_replay_reproduces_stdout(self, cross_file_repo, tmp_path, capsys):
        rb, info = cross_file_repo
        script = write_script(
            tmp_path / "script.json",
            [
                {"kind": "tool_call", "tool": "git_show", "args": {"commit": info["refactor"][:12]}},
                {"kind": "final", "text": f"BIC: {info['bic'][:12]}\nConfidence: medium\nReasoning: x"},
            ],
        )
        code = main(
            [
                "investigate", "--repo", rb.path, "--fix", info["fix"],
                "--backend", f"scripted:{script}", "--run-dir", str(tmp_path / "runs"),
                "--run-id", "rec",
            ]
        )
        assert code == 0
        first = capsys.readouterr().out
        transcript = first.splitlines()[-1].split(": ", 1)[1]
        code = main(
            [
                "replay", "--transcript", transcript, "--repo", rb.path,
                "--run-dir", str(tmp_path / "runs"), "--run-id", "rep",
            ]
        )
        second = capsys.readouterr().out
        assert code == 0
        strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("transcript:")]
        assert strip(first) == strip(second)

    def test_run_that_ends_in_an_error_exits_1(self, linear_repo, tmp_path, capsys, time_out_git):
        rb, shas = linear_repo
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": f"BIC: {shas[1]}"}])
        time_out_git(lambda args: args[:2] == ["show", "-s"])  # the answer probe, not the fix read
        assert main(["investigate", "--repo", rb.path, "--fix", shas[2], "--backend",
                     f"scripted:{script}", "--run-dir", str(tmp_path / "runs")]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[1:3] == ["status: no_prediction", "bic: (none)"]
        assert err == "error: git show timed out after 30s\n"

    def test_missing_live_config_is_infra_error(self, cross_file_repo, tmp_path, capsys):
        rb, info = cross_file_repo
        code = main(
            [
                "investigate", "--repo", rb.path, "--fix", info["fix"],
                "--backend", "live", "--run-dir", str(tmp_path / "runs"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "not configured" in err

    @pytest.mark.parametrize("command", ["investigate", "batch"])
    def test_unconfigured_live_backend_fails_before_any_case(self, cross_file_repo, tmp_path,
                                                             capsys, monkeypatch, command):
        rb, info = cross_file_repo
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": info["fix"], "bics": [info["bic"]]}])
        monkeypatch.setattr(cli, "load_fix_context", lambda *args: pytest.fail("a fix was read"))
        runs = tmp_path / "runs"
        where = {"investigate": ["--repo", rb.path, "--fix", info["fix"]], "batch": ["--dataset", ds]}
        assert main([command, *where[command], "--backend", "live", "--run-dir", str(runs)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: live backend not configured: missing endpoint URL, "
                                  "model name, API key\n")
        assert not runs.exists()

    @pytest.mark.parametrize("command", [["investigate", "--repo", ".", "--fix", "HEAD"],
                                         ["batch", "--dataset"]])
    def test_replay_backend_spec_is_unknown(self, tmp_path, capsys, command):
        # One way to replay: `replay --transcript`, for the one case it recorded.
        if command[0] == "batch":
            command = [*command, write_dataset(tmp_path / "ds.jsonl", [])]
        assert main([*command, "--backend", "replay:x.jsonl",
                     "--run-dir", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == "error: unknown backend spec: replay:x.jsonl\n"
        assert not (tmp_path / "runs").exists()

    def test_missing_config_file_is_an_error(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        code = main(["investigate", "--repo", rb.path, "--fix", shas[2],
                     "--config", str(tmp_path / "nope.json"), "--run-dir", str(tmp_path / "runs")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_max_turns_is_an_error(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        code = main(["investigate", "--repo", rb.path, "--fix", shas[2],
                     "--max-turns", "0", "--run-dir", str(tmp_path / "runs")])
        assert code == 1
        assert "error: max_turns must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"max_turns": "x"},
        {"parallelism": None},
        {"compression": []},
        {"compression": {"line_caps": []}},
        {"compression": {"tau": None}},
        {"compression": {"line_caps": {"git_grep": [1]}}},
        {"backend": 5},
        {"model": 5},
        {"endpoint_url": ["http://host"]},
        {"api_key": 1},
        {"run_dir": 1},
        {"run_id": None},
        {"max_turns": True},
        {"parallelism": 2.5},
        {"compression": {"line_caps": {"git_grep": -1}}},
        {"compression": {"line_caps": {"git_grep": 0}}},
        {"compression": {"tau": 0}},
        {"compression": {"tau": True}},
        {"compression": {"tau": "5"}},
        {"compression": {"tau": 2.9}},
        {"compression": {"k3": 30}},
        {"compression": {"taux": 5}},
    ])
    def test_wrongly_typed_config_is_an_error(self, linear_repo, tmp_path, capsys, config):
        rb, shas = linear_repo
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": "no answer"}])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"backend": f"scripted:{script}", "run_dir": str(tmp_path / "runs"), **config}
        ))
        code = main(["investigate", "--repo", rb.path, "--fix", shas[2], "--config", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("script", [
        {},
        {"steps": {"kind": "final"}},
        [{"tool": "git_show"}],
        [{"kind": 1}],
        [1],
        "final",
        [{"kind": "final", "text": "x", "usage": 5}],
        [{"kind": "final", "text": 5}],
        [{"kind": "malformed", "raw": ["two calls"]}],
        [{"kind": "tool_call", "args": {}}],
    ])
    def test_malformed_script_is_an_error(self, linear_repo, tmp_path, capsys, script):
        rb, shas = linear_repo
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        code = main(["investigate", "--repo", rb.path, "--fix", shas[2],
                     "--backend", f"scripted:{path}", "--run-dir", str(tmp_path / "runs")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: a script is a list")

    def test_repeat_last_key_is_ignored(self, linear_repo, tmp_path):
        rb, shas = linear_repo
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"steps": [
            {"kind": "tool_call", "tool": "git_show", "args": {"commit": shas[1]}},
        ], "repeat_last": True}))
        runs = tmp_path / "runs"
        assert main(["investigate", "--repo", rb.path, "--fix", shas[2],
                     "--backend", f"scripted:{path}", "--run-dir", str(runs), "--run-id", "r"]) == 0
        (transcript,) = (runs / "r" / "transcripts").iterdir()
        assert json.loads(transcript.read_text().splitlines()[-1])["tool_turns"] == 1


class TestReplayCmd:
    @pytest.fixture
    def recorded(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        script = write_script(
            tmp_path / "s.json",
            [{"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"}],
        )
        assert main(["investigate", "--repo", rb.path, "--fix", shas[2], "--tag", "t",
                     "--backend", f"scripted:{script}", "--run-dir", str(tmp_path / "runs"),
                     "--run-id", "rec"]) == 0
        capsys.readouterr()
        return rb, str(tmp_path / "runs" / "rec" / "transcripts" / f"t_{shas[2][:12]}.jsonl")

    def replay(self, transcript, tmp_path, *extra):
        return main(["replay", "--transcript", transcript, "--run-dir", str(tmp_path / "runs"),
                     "--run-id", "rep", *extra])

    def test_writes_config_with_replay_backend(self, recorded, tmp_path, capsys):
        rb, transcript = recorded
        assert self.replay(transcript, tmp_path) == 0
        assert "case: t:" in capsys.readouterr().out
        config = json.loads((tmp_path / "runs" / "rep" / "config.json").read_text())
        assert config["backend"] == f"replay:{transcript}"

    def test_config_records_no_model(self, recorded, tmp_path, monkeypatch):
        rb, transcript = recorded
        monkeypatch.setenv("BICTRACE_MODEL", "env-model")
        assert self.replay(transcript, tmp_path) == 0
        config = json.loads((tmp_path / "runs" / "rep" / "config.json").read_text())
        assert config["model"] == ""

    @pytest.mark.parametrize("flag", [["--backend", "live"], ["--model", "gpt-imaginary"],
                                      ["--endpoint-url", "https://x.test"]])
    def test_backend_flags_are_not_replay_flags(self, recorded, tmp_path, capsys, flag):
        rb, transcript = recorded
        with pytest.raises(SystemExit) as exit_info:
            self.replay(transcript, tmp_path, *flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "rep").exists()

    def test_replayed_transcript_is_the_recording(self, linear_repo, tmp_path, capsys):
        # A fix given as a ref names the case "t:HEAD"; replay keeps that id.
        rb, shas = linear_repo
        script = write_script(tmp_path / "s.json", [
            {"kind": "tool_call", "tool": "git_show", "args": {"commit": shas[1]}},
            {"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"},
        ])
        runs = tmp_path / "runs"
        assert main(["investigate", "--repo", rb.path, "--fix", "HEAD", "--tag", "t",
                     "--backend", f"scripted:{script}", "--run-dir", str(runs),
                     "--run-id", "rec"]) == 0
        recorded = runs / "rec" / "transcripts" / "t_HEAD.jsonl"
        capsys.readouterr()
        assert self.replay(str(recorded), tmp_path) == 0
        assert "case: t:HEAD" in capsys.readouterr().out
        assert (runs / "rep" / "transcripts" / "t_HEAD.jsonl").read_bytes() == recorded.read_bytes()

    @pytest.fixture
    def two_calls(self, linear_repo, tmp_path, capsys):
        """A recording with two tool calls, as runs/rec/transcripts/t_HEAD.jsonl."""
        rb, shas = linear_repo
        script = write_script(tmp_path / "two.json", [
            {"kind": "tool_call", "tool": "git_show", "args": {"commit": shas[1]}},
            {"kind": "tool_call", "tool": "git_grep", "args": {"search_string": "return"}},
            {"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"},
        ])
        assert main(["investigate", "--repo", rb.path, "--fix", "HEAD", "--tag", "t",
                     "--backend", f"scripted:{script}", "--run-dir", str(tmp_path / "runs"),
                     "--run-id", "rec"]) == 0
        capsys.readouterr()
        return rb, tmp_path / "runs" / "rec" / "transcripts" / "t_HEAD.jsonl"

    def assert_desync(self, capsys, recorded, run_id, line):
        """One error line naming the first differing line; no status block; the files stay."""
        replayed = recorded.parents[2] / run_id / "transcripts" / "t_HEAD.jsonl"
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {replayed}:{line} differs from the recorded run "
                                  f"{recorded}:{line}\n")
        assert (replayed.parent.parent / "cases" / "t_HEAD.json").is_file()

    def test_smaller_turn_budget_is_a_desync(self, two_calls, tmp_path, capsys):
        # Line 5 is the second call's observation; with one tool turn that call lands on the
        # forced-answer turn and runs no tool.
        rb, recorded = two_calls
        assert self.replay(str(recorded), tmp_path, "--max-turns", "1") == 1
        self.assert_desync(capsys, recorded, "rep", 5)

    @pytest.mark.parametrize("extra", [[], ["--max-turns", "1"]])
    def test_replay_into_the_recordings_run_is_refused(self, two_calls, tmp_path, capsys, extra):
        rb, recorded = two_calls
        runs = tmp_path / "runs"

        def snapshot():
            return {p: p.is_file() and p.read_bytes() for p in runs.rglob("*")}

        before = snapshot()
        # The run directory spelled another way still names the recording.
        assert main(["replay", "--transcript", str(recorded),
                     "--run-dir", str(runs / "rec" / ".."),
                     "--run-id", "rec", *extra]) == 1
        assert capsys.readouterr() == ("", f"error: replay would overwrite its recording "
                                           f"{recorded}; pass another --run-id or --run-dir\n")
        assert snapshot() == before

    def test_edited_result_record_is_a_desync(self, two_calls, tmp_path, capsys):
        rb, recorded = two_calls
        *lines, result = recorded.read_text().splitlines()
        edited = json.loads(result)
        edited["prediction"]["confidence"] = "low"
        recorded.write_text("\n".join([*lines, json.dumps(edited, sort_keys=True)]) + "\n")
        assert self.replay(str(recorded), tmp_path) == 1
        self.assert_desync(capsys, recorded, "rep", 7)

    def test_replay_against_a_copy_of_the_repo(self, two_calls, tmp_path, capsys):
        rb, recorded = two_calls
        copy = tmp_path / "copy"
        shutil.copytree(rb.path, copy)
        assert self.replay(str(recorded), tmp_path, "--repo", str(copy)) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["case: t:HEAD", "status: resolved"]
        replayed = tmp_path / "runs" / "rep" / "transcripts" / "t_HEAD.jsonl"
        # Only the header differs: it names the repository the replay read.
        assert json.loads(replayed.read_text().splitlines()[0])["repo"] == str(copy)
        assert replayed.read_bytes().split(b"\n")[1:] == recorded.read_bytes().split(b"\n")[1:]

    @pytest.mark.parametrize("header", [[1], {"schema": TRANSCRIPT_SCHEMA, "repo": "r"},
                                        {"schema": TRANSCRIPT_SCHEMA, "repo": "r", "fix": "HEAD"}])
    def test_bad_header_is_one_error_line(self, recorded, tmp_path, capsys, header):
        rb, transcript = recorded
        lines = Path(transcript).read_text().splitlines()
        if isinstance(header, dict):
            header["repo"] = rb.path
        with open(transcript, "w") as f:
            f.write("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert self.replay(transcript, tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {transcript}")
        assert not (tmp_path / "runs" / "rep").exists()

    def test_v1_transcript_is_refused_by_its_header(self, recorded, tmp_path, capsys):
        # v1 history observations started at HEAD, so they would desync at some later step.
        rb, transcript = recorded
        header, *rest = Path(transcript).read_text().splitlines()
        old = {**json.loads(header), "schema": "bictrace-transcript/v1"}
        Path(transcript).write_text("\n".join([json.dumps(old), *rest]) + "\n")
        assert self.replay(transcript, tmp_path) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {transcript} is not a {TRANSCRIPT_SCHEMA} file"
        ]

    def test_v2_transcript_is_refused_by_its_header(self, recorded, tmp_path, capsys):
        # v2 git_show observations lack the blank line before the diff, so they would desync.
        rb, transcript = recorded
        header, *rest = Path(transcript).read_text().splitlines()
        old = {**json.loads(header), "schema": "bictrace-transcript/v2"}
        Path(transcript).write_text("\n".join([json.dumps(old), *rest]) + "\n")
        assert self.replay(transcript, tmp_path) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {transcript} is not a {TRANSCRIPT_SCHEMA} file"
        ]

    @pytest.mark.parametrize("record", [
        {"event": "model_step"},
        {"event": "model_step", "step": {"kind": "final", "text": "x", "usage": 5}},
        {"event": "observation", "tool": "git_show"},
        {"event": "observation", "tool": "git_show", "text": 5},
    ])
    def test_malformed_step_record_is_one_error_line(self, recorded, tmp_path, capsys, record):
        rb, transcript = recorded
        lines = Path(transcript).read_text().splitlines()
        with open(transcript, "w") as f:
            f.write("\n".join([lines[0], json.dumps(record), *lines[1:]]) + "\n")
        assert self.replay(transcript, tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {transcript}")
        assert not (tmp_path / "runs" / "rep").exists()


class TestLiveSettings:
    """The live backend sees only what build_run_config resolved: flags > env > file."""

    def live_backend(self, monkeypatch, *flags):
        monkeypatch.setenv("BICTRACE_ENDPOINT", "https://env.test/v1")
        monkeypatch.setenv("BICTRACE_MODEL", "env-model")
        monkeypatch.setenv("BICTRACE_API_KEY", "sk-env")
        args = build_parser().parse_args(["investigate", "--repo", ".", "--fix", "HEAD", *flags])
        return make_backend(build_run_config(args))()

    def test_environment_without_flags(self, monkeypatch):
        backend = self.live_backend(monkeypatch)
        assert (backend.endpoint_url, backend.model, backend.api_key) == (
            "https://env.test/v1", "env-model", "sk-env")

    def test_flag_beats_environment(self, monkeypatch):
        backend = self.live_backend(monkeypatch, "--endpoint-url", "https://flag.test/v1",
                                    "--model", "flag-model")
        assert (backend.endpoint_url, backend.model, backend.api_key) == (
            "https://flag.test/v1", "flag-model", "sk-env")

    def test_empty_flag_does_not_fall_back_to_environment(self, monkeypatch):
        with pytest.raises(BackendUnavailable, match="endpoint URL"):
            self.live_backend(monkeypatch, "--endpoint-url", "")


class TestLiveEndpoint:
    """`--backend live` end to end against a chat-completions endpoint on loopback."""

    @pytest.fixture
    def endpoint(self, monkeypatch):
        def serve(replies):
            stub = ChatStub(replies)
            monkeypatch.setenv("BICTRACE_ENDPOINT", stub.url)
            monkeypatch.setenv("BICTRACE_API_KEY", "sk-stub")
            monkeypatch.setenv("BICTRACE_MODEL", "stub-model")
            return stub

        return serve

    @staticmethod
    def read_records(path):
        return [json.loads(line) for line in Path(path).read_text().splitlines()]

    def test_record_live_then_replay(self, cross_file_repo, tmp_path, capsys, endpoint):
        rb, info = cross_file_repo
        runs = str(tmp_path / "runs")
        with endpoint([
            reply("Blame the guarded line.", [call("git_blame", file_path="driver/hotplug.c")],
                  usage=(100, 10)),
            reply(None, [call("git_show", commit=info["refactor"][:12])], usage=(200, 10)),
            reply(f"BIC: {info['bic']}\nConfidence: high\nReasoning: r", usage=(300, 20)),
        ]) as stub:
            assert main(["investigate", "--repo", rb.path, "--fix", info["fix"], "--backend", "live",
                         "--run-dir", runs, "--run-id", "live"]) == 0
        out = capsys.readouterr().out
        assert "status: resolved" in out and info["bic"] in out
        transcript = out.split("transcript: ")[1].strip()
        records = self.read_records(transcript)
        assert records[-1]["total_tokens"] == 640 and records[-1]["error"] is None
        observations = [r["text"] for r in records if r.get("event") == "observation"]
        # Each request carries the model's messages and the observations before it.
        assert len(stub.requests) == 3
        for headers, body in stub.requests:
            assert headers["Authorization"] == "Bearer sk-stub" and body["model"] == "stub-model"
            assert len(body["tools"]) == 5
        for n, (_, body) in enumerate(stub.requests):
            assert [m["content"] for m in body["messages"] if m["role"] == "tool"] == observations[:n]
        assert stub.requests[1][1]["messages"][2]["content"] == "Blame the guarded line."
        assert main(["replay", "--transcript", transcript, "--run-dir", runs, "--run-id", "rep"]) == 0
        ds = write_dataset(tmp_path / "ds.jsonl", [{"repo": rb.path, "fix_commit": info["fix"],
                                                    "bics": [info["bic"]], "case_id": "x"}])
        with endpoint([reply(f"BIC: {info['bic']}")]):
            assert main(["batch", "--dataset", ds, "--backend", "live",
                         "--run-dir", runs, "--run-id", "batch"]) == 0
        (result,) = read_results(os.path.join(runs, "batch", "results.jsonl"))[1]
        assert (result.predicted, result.error) == ([info["bic"]], None)

    def test_calls_past_the_budget_are_dropped(self, cross_file_repo, tmp_path, capsys, endpoint,
                                               monkeypatch):
        rb, info = cross_file_repo
        runs = str(tmp_path / "runs")
        spawned, spawn = [], gitio._spawn
        monkeypatch.setattr(gitio, "_spawn", lambda root, args, timeout: (
            spawned.append(args[0]) or spawn(root, args, timeout)))
        with endpoint([
            reply("Three reads.", [call("git_grep", search_string="dispatch"),
                                   call("git_show", commit=info["bic"]),
                                   call("git_blame", file_path="driver/hotplug.c")]),
            reply(f"BIC: {info['bic']}"),
        ]) as stub:
            assert main(["investigate", "--repo", rb.path, "--fix", info["fix"], "--backend", "live",
                         "--max-turns", "2", "--run-dir", runs, "--run-id", "live"]) == 0
        transcript = capsys.readouterr().out.split("transcript: ")[1].strip()
        # The third call never ran, and neither the transcript nor the next request holds it.
        assert "blame" not in spawned
        records = self.read_records(transcript)
        assert [(r["event"], r.get("step", {}).get("tool")) for r in records[1:]] == [
            ("model_step", "git_grep"), ("observation", None),
            ("model_step", "git_show"), ("observation", None),
            ("model_step", None), ("result", None)]
        assert records[-1]["prediction"]["resolved_id"] == info["bic"]
        _, forced = stub.requests[1]
        assert "tools" not in forced
        assistant, *tools, last = forced["messages"][2:]
        assert [c["function"]["name"] for c in assistant["tool_calls"]] == ["git_grep", "git_show"]
        assert [m["tool_call_id"] for m in tools] == [c["id"] for c in assistant["tool_calls"]]
        assert last == {"role": "user", "content": agent.FORCED_ANSWER_MESSAGE}
        assert main(["replay", "--transcript", transcript, "--max-turns", "2",
                     "--run-dir", runs, "--run-id", "rep"]) == 0

    @pytest.mark.parametrize("failure, errors", [
        (Status(429, {"Retry-After": "1"}, "slow\n  down"),
         ["429 Client Error: Too Many Requests", "slow down", "Retry-After: 1"]),
        (Status(503, body="overloaded"), ["503 Server Error: Service Unavailable", "overloaded"]),
        (Status(400, body="context too long " * 40),
         ["400 Client Error: Bad Request", f"endpoint said: {('context too long ' * 12)[:200]}..."]),
        (Delay(5, reply("BIC: 0000000")), ["Read timed out. (read timeout=0.2)"]),
        (DROP, ["Remote end closed connection without response"]),
    ], ids=["429", "503", "400 with a long body", "read timeout", "dropped connection"])
    def test_endpoint_failure_is_the_case_error(self, linear_repo, tmp_path, capsys, endpoint,
                                                monkeypatch, failure, errors):
        rb, shas = linear_repo
        monkeypatch.setattr(agent, "ENDPOINT_TIMEOUT", 0.2)
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]], "case_id": "x"}])
        runs = tmp_path / "runs"
        with endpoint([reply(None, [call("git_show", commit=shas[1])]), failure]) as stub:
            assert main(["batch", "--dataset", ds, "--backend", "live",
                         "--run-dir", str(runs), "--run-id", "b"]) == 0
        assert len(stub.requests) == 2
        (result,) = read_results(str(runs / "b" / "results.jsonl"))[1]
        assert result.error.startswith("model endpoint failure: ")
        assert all(error in result.error for error in errors) and "\n" not in result.error
        assert result.predicted == []
        records = self.read_records(runs / "b" / "transcripts" / "x.jsonl")
        assert records[-1]["error"] == result.error and records[-1]["tool_turns"] == 1
        assert "1 case(s) failed infrastructure-wise" in capsys.readouterr().err


class TestBatchCmd:
    def test_missing_clone_is_a_case_error(self, linear_repo, tmp_path):
        rb, shas = linear_repo
        script = write_script(
            tmp_path / "script.json",
            [{"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"}],
        )
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [
                {"repo": "https://host/org/absent.git", "fix_commit": shas[2], "bics": [shas[1]],
                 "dataset_tag": "x", "case_id": "x:remote"},
                {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
                 "dataset_tag": "x", "case_id": "x:local"},
            ],
        )
        runs, repos = tmp_path / "runs", tmp_path / "repos"
        repos.mkdir()
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "b"]) == 0
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "c", "--repos-dir", str(repos)]) == 0
        for run, error in (("b", "--repos-dir"),
                           ("c", "clone for https://host/org/absent.git not found at "
                                 f"{repos / 'host' / 'org' / 'absent'}")):
            _, results = read_results(str(runs / run / "results.jsonl"))
            assert [r.case_id for r in results] == ["x:remote", "x:local"]
            assert error in results[0].error
            assert results[1].error is None and results[1].predicted == [shas[1]]

    def test_interrupted_batch_keeps_the_finished_cases(self, linear_repo, tmp_path,
                                                        monkeypatch, capsys):
        rb, shas = linear_repo
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": f"BIC: {shas[1]}"}])
        ds = write_dataset(tmp_path / "ds.jsonl", [
            {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]], "case_id": f"x:{i}"}
            for i in range(3)
        ])
        run = cli.run_investigation
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "run_investigation", interrupted)
        runs = tmp_path / "runs"
        with pytest.raises(KeyboardInterrupt):
            main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                  "--run-dir", str(runs), "--run-id", "b"])
        method, results = read_results(str(runs / "b" / "results.jsonl"))
        assert method == "agent-scripted"
        assert [(r.case_id, r.predicted) for r in results] == [("x:0", [shas[1]])]
        # A finished batch writes the same bytes as a file written at the end.
        monkeypatch.setattr(cli, "run_investigation", run)
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "full"]) == 0
        out = runs / "full" / "results.jsonl"
        _, results = read_results(str(out))
        rewritten = str(tmp_path / "rewritten.jsonl")
        evaluate.write_results(rewritten, "agent-scripted")
        for result in results:
            evaluate.append_result(rewritten, result)
        assert out.read_bytes() == Path(rewritten).read_bytes()
        capsys.readouterr()

    def test_a_clone_opened_after_the_run_died_is_stopped(self, linear_repo, tmp_path, monkeypatch):
        rb, shas = linear_repo
        cases = [CaseSpec(repo_path=path, fix_commit=shas[2], case_id=path) for path in ("a", "late")]
        started, reraised, opened = threading.Event(), threading.Event(), threading.Event()
        stopped = []

        def materialize(repo_field, repos_dir):  # the late case opens its clone once the run died
            if repo_field == "late":
                started.set()
                assert reraised.wait(10)
            return rb.path

        def run_case(case, repo):
            if case.case_id == "a":  # Ctrl-C, once the late case has left the queue
                assert started.wait(10)
                raise KeyboardInterrupt
            try:
                gitio.run_git(repo, ["show", "-s", shas[2]])
            except gitio.GitStopped as exc:
                stopped.append(exc)
            finally:
                opened.set()

        monkeypatch.setattr(cli, "_materialize_repo", materialize)
        with pytest.raises(KeyboardInterrupt):
            cli._run_dataset(cases, None, str(tmp_path / "out.jsonl"), "m", run_case, workers=2)
        reraised.set()
        assert opened.wait(10)
        assert [str(exc) for exc in stopped] == [f"git work on {rb.path} was stopped"]

    def test_case_ids_that_share_a_file_name_are_refused(self, linear_repo, tmp_path, capsys,
                                                         monkeypatch):
        rb, shas = linear_repo
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": f"BIC: {shas[1]}"}])
        ds = write_dataset(tmp_path / "ds.jsonl", [
            {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]], "case_id": case_id}
            for case_id in ("x:1", "x_1")
        ])
        spawned = []
        monkeypatch.setattr(gitio, "_spawn", lambda *a: spawned.append(a))
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}", "--parallelism",
                     "2", "--run-dir", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == "error: cases x:1 and x_1 would share the file name x_1\n"
        assert spawned == [] and not (tmp_path / "runs").exists()

    def test_malformed_price_table_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"price_table": True}))
        assert main(["batch", "--dataset", write_dataset(tmp_path / "ds.jsonl", []),
                     "--config", str(config), "--run-dir", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: price_table must map price names to numbers\n")
        assert not (tmp_path / "runs").exists()

    def test_classification_timeout_costs_the_run_nothing(self, linear_repo, tmp_path,
                                                           time_out_git, capsys):
        rb, shas = linear_repo
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": f"BIC: {shas[1]}"}])
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
                             "case_id": "x:1"}])
        time_out_git(lambda args: args[0] == "log" and "--follow" in args)
        runs = tmp_path / "runs"
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "b"]) == 0
        results = str(runs / "b" / "results.jsonl")
        _, (result,) = read_results(results)
        assert result.error is None and result.predicted == [shas[1]]
        capsys.readouterr()
        # Only evaluate classifies: it names the case, leaves it out of every subset, exits 3.
        assert main(["evaluate", "--dataset", ds, "--results", results]) == 3
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "x:1: not classified, so in no hard-case subset: git log timed out after 30s"]
        assert "recall:    1.0000" in out and "cross_file: 0 cases" in out

    def test_failed_classification_keeps_the_run(self, linear_repo, tmp_path, monkeypatch):
        rb, shas = linear_repo

        def broken(*args):
            raise gitio.GitTimeout("git log timed out after 30s")

        monkeypatch.setattr(evaluate, "classify_cross_file", broken)
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": f"BIC: {shas[1]}"}])
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
                             "case_id": "x:1"}])
        runs = tmp_path / "runs"
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "b"]) == 0
        assert main(["baseline", "--algorithm", "b", "--dataset", ds,
                     "--out", str(tmp_path / "b.jsonl")]) == 0
        for path in (runs / "b" / "results.jsonl", tmp_path / "b.jsonl"):
            (result,) = read_results(str(path))[1]
            assert result.error is None and result.predicted == [shas[1]]
        assert [p.name for p in (runs / "b" / "transcripts").iterdir()] == ["x_1.jsonl"]
        case = json.loads((runs / "b" / "cases" / "x_1.json").read_text())
        assert case["prediction"]["resolved_id"] == shas[1]
        assert "category_flags" not in case

    def test_parallel_run_matches_sequential(self, linear_repo, cross_file_repo, tmp_path,
                                             monkeypatch):
        rb, shas = linear_repo
        cross, info = cross_file_repo
        script = write_script(tmp_path / "script.json", [
            {"kind": "tool_call", "tool": "git_grep", "args": {"search_string": "int"}},
            {"kind": "tool_call", "tool": "git_log_s", "args": {"search_string": "+ 1"}},
            {"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"},
        ])
        ds = write_dataset(tmp_path / "ds.jsonl", [
            {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]], "case_id": "x:1"},
            {"repo": rb.path, "fix_commit": shas[1], "bics": [shas[0]], "case_id": "x:2"},
            {"repo": cross.path, "fix_commit": info["fix"], "bics": [info["bic"]],
             "case_id": "x:3"},
        ])

        def run(parallelism):
            # The same relative run directory, so every recorded path is the same.
            out = tmp_path / f"p{parallelism}"
            out.mkdir()
            monkeypatch.chdir(out)
            assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                         "--parallelism", str(parallelism), "--run-dir", "runs",
                         "--run-id", "b"]) == 0
            base = out / "runs" / "b"
            results = [json.loads(ln) for ln in (base / "results.jsonl").read_text().splitlines()]
            for record in results[1:]:
                del record["cost"]["seconds"]
            predictions = {p.name: json.loads(p.read_text())["prediction"]
                           for p in (base / "cases").iterdir()}
            transcripts = {p.name: p.read_bytes() for p in (base / "transcripts").iterdir()}
            return results, predictions, transcripts

        sequential, parallel = run(1), run(2)
        assert [r["case_id"] for r in sequential[0][1:]] == ["x:1", "x:2", "x:3"]
        assert len(sequential[2]) == 3
        assert parallel == sequential


class TestNotARepository:
    """A plain directory as --repo is reported by the first git call."""

    @pytest.fixture
    def plain(self, tmp_path):
        path = tmp_path / "plain"
        path.mkdir()
        return str(path)

    def test_investigate(self, plain, tmp_path, capsys):
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": "no answer"}])
        code = main(["investigate", "--repo", plain, "--fix", "HEAD",
                     "--backend", f"scripted:{script}", "--run-dir", str(tmp_path / "runs")])
        assert code == 1
        assert f"error: {plain} is not a git repository" in capsys.readouterr().err

    def test_tool(self, plain, capsys):
        code = main(["tool", "git_grep", "--repo", plain, "--args", '{"search_string": "x"}'])
        assert code == 1
        assert f"error: {plain} is not a git repository" in capsys.readouterr().err

    def test_tool_schema_error_comes_before_any_git_call(self, plain, capsys, monkeypatch):
        spawned = []
        monkeypatch.setattr(gitio, "_spawn", lambda *a: spawned.append(a))
        code = main(["tool", "git_log_s", "--repo", plain,
                     "--args", '{"search_string": "x", "colour": true}'])
        assert code == 2
        assert capsys.readouterr().out == "Error (schema): git_log_s: unknown parameter(s): colour\n"
        assert spawned == []

    def test_batch_and_baseline_record_the_case(self, plain, linear_repo, tmp_path):
        rb, shas = linear_repo
        script = write_script(
            tmp_path / "s.json",
            [{"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"}],
        )
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": repo, "fix_commit": shas[2], "bics": [shas[1]], "case_id": f"x:{i}"}
             for i, repo in enumerate([plain, rb.path])],
        )
        runs = tmp_path / "runs"
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "b"]) == 0
        assert main(["baseline", "--algorithm", "b", "--dataset", ds,
                     "--out", str(tmp_path / "b.jsonl")]) == 0
        for path in (runs / "b" / "results.jsonl", tmp_path / "b.jsonl"):
            _, results = read_results(str(path))
            assert f"{plain} is not a git repository" in results[0].error
            assert results[1].error is None and results[1].predicted == [shas[1]]


class TestAnotherUsersRepository:
    """Git refuses a repository another user owns; that is RepoUnavailable, never a missing fix."""

    @pytest.fixture
    def foreign(self, linear_repo, monkeypatch):
        # Git's own test switch makes every repository read as another user's.
        pinned = gitio._pinned_env
        monkeypatch.setattr(gitio, "_pinned_env",
                            lambda: {**pinned(), "GIT_TEST_ASSUME_DIFFERENT_OWNER": "1"})
        return linear_repo

    def refused(self, path):
        return (f"{path} is owned by another user, so git refuses to read it (dubious "
                "ownership); run bictrace as the clone's owner")

    @pytest.mark.parametrize("command", ["tool", "investigate"])
    def test_tool_and_investigate_exit_1(self, foreign, tmp_path, capsys, command):
        rb, shas = foreign
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": "no answer"}])
        assert main({
            "tool": ["tool", "git_show", "--repo", rb.path, "--args", '{"commit": "HEAD"}'],
            "investigate": ["investigate", "--repo", rb.path, "--fix", "HEAD", "--backend",
                            f"scripted:{script}", "--run-dir", str(tmp_path / "runs")],
        }[command]) == 1
        assert capsys.readouterr().err == f"error: {self.refused(rb.path)}\n"

    def test_dataset_commands_name_the_cause(self, foreign, tmp_path, capsys):
        rb, shas = foreign
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": "no answer"}])
        ds = write_dataset(tmp_path / "ds.jsonl", [{"repo": rb.path, "fix_commit": shas[2],
                                                    "bics": [shas[1]], "case_id": "x:1"}])
        runs, out = tmp_path / "runs", str(tmp_path / "b.jsonl")
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "b"]) == 0
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out]) == 0
        for path in (str(runs / "b" / "results.jsonl"), out):
            assert [r.error for r in read_results(path)[1]] == [self.refused(rb.path)]
        capsys.readouterr()
        assert main(["evaluate", "--dataset", ds, "--results", out]) == 3
        assert (f"x:1: not classified, so in no hard-case subset: {self.refused(rb.path)}\n"
                in capsys.readouterr().err)


class TestSha256Repository:
    """Blame porcelain, the answer probe and dataset bics read 40-hex ids: the fix read refuses others."""

    @pytest.fixture
    def sha256_repo(self, tmp_path):
        path = tmp_path / "sha256"
        subprocess.run(["git", "init", "-q", "--object-format=sha256", str(path)],
                       check=True, capture_output=True)
        rb = RepoBuilder(path)  # re-initialising keeps the object format
        rb.commit({"f.c": "keep\nold\n"}, "seed")
        bic = rb.commit({"f.c": "keep\nbug\n"}, "bic")
        fix = rb.commit({"f.c": "keep\nfixed\n"}, "fix")
        assert len(fix) == 64
        return rb.path, bic, fix

    def test_every_command_refuses_it(self, sha256_repo, tmp_path, capsys):
        path, bic, fix = sha256_repo
        refusal = (f"{path}: fix commit id {fix} has 64 hex digits; "
                   "bictrace reads only the sha1 object format (40)")
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": f"BIC: {bic}"}])
        assert main(["investigate", "--repo", path, "--fix", "HEAD", "--backend",
                     f"scripted:{script}", "--run-dir", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"
        assert main(["tool", "git_blame", "--repo", path, "--args", '{"file_path": "f.c"}']) == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": path, "fix_commit": fix, "bics": ["0" * 40], "case_id": "x:1"}])
        out = str(tmp_path / "b.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out]) == 0
        assert read_results(out)[1][0].error == refusal
        capsys.readouterr()
        assert main(["evaluate", "--dataset", ds, "--results", out]) == 3
        assert f"x:1: not classified, so in no hard-case subset: {refusal}\n" in capsys.readouterr().err

    def test_the_answer_probe_finds_no_commit_of_64_hex(self, sha256_repo):
        path, _, _ = sha256_repo
        assert gitio.probe_commit(gitio.RepoHandle(path), "HEAD") == ("not_found", None, None)


class TestSpawnBudget:
    """Git processes per case, counted where every one of them starts."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        subcommands = []
        real_spawn = gitio._spawn
        monkeypatch.setattr(
            gitio, "_spawn", lambda *a: subcommands.append(a[1][0]) or real_spawn(*a)
        )
        return subcommands

    def test_scripted_batch_case(self, linear_repo, tmp_path, spawned):
        rb, shas = linear_repo
        script = write_script(
            tmp_path / "s.json",
            [
                {"kind": "tool_call", "tool": "git_show", "args": {"commit": shas[1]}},
                {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "a.c"}},
                {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "a.c"}},
                {"kind": "tool_call", "tool": "git_log_s", "args": {"search_string": "b + 1"}},
                {"kind": "tool_call", "tool": "git_log_func",
                 "args": {"function_name": "add", "file_path": "a.c"}},
                {"kind": "tool_call", "tool": "git_grep", "args": {"search_string": "return"}},
                {"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"},
            ],
        )
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]]}])
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(tmp_path / "runs"), "--run-id", "b"]) == 0
        # The fix read (1), five tool calls (the repeated blame is a cache
        # hit) and one show -s for the answer.
        assert spawned == ["show",
                           "show", "blame", "log", "log", "grep",
                           "show"]

    @pytest.mark.parametrize("spelling", ["full id", "12 characters"])
    def test_scripted_case_showing_the_fix(self, linear_repo, tmp_path, spawned, spelling):
        rb, shas = linear_repo
        fix = shas[2] if spelling == "full id" else shas[2][:12]
        script = write_script(
            tmp_path / "s.json",
            [
                {"kind": "tool_call", "tool": "git_show", "args": {"commit": fix}},
                {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "a.c"}},
                {"kind": "tool_call", "tool": "git_log_s", "args": {"search_string": "b + 1"}},
                {"kind": "tool_call", "tool": "git_log_func",
                 "args": {"function_name": "add", "file_path": "a.c"}},
                {"kind": "tool_call", "tool": "git_grep", "args": {"search_string": "return"}},
                {"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"},
            ],
        )
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]]}])
        runs = tmp_path / "runs"
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "b"]) == 0
        # The fix read renders a git_show of the fix by its full id; any other spelling is git's.
        shown = ["show"] if spelling == "12 characters" else []
        assert spawned == ["show", *shown, "blame", "log", "log", "grep", "show"]
        transcripts = list((runs / "b" / "transcripts").iterdir())
        observation = json.loads(transcripts[0].read_text().split("\n")[2])
        assert observation["text"].startswith(f"commit {shas[2]}\nAuthor: ")

    def test_baseline_op(self, linear_repo, tmp_path, spawned):
        rb, shas = linear_repo
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]]}])
        assert main(["baseline", "--algorithm", "b", "--dataset", ds,
                     "--out", str(tmp_path / "b.jsonl")]) == 0
        # The fix read (1) and one blame per changed file.
        assert spawned == ["show", "blame"]

    def test_baseline_op_blames_only_the_removed_lines(self, tmp_path, monkeypatch):
        rb = RepoBuilder(tmp_path / "ranged")
        body = "".join(f"line {n}\n" for n in range(1, 13))
        bic = rb.commit({"m.c": body}, "seed")
        fix = rb.commit(
            {"m.c": body.replace("line 3\nline 4\nline 5\n", "").replace("line 9\n", "")}, "fix"
        )
        argvs = []
        real_spawn = gitio._spawn
        monkeypatch.setattr(gitio, "_spawn", lambda *a: argvs.append(a[1]) or real_spawn(*a))
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": fix, "bics": [bic]}])
        out_path = str(tmp_path / "b.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out_path]) == 0
        assert read_results(out_path)[1][0].predicted == [bic]
        assert [argv[0] for argv in argvs] == ["show", "blame"]
        assert argvs[1] == ["blame", "--porcelain", "-L", "3,5", "-L", "9,9", bic, "--", "m.c"]


class TestCaseSeconds:
    """`seconds` covers the fix read and the method, for agents and baselines alike."""

    def test_hard_case_classification_is_not_timed(self, linear_repo, tmp_path, monkeypatch):
        # Only evaluate classifies: batch and baseline never call the classifier.
        rb, shas = linear_repo
        calls = []
        monkeypatch.setattr(evaluate, "classify_cross_file", lambda *args: calls.append(args))
        script = write_script(
            tmp_path / "s.json",
            [{"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"}],
        )
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]]}])
        runs = tmp_path / "runs"
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "b"]) == 0
        assert main(["baseline", "--algorithm", "b", "--dataset", ds,
                     "--out", str(tmp_path / "b.jsonl")]) == 0
        for path in (runs / "b" / "results.jsonl", tmp_path / "b.jsonl"):
            (result,) = read_results(str(path))[1]
            assert result.predicted == [shas[1]]
            assert 0 < result.cost["seconds"] < 1.0
        assert calls == []


class TestAgentCost:
    def test_dollars_from_prompt_and_completion_tokens(self, cross_file_repo, tmp_path, capsys):
        rb, info = cross_file_repo
        script = write_script(
            tmp_path / "script.json",
            [
                {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "driver/hotplug.c"},
                 "usage": {"prompt_tokens": 2000, "completion_tokens": 100}},
                {"kind": "final", "text": f"BIC: {info['bic']}\nConfidence: high\nReasoning: r",
                 "usage": {"prompt_tokens": 1000, "completion_tokens": 200}},
            ],
        )
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": rb.path, "fix_commit": info["fix"], "bics": [info["bic"]],
              "dataset_tag": "x", "case_id": "x:1"}],
        )
        runs = tmp_path / "runs"
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "priced"]) == 0
        case = json.loads((runs / "priced" / "cases" / "x_1.json").read_text())
        assert case["cost"]["prompt_tokens"] == 3000
        assert case["cost"]["completion_tokens"] == 300
        assert case["cost"]["tokens"] == 3300
        config = tmp_path / "price.json"
        config.write_text(json.dumps(
            {"price_table": {"prompt_usd_per_1k": 1.0, "completion_usd_per_1k": 1.0}}
        ))
        reports = tmp_path / "reports"
        assert main(["evaluate", "--dataset", ds, "--results", str(runs / "priced" / "results.jsonl"),
                     "--config", str(config), "--out", str(reports)]) == 0
        report = json.loads((reports / "agent-scripted.report.json").read_text())
        assert report["cost_means"]["dollars"] == pytest.approx(3.30)


class TestBaselineCmd:
    def test_b_szz_matches_oracle(self, cross_file_repo, tmp_path, capsys):
        rb, info = cross_file_repo
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": rb.path, "fix_commit": info["fix"], "bics": [info["bic"]],
              "dataset_tag": "x", "case_id": "x:1"}],
        )
        out_path = str(tmp_path / "b.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out_path]) == 0
        _, results = read_results(out_path)
        oracle = AttributionOracle(rb.path)
        assert set(results[0].predicted) == oracle.last_writer_b_szz(info["fix"])
        assert capsys.readouterr().out == (
            f"[1/1] x:1: {','.join(results[0].predicted)}\nresults: {out_path}\n")
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--dataset", ds, "--results", out_path, "--out", reports]) == 0
        report = json.loads(Path(os.path.join(reports, "b-szz.report.json")).read_text())
        assert {k: v["n_cases"] for k, v in report["category_recall"].items()} == {
            "ghost": 0, "cross_file": 1}

    def test_r_subset_of_b(self, linear_repo, tmp_path):
        rb, shas = linear_repo
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
              "dataset_tag": "x", "case_id": "x:1"}],
        )
        b_out, r_out = str(tmp_path / "b.jsonl"), str(tmp_path / "r.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", b_out]) == 0
        assert main(["baseline", "--algorithm", "r", "--dataset", ds, "--out", r_out]) == 0
        _, b_results = read_results(b_out)
        _, r_results = read_results(r_out)
        assert len(r_results[0].predicted) <= 1
        assert set(r_results[0].predicted) <= set(b_results[0].predicted)

    def test_remote_urls_map_to_clone_names(self, tmp_path):
        rb = RepoBuilder(tmp_path / "clones" / "host" / "org" / "name")
        rb.commit({"m.c": "keep\nold line\n"}, "seed")
        bic = rb.commit({"m.c": "keep\nbuggy line\n"}, "introduce")
        fix = rb.commit({"m.c": "keep\nfixed line\n"}, "fix")
        # Spellings of one repository share its clone, <repos-dir>/<host>/<path>.
        urls = ["https://host/org/name.git", "git@host:org/name.git", "https://host/org/name/",
                "ssh://git@HOST:22/org/name.git"]
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": url, "fix_commit": fix, "bics": [bic], "dataset_tag": "x",
              "case_id": f"x:{i}"} for i, url in enumerate(urls)],
        )
        out_path = str(tmp_path / "b.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out_path,
                     "--repos-dir", str(tmp_path / "clones")]) == 0
        _, results = read_results(out_path)
        assert [(r.error, r.predicted) for r in results] == [(None, [bic])] * len(urls)

    @pytest.mark.parametrize("record", [
        {"fix_commit": "a" * 40, "bics": ["b" * 40]}, [1],
        {"repo": "/r", "fix_commit": "a" * 40, "bics": ["b" * 40], "case_id": 5},
        {"repo": "/r", "fix_commit": "a" * 40, "bics": ["b" * 40], "dataset_tag": 7},
    ])
    def test_malformed_dataset_is_an_error(self, tmp_path, capsys, record):
        ds = write_dataset(tmp_path / "bad.jsonl", [record])
        code = main(["baseline", "--algorithm", "b", "--dataset", ds,
                     "--out", str(tmp_path / "b.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {ds}:2: ")

    def test_dataset_line_that_is_not_json_names_its_line(self, tmp_path, capsys):
        ds = write_dataset(tmp_path / "bad.jsonl", [])
        with open(ds, "a") as f:
            f.write("not json\n")
        code = main(["baseline", "--algorithm", "b", "--dataset", ds,
                     "--out", str(tmp_path / "b.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {ds}:2: not JSON: Expecting value at column 1\n"

    def test_empty_dataset(self, tmp_path, capsys):
        ds = write_dataset(tmp_path / "empty.jsonl", [])
        out_path = str(tmp_path / "out.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out_path]) == 0
        _, results = read_results(out_path)
        assert results == []

    def test_bad_case_recorded_run_continues(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [
                {"repo": rb.path, "fix_commit": "deadbeef" * 5, "bics": ["0" * 40],
                 "dataset_tag": "x", "case_id": "x:bad"},
                {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
                 "dataset_tag": "x", "case_id": "x:good"},
            ],
        )
        out_path = str(tmp_path / "b.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out_path]) == 0
        _, results = read_results(out_path)
        assert results[0].error and not results[1].error
        assert results[1].predicted == [shas[1]]
        assert capsys.readouterr().err == "1 case(s) failed infrastructure-wise\n"

    @pytest.mark.parametrize("command", ["batch", "baseline"])
    def test_interrupt_stops_the_running_case_without_waiting(self, linear_repo, tmp_path,
                                                              monkeypatch, command):
        rb, shas = linear_repo
        ds = write_dataset(tmp_path / "ds.jsonl", [
            {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]], "case_id": f"x:{i}"}
            for i in range(2)
        ])
        script = write_script(tmp_path / "s.json", [
            {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "a.c"}},
            {"kind": "final", "text": f"BIC: {shas[1]}"},
        ])
        slow_started, procs, sent = threading.Event(), [], []
        real_init = subprocess.Popen.__init__

        def init(self, args, **kwargs):  # each blame takes 3 s
            slow = "blame" in args
            real_init(self, ["sleep", "3"] if slow else args, **kwargs)
            procs.append(self)
            if slow:
                slow_started.set()

        def interrupt():  # Ctrl-C, once the first case's blame runs
            if slow_started.wait(10):
                sent.append(time.monotonic())
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        monkeypatch.setattr(subprocess.Popen, "__init__", init)
        runs, out = tmp_path / "runs", tmp_path / "b.jsonl"
        argv = {"batch": ["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                          "--run-dir", str(runs), "--run-id", "r"],
                "baseline": ["baseline", "--algorithm", "b", "--dataset", ds, "--out", str(out)]}
        threads = set(threading.enumerate())
        interrupter = threading.Thread(target=interrupt)
        interrupter.start()
        with pytest.raises(KeyboardInterrupt):
            main(argv[command])
        assert sent and time.monotonic() - sent[0] < 1.5
        interrupter.join(10)
        assert not interrupter.is_alive()
        for thread in set(threading.enumerate()) - threads:  # the stopped case ends at once too
            thread.join(1.5)
            assert not thread.is_alive()
        # The fix read and the blame of the first case; the second case never started.
        assert len(procs) == 2 and all(proc.returncode is not None for proc in procs)
        results = runs / "r" / "results.jsonl" if command == "batch" else out
        assert read_results(str(results))[1] == []
        if command == "batch":  # the stopped case recorded nothing
            assert list((runs / "r" / "transcripts").iterdir()) == []

    def test_interrupted_baseline_keeps_the_finished_cases(self, linear_repo, tmp_path,
                                                           monkeypatch, capsys):
        rb, shas = linear_repo
        ds = write_dataset(tmp_path / "ds.jsonl", [
            {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]], "case_id": f"x:{i}"}
            for i in range(3)
        ])
        out = tmp_path / "b.jsonl"
        earlier = "".join(json.dumps(r) + "\n" for r in [
            {"schema": "bictrace-results/v1", "method": "b-szz"},
            *({"case_id": f"x:{i}", "predicted": [shas[1]]} for i in range(3))])
        out.write_text(earlier)
        b_szz, calls = szz.b_szz, []

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return b_szz(*args)

        monkeypatch.setattr(szz, "b_szz", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", str(out)])
        method, results = read_results(str(out))
        assert method == "b-szz"
        assert [(r.case_id, r.predicted) for r in results] == [("x:0", [shas[1]])]
        capsys.readouterr()
        # The cases the run never finished score as misses, not as the earlier run's hits.
        assert main(["evaluate", "--dataset", ds, "--results", str(out)]) == 3
        out_text, err = capsys.readouterr()
        assert "recall:    0.3333" in out_text
        assert err == f"{out}: 0 case(s) carry infrastructure errors, 2 dataset case(s) missing\n"


class TestGroundTruthIds:
    def test_upper_case_bic_scores(self, linear_repo, tmp_path):
        rb, shas = linear_repo
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1].upper()]}])
        out_path = str(tmp_path / "b.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out_path]) == 0
        (result,) = read_results(out_path)[1]
        assert result.predicted == [shas[1]]
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--dataset", ds, "--results", out_path, "--out", reports]) == 0
        report = json.loads(Path(os.path.join(reports, "b-szz.report.json")).read_text())
        assert report["recall"] == 1.0
        assert {k: v["n_cases"] for k, v in report["category_recall"].items()} == {
            "ghost": 0, "cross_file": 0}

    def test_abbreviated_bic_rejected_before_any_git_call(self, linear_repo, tmp_path, capsys,
                                                          monkeypatch):
        rb, shas = linear_repo
        spawned = []
        monkeypatch.setattr(gitio, "_spawn", lambda *a: spawned.append(a))
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1][:12]]}])
        assert main(["baseline", "--algorithm", "b", "--dataset", ds,
                     "--out", str(tmp_path / "b.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ds}:2: ")
        assert spawned == []

    @pytest.mark.parametrize("bics", [5, "a" * 40, [], None, {"b": 1}])
    @pytest.mark.parametrize("command", ["evaluate", "baseline"])
    def test_bics_must_be_a_nonempty_list(self, tmp_path, capsys, bics, command):
        record = {"repo": "/r", "fix_commit": "a" * 40, "bics": bics}
        if bics is None:
            del record["bics"]
        ds = write_dataset(tmp_path / "ds.jsonl", [record])
        out = str(tmp_path / "b.jsonl")
        assert main({"evaluate": ["evaluate", "--dataset", ds, "--results", out],
                     "baseline": ["baseline", "--algorithm", "b", "--dataset", ds, "--out", out],
                     }[command]) == 1
        assert capsys.readouterr().err == (
            f"error: {ds}:2: 'bics' must be a nonempty list of commit ids\n")

    def test_predicted_ids_read_as_bics_are(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        ds = write_dataset(tmp_path / "ds.jsonl", [{"repo": rb.path, "fix_commit": shas[2],
                                                    "bics": [shas[1]], "case_id": "x:1"}])
        results = tmp_path / "res.jsonl"
        for predicted, code, err in (
            (shas[1].upper(), 0, ""),
            (shas[1][:12], 1, f"error: {results}:2: predicted id {shas[1][:12]!r} "
                              "is not a 40-hex-digit commit id\n"),
        ):
            results.write_text(json.dumps({"schema": "bictrace-results/v1"}) + "\n"
                               + json.dumps({"case_id": "x:1", "predicted": [predicted]}) + "\n")
            assert main(["evaluate", "--dataset", ds, "--results", str(results)]) == code
            captured = capsys.readouterr()
            assert captured.err == err
            assert ("  f1:        1.0000" in captured.out.splitlines()) == (code == 0)


class TestUnreadableInput:
    """A file that fails to parse is named by its path and the line it fails on."""

    @pytest.mark.parametrize("kind, content, where", [
        ("config", b'{"max_turns": ', "1: not JSON: Expecting value at column 15"),
        ("config", b'{\n  "model": "caf\xe9"\n}\n',
         "2: not UTF-8: byte 0xe9 (invalid continuation byte)"),
        ("script", b'[{"kind": ', "1: not JSON: Expecting value at column 11"),
        ("transcript", b'{"schema": "bictrace-transcript/v2"}\n{"event": "model_step"}\n{oops\n',
         "3: not JSON: Expecting property name enclosed in double quotes at column 2"),
        ("transcript", b"[1]\n", "1: record is not a JSON object"),
        ("dataset", b'{"schema": "bictrace-dataset/v1"}\n{"repo": "caf\xe9"}\n',
         "2: not UTF-8: byte 0xe9 (invalid continuation byte)"),
        ("results", b'{"schema": "bictrace-results/v1", "method": "caf\xe9"}\n',
         "1: not UTF-8: byte 0xe9 (invalid continuation byte)"),
    ], ids=["config-cut", "config-latin1", "script-cut", "transcript-line3", "transcript-array",
            "dataset-latin1", "results-latin1"])
    def test_names_path_and_line(self, linear_repo, tmp_path, capsys, kind, content, where):
        rb, shas = linear_repo
        path = tmp_path / f"{kind}.json"
        path.write_bytes(content)
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]]}])
        investigate = ["investigate", "--repo", rb.path, "--fix", shas[2],
                       "--run-dir", str(tmp_path / "runs")]
        command = {
            "config": [*investigate, "--config", str(path)],
            "script": [*investigate, "--backend", f"scripted:{path}"],
            "transcript": ["replay", "--transcript", str(path), "--run-dir", str(tmp_path / "runs")],
            "dataset": ["evaluate", "--dataset", str(path), "--results", str(path)],
            "results": ["evaluate", "--dataset", ds, "--results", str(path)],
        }[kind]
        assert main(command) == 1
        assert capsys.readouterr().err == f"error: {path}:{where}\n"


class TestFailedCaseFlags:
    def test_desynced_case_counts_in_every_category(self, cross_file_repo, tmp_path, capsys):
        rb, info = cross_file_repo
        # The agent case fails: its repository is not there yet when batch runs.
        runs, clone = tmp_path / "runs", tmp_path / "clone"
        ds = write_dataset(tmp_path / "ds.jsonl",
                           [{"repo": str(clone), "fix_commit": info["fix"], "bics": [info["bic"]]}])
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": f"BIC: {info['bic']}"}])
        assert main(["batch", "--dataset", ds, "--backend", f"scripted:{script}",
                     "--run-dir", str(runs), "--run-id", "rep"]) == 0
        (failed,) = read_results(str(runs / "rep" / "results.jsonl"))[1]
        assert failed.error.startswith(f"{clone} is not a git repository")
        shutil.copytree(rb.path, clone)
        # The flags come from evaluate alone, never from a method's results line.
        (line,) = (runs / "rep" / "results.jsonl").read_text().splitlines()[1:]
        assert "category_flags" not in json.loads(line)
        b_path = str(tmp_path / "b.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", b_path]) == 0

        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--dataset", ds, "--out", reports, "--results",
                     str(runs / "rep" / "results.jsonl"), b_path]) == 3
        agent, baseline = (json.loads(Path(os.path.join(reports, f"{name}.report.json")).read_text())
                           for name in ("agent-scripted", "b-szz"))
        for category in ("ghost", "cross_file"):
            assert (agent["category_recall"][category]["n_cases"]
                    == baseline["category_recall"][category]["n_cases"])
        assert agent["category_recall"]["cross_file"]["n_cases"] == 1


class TestEvaluateCmd:
    def make_inputs(self, tmp_path, linear_repo):
        rb, shas = linear_repo
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [
                {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
                 "dataset_tag": "x", "case_id": "x:1"},
                {"repo": rb.path, "fix_commit": shas[1], "bics": [shas[0]],
                 "dataset_tag": "x", "case_id": "x:2"},
            ],
        )
        results = tmp_path / "res.jsonl"
        with open(results, "w") as f:
            f.write(json.dumps({"schema": "bictrace-results/v1", "method": "hand"}) + "\n")
            f.write(json.dumps({"case_id": "x:1", "predicted": [shas[1]]}) + "\n")
            f.write(json.dumps({"case_id": "x:2", "predicted": ["f" * 40]}) + "\n")
        return ds, str(results)

    def test_metrics_match_hand_computation(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        assert main(["evaluate", "--dataset", ds, "--results", results]) == 0
        out = capsys.readouterr().out
        assert "precision: 0.5000" in out
        assert "recall:    0.5000" in out
        assert "f1:        0.5000" in out

    def test_same_file_twice_identical_rows(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        assert main(["evaluate", "--dataset", ds, "--results", results, results]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [ln for ln in out if ln.startswith("hand")]
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_unknown_case_id_errors(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        with open(results, "a") as f:
            f.write(json.dumps({"case_id": "x:unknown", "predicted": []}) + "\n")
        assert main(["evaluate", "--dataset", ds, "--results", results]) == 1
        assert "x:unknown" in capsys.readouterr().err

    def test_report_files_emitted(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        out_dir = tmp_path / "reports"
        assert main(["evaluate", "--dataset", ds, "--results", results, "--out", str(out_dir)]) == 0
        text = (out_dir / "hand.report.json").read_text()
        report = json.loads(text)
        assert report["precision"] == 0.5
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert (out_dir / "hand.report.txt").read_text() == capsys.readouterr().out

    def test_infra_failed_case_gives_nonzero_exit(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        lines = Path(results).read_text().splitlines()
        broken = json.loads(lines[1])
        broken["error"] = "repository unavailable"
        with open(results, "w") as f:
            f.write("\n".join([lines[0], json.dumps(broken), lines[2]]) + "\n")
        assert main(["evaluate", "--dataset", ds, "--results", results]) == 3
        assert "infrastructure errors" in capsys.readouterr().err

    def test_partial_results_file_scores_missing_cases_as_misses(self, linear_repo, tmp_path,
                                                                 capsys):
        ds, _ = self.make_inputs(tmp_path, linear_repo)
        _, shas = linear_repo
        partial, full = tmp_path / "partial.jsonl", tmp_path / "full.jsonl"
        hit, miss = {"case_id": "x:1", "predicted": [shas[1]]}, {"case_id": "x:2", "predicted": []}
        for path, records in ((partial, [hit]), (full, [hit, miss])):
            path.write_text("".join(json.dumps(r) + "\n" for r in [
                {"schema": "bictrace-results/v1", "method": path.stem}, *records]))
        assert main(["evaluate", "--dataset", ds, "--results", str(partial), str(full)]) == 3
        out, err = capsys.readouterr()
        rows = [ln.split() for ln in out.splitlines()[1:]]
        assert rows == [["partial", "2", "1.0000", "0.5000", "0.6667"],
                        ["full", "2", "1.0000", "0.5000", "0.6667"]]
        assert err == f"{partial}: 0 case(s) carry infrastructure errors, 1 dataset case(s) missing\n"
        assert main(["evaluate", "--dataset", ds, "--results", str(partial)]) == 3
        assert "  missing: 1\n" in capsys.readouterr().out
        assert main(["evaluate", "--dataset", ds, "--results", str(full)]) == 0
        assert "missing" not in capsys.readouterr().out

    def test_old_category_flags_are_ignored(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        lines = Path(results).read_text().splitlines()
        old = [json.loads(ln) for ln in lines[1:]]
        for record in old:
            record["category_flags"] = {"ghost": True, "cross_file": True}
        Path(results).write_text("\n".join([lines[0], *map(json.dumps, old)]) + "\n")
        assert main(["evaluate", "--dataset", ds, "--results", results]) == 0
        out = capsys.readouterr().out
        # Neither linear fix is addition-only, and each BIC is in its file's history.
        assert "ghost: 0 cases" in out and "cross_file: 0 cases" in out

    def test_remote_repo_needs_repos_dir(self, tmp_path, capsys):
        rb = RepoBuilder(tmp_path / "clones" / "host" / "org" / "name")
        rb.commit({"m.c": "keep\nold line\n"}, "seed")
        bic = rb.commit({"m.c": "keep\nbuggy line\n"}, "introduce")
        fix = rb.commit({"m.c": "keep\nfixed line\n"}, "fix")
        ds = write_dataset(tmp_path / "ds.jsonl", [{"repo": "https://host/org/name.git",
                                                    "fix_commit": fix, "bics": [bic],
                                                    "case_id": "x:1"}])
        results = tmp_path / "res.jsonl"
        results.write_text(json.dumps({"schema": "bictrace-results/v1", "method": "hand"}) + "\n"
                           + json.dumps({"case_id": "x:1", "predicted": [bic]}) + "\n")
        assert main(["evaluate", "--dataset", ds, "--results", str(results)]) == 3
        assert "--repos-dir" in capsys.readouterr().err
        assert main(["evaluate", "--dataset", ds, "--results", str(results),
                     "--repos-dir", str(tmp_path / "clones")]) == 0
        assert capsys.readouterr().err == ""

    def test_config_not_an_object_is_an_error(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        config = tmp_path / "cfg.json"
        config.write_text("[]")
        assert main(["evaluate", "--dataset", ds, "--results", results,
                     "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("lines, bad", [
        (["[1]"], 1),
        (['{"schema": "bictrace-results/v1"}', '{"predicted": []}'], 2),
        (['{"schema": "bictrace-results/v1"}', '{"case_id": 1}'], 2),
        (['{"schema": "bictrace-results/v1"}', '{"case_id": "x:1"}', '"x:2"'], 3),
        (['{"schema": "bictrace-results/v1"}', '{"case_id": "x:1", "predicted": "a"}'], 2),
        (['{"schema": "bictrace-results/v1", "method": 5}', '{"case_id": "x:1"}'], 1),
        (['{"schema": "bictrace-results/v1"}', "{oops"], 2),
        (['{"schema": "bictrace-results/v1"}', '{"case_id": "x:1"}', '{"case_id": "x:1"}'], 3),
        (['{"schema": "bictrace-results/v1"}', '{"case_id": "x:1", "cost": []}'], 2),
        (['{"schema": "bictrace-results/v1"}', '{"case_id": "x:1", "cost": {"seconds": "5"}}'], 2),
        (['{"schema": "bictrace-results/v1"}', '{"case_id": "x:1", "cost": {"turns": true}}'], 2),
        (['{"schema": "bictrace-results/v1"}', '{"case_id": "x:1", "error": 5}'], 2),
        (['{"case_id": "x:1"}'], None),  # no results header
    ])
    def test_malformed_results_file_is_an_error(self, linear_repo, tmp_path, capsys, lines, bad):
        ds, _ = self.make_inputs(tmp_path, linear_repo)
        results = tmp_path / "bad.jsonl"
        results.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--dataset", ds, "--results", str(results)]) == 1
        where = f"{results}:{bad}: " if bad else f"{results} is not a bictrace-results/v1 file\n"
        assert capsys.readouterr().err.startswith(f"error: {where}")

    @pytest.mark.parametrize("settings, err", [
        ({"max_turn": 2}, "error: unknown config key(s): max_turn\n"),
        ({"max_turns": 2, "compression": {"tau": "x"}},
         "error: compression.tau must be >= 1, not 'x'\n"),
        ({"compression": {"line_caps": {"git_grep": 5}}},
         "error: unknown compression key(s): line_caps\n"),
    ])
    def test_config_is_read_as_every_command_reads_it(self, linear_repo, tmp_path, capsys,
                                                      settings, err):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(settings))
        assert main(["evaluate", "--dataset", ds, "--results", results,
                     "--config", str(config)]) == 1
        assert capsys.readouterr().err == err
        rb, shas = linear_repo
        assert main(["investigate", "--repo", rb.path, "--fix", shas[2],
                     "--config", str(config), "--run-dir", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == err

    def test_non_numeric_price_is_an_error(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"price_table": {"prompt_usd_per_1k": "x"}}))
        assert main(["evaluate", "--dataset", ds, "--results", results,
                     "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "price_table" in err

    def test_unknown_price_key_is_an_error(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"price_table": {"prompt_usd_per_1K": 0.25}}))
        assert main(["evaluate", "--dataset", ds, "--results", results,
                     "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: unknown price_table key(s): prompt_usd_per_1K\n")

    def test_repeated_method_names_a_report_by_its_path(self, linear_repo, tmp_path, capsys):
        ds, first = self.make_inputs(tmp_path, linear_repo)
        second = tmp_path / "second.jsonl"
        second.write_text(json.dumps({"schema": "bictrace-results/v1", "method": "hand"}) + "\n"
                          + json.dumps({"case_id": "x:1", "predicted": []}) + "\n"
                          + json.dumps({"case_id": "x:2", "predicted": []}) + "\n")
        out_dir = tmp_path / "reports"
        assert main(["evaluate", "--dataset", ds, "--results", first, str(second),
                     "--out", str(out_dir)]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [[f"hand:{first}", "2", "0.5000", "0.5000", "0.5000"],
                        [f"hand:{second}", "2", "0.0000", "0.0000", "0.0000"]]
        reports = {json.loads(p.read_text())["name"]: json.loads(p.read_text())["recall"]
                   for p in out_dir.glob("*.report.json")}
        assert reports == {f"hand:{first}": 0.5, f"hand:{second}": 0.0}

    def test_report_names_that_share_a_file_name_are_an_error(self, linear_repo, tmp_path,
                                                              capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        (tmp_path / "a").mkdir()
        nested, flat = tmp_path / "a" / "b.jsonl", tmp_path / "a_b.jsonl"
        for path in (nested, flat):
            path.write_text(Path(results).read_text())
        out_dir = tmp_path / "reports"
        assert main(["evaluate", "--dataset", ds, "--results", str(nested), str(flat),
                     "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: reports hand:{nested} and hand:{flat} would share the file name "
            f"{cli._safe_name(f'hand:{flat}')}\n")
        assert not out_dir.exists()

    def test_empty_method_names_a_report_by_its_path(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        lines = Path(results).read_text().splitlines()
        Path(results).write_text("\n".join(['{"schema": "bictrace-results/v1", "method": ""}',
                                            *lines[1:]]) + "\n")
        assert main(["evaluate", "--dataset", ds, "--results", results]) == 0
        assert capsys.readouterr().out.startswith(f"Report: {results} (2 cases)\n")

    def test_boolean_price_is_an_error(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"price_table": {"prompt_usd_per_1k": True}}))
        assert main(["evaluate", "--dataset", ds, "--results", results,
                     "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "price_table" in err


class TestToolCmd:
    def test_blame_compressed_golden(self, linear_repo, capsys):
        rb, shas = linear_repo
        code = main(
            [
                "tool", "git_blame", "--repo", rb.path, "--fix", shas[2],
                "--args", json.dumps({"file_path": "a.c"}),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # Pre-fix state: line 2 still carries the off-by-one from c2.
        assert f"L1: {shas[0][:12]} | int add(int a, int b) {{" in out
        assert f"L2: {shas[1][:12]} |   return a + b + 1;" in out
        assert "Commits:" in out

    def test_grep_truncation_notice(self, tmp_path, capsys):
        from repo_helpers import RepoBuilder

        rb = RepoBuilder(tmp_path / "greppy")
        content = "".join(f"needle line {i}\n" for i in range(300))
        rb.commit({"big.txt": content}, "seed")
        rb.commit({"extra.txt": "unrelated\n"}, "head")
        code = main(
            [
                "tool", "git_grep", "--repo", rb.path, "--fix", "HEAD",
                "--args", json.dumps({"search_string": "needle"}),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[output truncated" in out

    def test_root_fix_rejected(self, linear_repo, capsys):
        rb, shas = linear_repo
        code = main(
            [
                "tool", "git_grep", "--repo", rb.path, "--fix", shas[0],
                "--args", json.dumps({"search_string": "add"}),
            ]
        )
        assert code == 1
        assert "has no parent" in capsys.readouterr().err

    @pytest.mark.parametrize("tool, args, err", [
        ("git_push", "{}", "error: unknown tool 'git_push'; choose from "
                           "git_show, git_blame, git_log_s, git_log_func, git_grep\n"),
        ("git_show", "{oops", "error: --args is not valid JSON: "
                              "Expecting property name enclosed in double quotes: "
                              "line 1 column 2 (char 1)\n"),
    ])
    def test_bad_tool_or_args_is_one_error_line(self, linear_repo, capsys, tool, args, err):
        rb, _ = linear_repo
        assert main(["tool", tool, "--repo", rb.path, "--args", args]) == 1
        assert capsys.readouterr() == ("", err)

    def test_missing_required_arg_schema_text(self, linear_repo, capsys):
        rb, _ = linear_repo
        code = main(["tool", "git_blame", "--repo", rb.path, "--args", "{}"])
        out = capsys.readouterr().out
        assert code == 2
        assert "Error (schema)" in out
        assert "file_path" in out

    @pytest.mark.parametrize("tool, args", [
        ("git_show", {"commit": "--output={target}"}),
        ("git_blame", {"file_path": "a.c", "commit": "--contents={secret}"}),
        ("git_grep", {"search_string": "add", "commit": "--open-files-in-pager=touch {target}"}),
    ])
    def test_commit_is_never_an_option(self, linear_repo, tmp_path, capsys, tool, args):
        rb, shas = linear_repo
        target, secret = tmp_path / "injected.txt", tmp_path / "secret.txt"
        secret.write_text("host secret\n")
        args = {k: v.format(target=target, secret=secret) for k, v in args.items()}
        for raw in ([], ["--raw"]):
            code = main(["tool", tool, "--repo", rb.path, "--fix", shas[2],
                         "--args", json.dumps(args), *raw])
            assert code == 2
            assert capsys.readouterr().out == f"Error (schema): {tool}: commit must not start with '-'\n"
            assert not target.exists()

    def test_show_lines_end_at_newline_only(self, tmp_path, capsys):
        rb = RepoBuilder(tmp_path / "controls")
        rb.commit({"f.txt": "a\nb\x0cc\nd\ne\rf\ng\n"}, "seed")
        rb.commit({"f.txt": "a\nd\ng\n"}, "fix")
        assert main(["tool", "git_show", "--repo", rb.path, "--args", '{"commit": "HEAD"}']) == 0
        out = capsys.readouterr().out
        assert out.split("\n")[-7:] == ["@@ -1,5 +1,3 @@", " a", "-b\x0cc", " d", "-e\rf", " g", ""]

    def test_raw_mode_differs_above_tau(self, tmp_path, capsys):
        from repo_helpers import RepoBuilder

        rb = RepoBuilder(tmp_path / "rawdiff")
        big = "".join(f"padline {i} {'x' * 60}\n" for i in range(120))
        rb.commit({"f.txt": "start\n"}, "seed")
        rb.commit({"f.txt": big}, "big rewrite")
        args = json.dumps({"commit": "HEAD"})
        assert main(["tool", "git_show", "--repo", rb.path, "--args", args, "--raw"]) == 0
        raw_out = capsys.readouterr().out
        assert main(["tool", "git_show", "--repo", rb.path, "--args", args]) == 0
        compressed = capsys.readouterr().out
        assert len(compressed) < len(raw_out)
        assert "padline 0" not in compressed or "[output truncated" in compressed

    def test_config_compression_matches_the_investigation(self, tmp_path, capsys):
        rb = RepoBuilder(tmp_path / "capped")
        rb.commit({"f.txt": "".join(f"needle {i}\n" for i in range(30))}, "seed")
        rb.commit({"g.txt": "fix\n"}, "fix")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"compression": {"tau": 200}}))
        args = {"search_string": "needle"}
        script = write_script(tmp_path / "s.json", [
            {"kind": "tool_call", "tool": "git_grep", "args": args},
            {"kind": "final", "text": "BIC: none"},
        ])
        assert main(["investigate", "--repo", rb.path, "--fix", "HEAD", "--tag", "t",
                     "--backend", f"scripted:{script}", "--config", str(config),
                     "--run-dir", str(tmp_path / "runs"), "--run-id", "r"]) == 0
        transcript = capsys.readouterr().out.splitlines()[-1].split(": ", 1)[1]
        with open(transcript) as f:
            seen = next(r["text"] for r in map(json.loads, f) if r.get("event") == "observation")
        code = main(["tool", "git_grep", "--repo", rb.path, "--args", json.dumps(args),
                     "--config", str(config)])
        assert code == 0
        assert capsys.readouterr().out == seen + "\n"
        assert seen.endswith(compress._CLAMP_NOTICE) and len(seen) <= 200 + compress.MAX_OBS_OVERHEAD

    def test_invalid_config_is_an_error(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"compression": {"tau": "abc"}}))
        code = main(["tool", "git_grep", "--repo", rb.path, "--fix", shas[2],
                     "--args", json.dumps({"search_string": "add"}), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_raw_mode_bounded_by_fix_date(self, tmp_path, capsys):
        rb = RepoBuilder(tmp_path / "later")
        rb.commit({"f.txt": "early\n"}, "seed")
        fix = rb.commit({"f.txt": "fixed\n"}, "fix")
        rb.commit({"f.txt": "fixed\nLATER\n"}, "add LATER after the fix",
                  date=rb.next_date() + 2 * 86400)
        args = json.dumps({"search_string": "LATER"})
        for extra in ([], ["--raw"]):
            code = main(["tool", "git_log_s", "--repo", rb.path, "--fix", fix, "--args", args, *extra])
            assert code == 0
            assert "after the fix" not in capsys.readouterr().out

    @pytest.mark.parametrize("tool, args", [
        ("git_show", {"commit": "deadbeef"}),
        ("git_blame", {"file_path": "nope.c"}),
    ])
    def test_raw_mode_prints_the_same_tool_error(self, linear_repo, capsys, tool, args):
        rb, shas = linear_repo
        outputs = []
        for extra in ([], ["--raw"]):
            code = main(["tool", tool, "--repo", rb.path, "--fix", shas[2],
                         "--args", json.dumps(args), *extra])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("Error (")

    def test_raw_mode_reports_malformed_porcelain(self, linear_repo, capsys, monkeypatch):
        from bictrace import tools

        rb, shas = linear_repo
        monkeypatch.setattr(tools, "execute_raw", lambda *a: "not porcelain\n")
        code = main(["tool", "git_blame", "--repo", rb.path, "--fix", shas[2],
                     "--args", json.dumps({"file_path": "a.c"}), "--raw"])
        assert code == 0
        assert capsys.readouterr().out.startswith("Error (malformed_output): ")


class TestConfigPrecedence:
    def _namespace(self, **overrides):
        import argparse

        base = dict(config=None, backend=None, model=None, endpoint_url=None,
                    max_turns=None, parallelism=None, run_dir=None, run_id=None)
        base.update(overrides)
        return argparse.Namespace(**base)

    def test_flags_beat_env_beat_file(self, tmp_path, monkeypatch):
        from bictrace.cli import build_run_config

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": "file-model", "max_turns": 9}))
        monkeypatch.setenv("BICTRACE_MODEL", "env-model")

        from_file = build_run_config(self._namespace(config=str(cfg_file)))
        assert from_file.model == "env-model"  # env over file
        assert from_file.max_turns == 9  # file over default

        from_flags = build_run_config(
            self._namespace(config=str(cfg_file), model="flag-model", max_turns=4)
        )
        assert from_flags.model == "flag-model"
        assert from_flags.max_turns == 4

    def test_invalid_file_values_rejected(self, tmp_path):
        from bictrace.cli import build_run_config

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"max_turns": 0}))
        with pytest.raises(ValueError):
            build_run_config(self._namespace(config=str(cfg_file)))

    def test_unknown_file_keys_are_errors(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        # A misspelt key, one that is read only inside "compression", and one an older version read.
        for data, named in (({"max_turn": 2}, "max_turn"), ({"tau": 5}, "tau"),
                            ({"forced_answer": False, "max_turns": 9}, "forced_answer")):
            cfg_file.write_text(json.dumps(data))
            with pytest.raises(ValueError, match=rf"^unknown config key\(s\): {named}$"):
                build_run_config(self._namespace(config=str(cfg_file)))
        assert main(["batch", "--dataset", "unread.jsonl", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == "error: unknown config key(s): forced_answer\n"
        # evaluate's price_table may share the file.
        cfg_file.write_text(json.dumps({"max_turns": 9, "price_table": {"prompt_usd_per_1k": 1}}))
        assert build_run_config(self._namespace(config=str(cfg_file))).max_turns == 9

    def test_compression_overrides_from_file(self, tmp_path):
        from bictrace.cli import build_run_config

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"compression": {"tau": 1234}}))
        assert build_run_config(self._namespace(config=str(cfg_file))).tau == 1234

    @pytest.mark.parametrize("settings, tau", [({}, 3000), ({"compression": {"tau": 1234}}, 1234)])
    def test_run_records_the_tau_it_used(self, linear_repo, tmp_path, settings, tau):
        rb, shas = linear_repo
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": "no answer"}])
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(settings))
        assert main(["investigate", "--repo", rb.path, "--fix", shas[2], "--backend",
                     f"scripted:{script}", "--config", str(cfg_file),
                     "--run-dir", str(tmp_path / "runs"), "--run-id", "r"]) == 0
        config = json.loads((tmp_path / "runs" / "r" / "config.json").read_text())
        assert config["compression"] == {"tau": tau}


class TestFetchDatasets:
    def test_local_paths_verified(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
              "dataset_tag": "x", "case_id": "x:1"}],
        )
        assert main(["fetch-datasets", "--dataset", ds, "--dest", str(tmp_path / "repos")]) == 0

    def test_file_url_clones_offline_for_baseline(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        url = Path(rb.path).as_uri()
        ds = write_dataset(tmp_path / "ds.jsonl", [{"repo": url, "fix_commit": shas[2],
                                                    "bics": [shas[1]], "case_id": "x:1"}])
        dest = tmp_path / "repos"
        # A file URL has no host: its clone is <dest>/<path>.
        target = dest / Path(rb.path).relative_to("/")
        assert main(["fetch-datasets", "--dataset", ds, "--dest", str(dest)]) == 0
        assert capsys.readouterr().out == f"cloning {url} -> {target}\n"
        assert main(["fetch-datasets", "--dataset", ds, "--dest", str(dest)]) == 0
        assert capsys.readouterr().out == f"exists: {target}\n"
        out_path = str(tmp_path / "b.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out_path,
                     "--repos-dir", str(dest)]) == 0
        _, (result,) = read_results(out_path)
        assert (result.error, result.predicted) == (None, [shas[1]])

    def test_repeated_url_is_cloned_once_and_a_failed_clone_exits_1(self, linear_repo, tmp_path,
                                                                    capfd):
        rb, shas = linear_repo
        url, absent = Path(rb.path).as_uri(), (tmp_path / "absent").as_uri()
        # Another spelling of the same URL is the same repository.
        ds = write_dataset(tmp_path / "ds.jsonl", [
            {"repo": repo, "fix_commit": shas[2], "bics": [shas[1]], "case_id": f"x:{i}"}
            for i, repo in enumerate([url, url, url + ".git/", absent])
        ])
        dest = tmp_path / "repos"
        assert main(["fetch-datasets", "--dataset", ds, "--dest", str(dest)]) == 1
        out, err = capfd.readouterr()
        clone, missing = (dest / Path(path).relative_to("/") for path in (rb.path, tmp_path / "absent"))
        assert out == f"cloning {url} -> {clone}\ncloning {absent} -> {missing}\n"
        assert err.startswith("fatal: ")
        assert (clone / ".git").is_dir() and not missing.exists()

    @pytest.mark.parametrize("command", ["fetch-datasets", "baseline"])
    def test_a_clone_of_another_repository_is_refused(self, tmp_path, capsys, command):
        # Two forks named repo: the one fetched second gets its own clone and its own BIC.
        datasets, clones, bics = [], [], []
        for fork in ("a", "b"):
            rb = RepoBuilder(tmp_path / fork / "repo")
            bics.append(rb.commit({"m.c": f"{fork}\nbug\n"}, "seed"))
            fix = rb.commit({"m.c": f"{fork}\n"}, "fix")
            clones.append(tmp_path / "repos" / Path(rb.path).relative_to("/"))
            datasets.append(write_dataset(tmp_path / f"{fork}.jsonl", [
                {"repo": Path(rb.path).as_uri(), "fix_commit": fix, "bics": [bics[-1]],
                 "case_id": "x:1"}]))
        dest, out = tmp_path / "repos", tmp_path / "results.jsonl"
        assert main(["fetch-datasets", "--dataset", datasets[0], "--dest", str(dest)]) == 0
        assert main(["fetch-datasets", "--dataset", datasets[1], "--dest", str(dest)]) == 0
        if command == "fetch-datasets":
            assert capsys.readouterr().out.splitlines()[-1].endswith(f" -> {clones[1]}")
            assert [(clone / "m.c").read_text() for clone in clones] == ["a\n", "b\n"]
        else:
            assert main(["baseline", "--algorithm", "b", "--dataset", datasets[1],
                         "--repos-dir", str(dest), "--out", str(out)]) == 0
            _, (result,) = read_results(str(out))
            assert (result.error, result.predicted) == (None, [bics[1]]) and bics[0] != bics[1]

    @pytest.mark.parametrize("command", ["fetch-datasets", "batch", "baseline", "evaluate"])
    def test_a_url_that_names_no_clone_directory_is_refused(self, linear_repo, tmp_path,
                                                            capsys, monkeypatch, command):
        rb, shas = linear_repo
        spawned = []
        monkeypatch.setattr(gitio, "_spawn", lambda *a: spawned.append(a))
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: spawned.append(a))
        repos, runs, out = tmp_path / "repos", tmp_path / "runs", tmp_path / "b.jsonl"
        for url in ["https://host/org/..", "https://host/", "git@host:org/./repo", "file:///"]:
            ds = write_dataset(tmp_path / "ds.jsonl", [
                {"repo": repo, "fix_commit": shas[2], "bics": [shas[1]], "case_id": f"x:{i}"}
                for i, repo in enumerate([rb.path, url])])
            assert main({
                "fetch-datasets": ["fetch-datasets", "--dataset", ds, "--dest", str(repos)],
                "batch": ["batch", "--dataset", ds, "--repos-dir", str(repos), "--run-dir", str(runs)],
                "baseline": ["baseline", "--algorithm", "b", "--dataset", ds,
                             "--repos-dir", str(repos), "--out", str(out)],
                "evaluate": ["evaluate", "--dataset", ds, "--repos-dir", str(repos),
                             "--results", str(out)],
            }[command]) == 1
            assert capsys.readouterr() == ("", f"error: {ds}:3: repo {url} names no clone directory\n")
        assert spawned == [] and not repos.exists() and not runs.exists() and not out.exists()

    def test_only_git_clone_runs_outside_the_gateway(self, linear_repo, tmp_path, monkeypatch,
                                                     capsys):
        rb, shas = linear_repo
        ds = write_dataset(tmp_path / "ds.jsonl", [{"repo": Path(rb.path).as_uri(),
                                                    "fix_commit": shas[2], "bics": [shas[1]],
                                                    "case_id": "x:1"}])
        script = write_script(tmp_path / "s.json", [
            {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "a.c"}},
            {"kind": "final", "text": f"BIC: {shas[1]}"}])
        repos, runs = str(tmp_path / "repos"), str(tmp_path / "runs")
        assert main(["fetch-datasets", "--dataset", ds, "--dest", repos]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError(f"subprocess.run{args}")

        monkeypatch.setattr(subprocess, "run", refuse)
        assert main(["batch", "--dataset", ds, "--repos-dir", repos, "--run-dir", runs,
                     "--run-id", "r", "--backend", f"scripted:{script}"]) == 0
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--repos-dir", repos,
                     "--out", str(tmp_path / "b.jsonl")]) == 0
        for results in (os.path.join(runs, "r", "results.jsonl"), str(tmp_path / "b.jsonl")):
            assert main(["evaluate", "--dataset", ds, "--repos-dir", repos,
                         "--results", results]) == 0
            assert "recall:    1.0000" in capsys.readouterr().out

    def test_failed_clone_leaves_no_directories(self, tmp_path, capfd):
        absent = tmp_path / "nowhere" / "absent"
        ds = write_dataset(tmp_path / "ds.jsonl", [
            {"repo": absent.as_uri(), "fix_commit": "a" * 40, "bics": ["b" * 40]}])
        dest = tmp_path / "repos"
        (dest / "other").mkdir(parents=True)
        assert main(["fetch-datasets", "--dataset", ds, "--dest", str(dest)]) == 1
        assert capfd.readouterr().err.startswith("fatal: ")
        assert [path.relative_to(dest) for path in dest.rglob("*")] == [Path("other")]

    def test_missing_local_path_fails(self, tmp_path, capsys):
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": str(tmp_path / "nope"), "fix_commit": "a" * 40, "bics": ["b" * 40],
              "dataset_tag": "x", "case_id": "x:1"}],
        )
        assert main(["fetch-datasets", "--dataset", ds, "--dest", str(tmp_path / "repos")]) == 1


class TestSharedCloneDirectory:
    @pytest.mark.parametrize("command", ["fetch-datasets", "batch", "baseline", "evaluate"])
    def test_repos_that_map_to_one_clone_are_refused(self, tmp_path, capsys, command):
        # Forks share a name: two repositories named repo run side by side, each on its own
        # clone. Fixture dates are pinned, so both share the seed and the BIC, but each fix
        # exists only in its own fork.
        rows, clones = [], []
        for fork in ("a", "b"):
            rb = RepoBuilder(tmp_path / fork / "repo")
            rb.commit({"m.c": "keep\nold line\n"}, "seed")
            bic = rb.commit({"m.c": "keep\nbuggy line\n"}, "introduce")
            fix = rb.commit({"m.c": f"keep\n{fork} fixed line\n"}, "fix")
            clones.append(tmp_path / "repos" / Path(rb.path).relative_to("/"))
            rows.append({"repo": Path(rb.path).as_uri(), "fix_commit": fix, "bics": [bic],
                         "case_id": f"{fork}:1"})
        ds = write_dataset(tmp_path / "ds.jsonl", rows)
        repos, out = tmp_path / "repos", tmp_path / "b.jsonl"
        script = write_script(tmp_path / "s.json", [{"kind": "final", "text": f"BIC: {bic}"}])
        baseline = ["baseline", "--algorithm", "b", "--dataset", ds, "--repos-dir", str(repos),
                    "--out", str(out)]
        fetch = ["fetch-datasets", "--dataset", ds, "--dest", str(repos)]
        if command != "fetch-datasets":
            assert main(fetch) == 0
        if command == "evaluate":
            assert main(baseline) == 0
        capsys.readouterr()
        assert main({
            "fetch-datasets": fetch,
            "batch": ["batch", "--dataset", ds, "--repos-dir", str(repos), "--run-dir",
                      str(tmp_path / "runs"), "--run-id", "r", "--backend", f"scripted:{script}"],
            "baseline": baseline,
            "evaluate": ["evaluate", "--dataset", ds, "--repos-dir", str(repos), "--results", str(out)],
        }[command]) == 0
        if command == "fetch-datasets":
            assert [(clone / "m.c").read_text() for clone in clones] == [
                "keep\na fixed line\n", "keep\nb fixed line\n"]
        elif command == "evaluate":
            assert "recall:    1.0000" in capsys.readouterr().out
        else:
            _, results = read_results(str(tmp_path / "runs" / "r" / "results.jsonl")
                                      if command == "batch" else str(out))
            assert [(r.case_id, r.error, r.predicted) for r in results] == [
                ("a:1", None, [bic]), ("b:1", None, [bic])]


class TestReadOnly:
    def test_cli_sequence_leaves_repo_untouched(self, cross_file_repo, tmp_path, capsys):
        rb, info = cross_file_repo
        before = object_set_digest(rb.path)
        script = write_script(
            tmp_path / "s.json",
            [
                {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "driver/hotplug.c"}},
                {"kind": "tool_call", "tool": "git_log_s", "args": {"search_string": "core_alloc_event"}},
                {"kind": "final", "text": f"BIC: {info['bic']}"},
            ],
        )
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": rb.path, "fix_commit": info["fix"], "bics": [info["bic"]],
              "dataset_tag": "x", "case_id": "x:1"}],
        )
        main(["investigate", "--repo", rb.path, "--fix", info["fix"],
              "--backend", f"scripted:{script}", "--run-dir", str(tmp_path / "runs")])
        main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", str(tmp_path / "b.jsonl")])
        main(["tool", "git_grep", "--repo", rb.path, "--fix", info["fix"],
              "--args", json.dumps({"search_string": "dispatch"})])
        capsys.readouterr()
        assert object_set_digest(rb.path) == before


# Runs in a fresh interpreter: the test process imports requests for the live-backend tests.
OFFLINE_CHILD = """
import json, sys
from bictrace.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "requests_loaded": "requests" in sys.modules}))
"""


class TestOfflineImports:
    def test_offline_commands_never_load_requests(self, linear_repo, tmp_path):
        rb, shas = linear_repo
        script = write_script(tmp_path / "s.json", [
            {"kind": "tool_call", "tool": "git_blame", "args": {"file_path": "a.c"}},
            {"kind": "final", "text": f"BIC: {shas[1]}\nConfidence: high\nReasoning: r"},
        ])
        ds = write_dataset(tmp_path / "ds.jsonl", [
            {"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
             "dataset_tag": "x", "case_id": "x:1"},
        ])
        runs, results = str(tmp_path / "runs"), str(tmp_path / "b.jsonl")
        transcript = os.path.join(runs, "r1", "transcripts", f"t_{shas[2][:12]}.jsonl")
        commands = [
            ["investigate", "--repo", rb.path, "--fix", shas[2], "--tag", "t",
             "--backend", f"scripted:{script}", "--run-dir", runs, "--run-id", "r1"],
            ["replay", "--transcript", transcript, "--run-dir", runs, "--run-id", "r2"],
            ["baseline", "--algorithm", "b", "--dataset", ds, "--out", results],
            ["evaluate", "--dataset", ds, "--results", results],
            ["tool", "git_show", "--repo", rb.path, "--fix", shas[2],
             "--args", json.dumps({"commit": shas[1]})],
        ]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", OFFLINE_CHILD, json.dumps(commands)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report == {"codes": [0] * len(commands), "requests_loaded": False}
