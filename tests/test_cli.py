"""End-to-end CLI behavior over the fixture repositories."""

import json
import os

import pytest

from oracle import AttributionOracle
from repo_helpers import RepoBuilder, object_set_digest

from bictrace.cli import main
from bictrace.evaluate import read_results


def write_script(path, steps, repeat_last=False):
    with open(path, "w") as f:
        json.dump({"steps": steps, "repeat_last": repeat_last}, f)
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
        case = json.load(open(runs / "priced" / "cases" / "x_1.json"))
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
        report = json.load(open(reports / "agent-scripted.report.json"))
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
        assert results[0].category_flags == {"ghost": False, "cross_file": True}

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
        rb = RepoBuilder(tmp_path / "clones" / "name")
        rb.commit({"m.c": "keep\nold line\n"}, "seed")
        bic = rb.commit({"m.c": "keep\nbuggy line\n"}, "introduce")
        fix = rb.commit({"m.c": "keep\nfixed line\n"}, "fix")
        urls = ["https://host/org/name.git", "git@host:org/name.git"]
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

    def test_empty_dataset(self, tmp_path, capsys):
        ds = write_dataset(tmp_path / "empty.jsonl", [])
        out_path = str(tmp_path / "out.jsonl")
        assert main(["baseline", "--algorithm", "b", "--dataset", ds, "--out", out_path]) == 0
        _, results = read_results(out_path)
        assert results == []

    def test_bad_case_recorded_run_continues(self, linear_repo, tmp_path):
        rb, shas = linear_repo
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [
                {"repo": rb.path, "fix_commit": "deadbeef" * 5, "bics": ["x" * 40],
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

    def test_report_files_emitted(self, linear_repo, tmp_path):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        out_dir = str(tmp_path / "reports")
        assert main(["evaluate", "--dataset", ds, "--results", results, "--out", out_dir]) == 0
        report = json.load(open(os.path.join(out_dir, "hand.report.json")))
        assert report["precision"] == 0.5

    def test_infra_failed_case_gives_nonzero_exit(self, linear_repo, tmp_path, capsys):
        ds, results = self.make_inputs(tmp_path, linear_repo)
        lines = open(results).read().splitlines()
        broken = json.loads(lines[1])
        broken["error"] = "repository unavailable"
        with open(results, "w") as f:
            f.write("\n".join([lines[0], json.dumps(broken), lines[2]]) + "\n")
        assert main(["evaluate", "--dataset", ds, "--results", results]) == 3
        assert "infrastructure errors" in capsys.readouterr().err


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

    def test_missing_required_arg_schema_text(self, linear_repo, capsys):
        rb, _ = linear_repo
        code = main(["tool", "git_blame", "--repo", rb.path, "--args", "{}"])
        out = capsys.readouterr().out
        assert code == 2
        assert "Error (schema)" in out
        assert "file_path" in out

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

    def test_compression_overrides_from_file(self, tmp_path):
        from bictrace.cli import build_run_config

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"compression": {"tau": 1234, "line_caps": {"git_grep": 7}}}))
        cfg = build_run_config(self._namespace(config=str(cfg_file)))
        from bictrace.tools import ToolName

        assert cfg.compression.tau == 1234
        assert cfg.compression.line_caps[ToolName.GREP] == 7


class TestFetchDatasets:
    def test_local_paths_verified(self, linear_repo, tmp_path, capsys):
        rb, shas = linear_repo
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": rb.path, "fix_commit": shas[2], "bics": [shas[1]],
              "dataset_tag": "x", "case_id": "x:1"}],
        )
        assert main(["fetch-datasets", "--dataset", ds, "--dest", str(tmp_path / "repos")]) == 0

    def test_missing_local_path_fails(self, tmp_path, capsys):
        ds = write_dataset(
            tmp_path / "ds.jsonl",
            [{"repo": str(tmp_path / "nope"), "fix_commit": "a" * 40, "bics": ["b" * 40],
              "dataset_tag": "x", "case_id": "x:1"}],
        )
        assert main(["fetch-datasets", "--dataset", ds, "--dest", str(tmp_path / "repos")]) == 1


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
