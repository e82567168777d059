"""Tool schemas, argument validation, bound enforcement, git execution."""

import json
from datetime import datetime

import pytest

from repo_helpers import BASE_EPOCH, RepoBuilder

from bictrace import tools
from bictrace.compress import parse_blame_porcelain
from bictrace.gitio import GitStatus, RepoHandle, run_git
from bictrace.tools import (
    BlameArgs,
    GrepArgs,
    LogFuncArgs,
    LogSArgs,
    SchemaError,
    ShowArgs,
    ToolError,
    ToolName,
    enforce_search_bound,
    parse_args,
    parse_date,
    tool_schemas,
)


class TestSchemas:
    def test_five_tools(self):
        schemas = tool_schemas()
        assert len(schemas) == 5
        assert {s.name for s in schemas} == set(ToolName)

    def test_blame_required_fields(self):
        blame = next(s for s in tool_schemas() if s.name is ToolName.BLAME)
        assert blame.parameter_spec["file_path"]["required"] is True
        assert blame.parameter_spec["commit"]["required"] is False

    def test_required_markers_match_contract(self):
        required = {
            ToolName.SHOW: {"commit"},
            ToolName.BLAME: {"file_path"},
            ToolName.LOG_S: {"search_string"},
            ToolName.LOG_FUNC: {"function_name", "file_path"},
            ToolName.GREP: {"search_string"},
        }
        for schema in tool_schemas():
            marked = {p for p, s in schema.parameter_spec.items() if s["required"]}
            assert marked == required[schema.name]

    def test_wire_round_trip(self):
        for schema in tool_schemas():
            fn = json.loads(json.dumps(schema.as_wire()))["function"]
            spec = tools._PARAM_SPECS[schema.name]
            assert fn["name"] == schema.name.value
            assert fn["parameters"]["type"] == "object"
            props = fn["parameters"]["properties"]
            assert list(props) == list(spec)
            assert {p: props[p]["type"] for p in props} == {p: s[0] for p, s in spec.items()}
            assert fn["parameters"]["required"] == [p for p, s in spec.items() if s[1]]


class TestParseArgs:
    def test_ok(self):
        args = parse_args(ToolName.BLAME, {"file_path": "a.c", "line_start": 2, "line_end": 5})
        assert args == BlameArgs(file_path="a.c", line_start=2, line_end=5)

    def test_missing_required(self):
        with pytest.raises(SchemaError, match="file_path"):
            parse_args(ToolName.BLAME, {"commit": "HEAD"})

    def test_unknown_param(self):
        with pytest.raises(SchemaError, match="unknown parameter"):
            parse_args(ToolName.SHOW, {"commit": "HEAD", "color": True})

    def test_line_range_order(self):
        with pytest.raises(SchemaError, match="line_start"):
            parse_args(ToolName.BLAME, {"file_path": "a.c", "line_start": 9, "line_end": 2})

    def test_type_errors(self):
        with pytest.raises(SchemaError, match="type"):
            parse_args(ToolName.SHOW, {"commit": 7})
        with pytest.raises(SchemaError, match="type"):
            parse_args(ToolName.SHOW, {"commit": "HEAD", "context_lines": "three"})

    def test_bad_date(self):
        with pytest.raises(SchemaError, match="unparseable date"):
            parse_args(ToolName.LOG_S, {"search_string": "x", "before": "soonish"})


class TestDates:
    def test_date_only_normalization(self):
        start = parse_date("2020-03-05", end_of_day=False)
        end = parse_date("2020-03-05", end_of_day=True)
        assert end - start == 86399

    def test_datetime_passthrough(self):
        assert parse_date("2020-01-01T00:00:00+00:00", end_of_day=True) == BASE_EPOCH

    def test_epoch_form(self):
        assert parse_date("@12345", end_of_day=False) == 12345

    def test_zulu_suffix(self, monkeypatch):
        assert parse_date("2020-01-02T03:04:05Z", end_of_day=False) == 1577934245

        # Python 3.10's fromisoformat rejects a trailing Z.
        class StrictDatetime(datetime):
            @classmethod
            def fromisoformat(cls, text):
                if text.endswith("Z"):
                    raise ValueError(f"Invalid isoformat string: {text!r}")
                return datetime.fromisoformat(text)

        monkeypatch.setattr(tools, "datetime", StrictDatetime)
        assert parse_date("2020-01-02T03:04:05Z", end_of_day=True) == 1577934245
        with pytest.raises(SchemaError, match="unparseable date: 'soonZ'"):
            parse_date("soonZ", end_of_day=False)


class TestSearchBound:
    FIX = BASE_EPOCH + 10 * 86400

    def test_late_before_capped(self):
        args = LogSArgs(search_string="x", before=f"@{self.FIX + 86400}")
        assert enforce_search_bound(args, self.FIX).before == f"@{self.FIX}"

    def test_absent_before_filled(self):
        args = LogFuncArgs(function_name="f", file_path="a.c")
        assert enforce_search_bound(args, self.FIX).before == f"@{self.FIX}"

    def test_early_before_kept(self):
        args = LogSArgs(search_string="x", before=f"@{self.FIX - 86400}")
        assert enforce_search_bound(args, self.FIX) is args

    def test_non_temporal_tools_unchanged(self):
        for args in (
            GrepArgs(search_string="x"),
            ShowArgs(commit="HEAD"),
            BlameArgs(file_path="a.c"),
        ):
            assert enforce_search_bound(args, self.FIX) is args


@pytest.fixture
def toolbox_repo(tmp_path):
    """Repository exercising every tool: two-file commits, planted symbols."""
    rb = RepoBuilder(tmp_path / "toolbox")
    c1 = rb.commit(
        {
            "a.c": "int alpha(void) {\n  return 1;\n}\n",
            "b.c": "int beta(void) {\n  return 2;\n}\n",
        },
        "add alpha and beta",
    )
    c2 = rb.commit(
        {
            "a.c": "int alpha(void) {\n  return foo_bar();\n}\n",
            "b.c": "int beta(void) {\n  return 2 + foo_bar();\n}\n",
            "c.c": "int gamma(void) {\n  return foo_bar();\n}\n",
        },
        "route everything through foo_bar",
    )
    c3 = rb.commit(
        {"a.c": "int alpha(void) {\n  return foo_bar() + 1;\n}\n"},
        "alpha: adjust result",
    )
    return rb, [c1, c2, c3]


class TestExec:
    def test_show_file_filter(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_show(repo, ShowArgs(commit=shas[1], file_filter="a.c"))
        assert "a.c" in text
        assert "b.c" not in text

    def test_show_stat_only(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_show(repo, ShowArgs(commit=shas[1], stat_only=True))
        body = text.split("\n\n")[-1]
        assert not any(ln.startswith(("+", "-")) for ln in body.splitlines())
        assert any("a.c" in ln and "\t" in ln for ln in body.splitlines())

    def test_show_unknown_commit(self, toolbox_repo):
        rb, _ = toolbox_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(ToolError) as err:
            tools.exec_git_show(repo, ShowArgs(commit="deadbeef" * 5))
        assert err.value.kind == "commit_not_found"

    def test_blame_line_range_attribution(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_blame(
            repo, BlameArgs(file_path="a.c", commit=shas[2], line_start=2, line_end=2), shas[2]
        )
        assert text.splitlines()[0].startswith(shas[2])

    def test_blame_defaults_to_given_commit(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        explicit = tools.exec_git_blame(
            repo, BlameArgs(file_path="a.c", commit=shas[1]), shas[0]
        )
        defaulted = tools.exec_git_blame(repo, BlameArgs(file_path="a.c"), shas[1])
        assert explicit == defaulted

    def test_blame_missing_file(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(ToolError) as err:
            tools.exec_git_blame(repo, BlameArgs(file_path="nope.c"), shas[2])
        assert err.value.kind in ("file_not_found", "commit_not_found")

    def test_log_s_finds_planting_commit(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_log_s(repo, LogSArgs(search_string="foo_bar"))
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert shas[1].startswith(lines[0].split()[0])

    def test_log_s_absent_string(self, toolbox_repo):
        rb, _ = toolbox_repo
        repo = RepoHandle(rb.path)
        assert tools.exec_git_log_s(repo, LogSArgs(search_string="zebra_stripes")) == ""

    def test_log_s_empty_window(self, toolbox_repo):
        rb, _ = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_log_s(
            repo, LogSArgs(search_string="foo_bar", before="2001-01-01")
        )
        assert text == ""

    def test_log_func_history(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_log_func(
            repo, LogFuncArgs(function_name="alpha", file_path="a.c")
        )
        assert shas[2][:7] in text and shas[0][:7] in text
        assert text.find(shas[2][:7]) < text.find(shas[0][:7])  # newest first

    def test_log_func_missing_function(self, toolbox_repo):
        rb, _ = toolbox_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(ToolError) as err:
            tools.exec_git_log_func(
                repo, LogFuncArgs(function_name="nonexistent_fn", file_path="a.c")
            )
        assert err.value.kind == "function_not_found"

    def test_log_func_date_window(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        day3 = BASE_EPOCH + 3 * 86400
        text = tools.exec_git_log_func(
            repo,
            LogFuncArgs(
                function_name="alpha", file_path="a.c", after=f"@{day3 - 3600}", before=f"@{day3 + 3600}"
            ),
        )
        assert shas[2][:7] in text
        assert shas[0][:7] not in text

    def test_grep_planted_symbol(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_grep(repo, GrepArgs(search_string="foo_bar"), shas[1])
        matched_files = {ln.split(":")[1] for ln in text.splitlines() if ln}
        assert matched_files == {"a.c", "b.c", "c.c"}

    def test_grep_before_introduction(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        assert tools.exec_git_grep(repo, GrepArgs(search_string="foo_bar"), shas[0]) == ""

    def test_grep_path_filter_excludes(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_grep(
            repo, GrepArgs(search_string="foo_bar", path="docs/*"), shas[1]
        )
        assert text == ""


class TestBlameSubsetProperty:
    def test_range_blame_is_subset_of_full_blame(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        full = parse_blame_porcelain(
            tools.exec_git_blame(repo, BlameArgs(file_path="a.c"), shas[2])
        )
        ranged = parse_blame_porcelain(
            tools.exec_git_blame(
                repo, BlameArgs(file_path="a.c", line_start=1, line_end=2), shas[2]
            )
        )
        full_map = {rec["final_line"]: rec["commit"] for rec in full}
        for rec in ranged:
            assert full_map[rec["final_line"]] == rec["commit"]


@pytest.fixture
def renamed_repo(tmp_path):
    """Root import of a.c, an edit, a rename to src/b.c, another edit."""
    rb = RepoBuilder(tmp_path / "renamed")
    lines = [f"line {i} of the original import" for i in range(1, 9)]
    root = rb.commit({"a.c": "\n".join(lines) + "\n"}, "import a.c")
    lines[1], lines[5] = "edited line 2", "edited line 6"
    edit = rb.commit({"a.c": "\n".join(lines) + "\n"}, "edit a.c")
    rename = rb.move("a.c", "src/b.c", "move a.c to src/b.c")
    lines[2] = "edited line 3 after the move"
    tip = rb.commit({"src/b.c": "\n".join(lines) + "\n"}, "edit src/b.c")
    return RepoHandle(rb.path), {"root": root, "edit": edit, "rename": rename, "tip": tip}


class TestPorcelainEquivalence:
    """`--porcelain` parses to the same records as `--line-porcelain`."""

    def blame(self, repo, fmt, rev, path, line_range=None):
        cmd = ["blame", fmt] + (["-L", line_range] if line_range else []) + [rev, "--", path]
        out = run_git(repo, cmd)
        assert out.status is GitStatus.OK, out.stderr
        return out.stdout

    @pytest.mark.parametrize(
        "rev, path, line_range",
        [
            ("tip", "src/b.c", None),  # full file, lines from every commit
            ("tip", "src/b.c", "2,4"),  # ranged
            ("edit", "a.c", None),  # older revision, before the rename
            ("rename", "src/b.c", None),  # renamed in history
            ("root", "a.c", "3,5"),  # boundary (root) commit only
        ],
        ids=["full", "ranged", "older_revision", "renamed", "boundary"],
    )
    def test_records_match(self, renamed_repo, rev, path, line_range):
        repo, shas = renamed_repo
        short = self.blame(repo, "--porcelain", shas[rev], path, line_range)
        long = self.blame(repo, "--line-porcelain", shas[rev], path, line_range)
        records = parse_blame_porcelain(long)
        assert parse_blame_porcelain(short) == records
        assert all("summary" in rec and "committer-time" in rec for rec in records)
        # Each commit's header appears once, however many lines it owns.
        summaries = [ln for ln in short.splitlines() if ln.startswith("summary ")]
        assert len(summaries) == len({rec["commit"] for rec in records})
        assert "boundary" in short

    def test_tool_reads_porcelain(self, renamed_repo):
        repo, shas = renamed_repo
        raw = tools.exec_git_blame(repo, BlameArgs(file_path="src/b.c"), shas["tip"])
        assert raw == self.blame(repo, "--porcelain", shas["tip"], "src/b.c")
