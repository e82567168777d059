"""Tool schemas, argument validation, bound enforcement, git execution."""

from dataclasses import replace
from datetime import datetime

import pytest

from repo_helpers import BASE_EPOCH, RepoBuilder, parent_context

from bictrace import tools
from bictrace.compress import canonicalize_args
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
    blame_records,
    enforce_search_bound,
    parse_args,
    parse_date,
    tool_schemas,
)


class TestSchemas:
    def test_five_tools(self):
        schemas = tool_schemas()
        assert len(schemas) == 5
        assert {s["function"]["name"] for s in schemas} == {t.value for t in ToolName}

    def test_blame_required_fields(self):
        blame = next(s for s in tool_schemas() if s["function"]["name"] == "git_blame")
        assert "file_path" in blame["function"]["parameters"]["required"]
        assert "commit" not in blame["function"]["parameters"]["required"]
        assert "commit" in blame["function"]["parameters"]["properties"]

    def test_required_markers_match_contract(self):
        required = {
            ToolName.SHOW: {"commit"},
            ToolName.BLAME: {"file_path"},
            ToolName.LOG_S: {"search_string"},
            ToolName.LOG_FUNC: {"function_name", "file_path"},
            ToolName.GREP: {"search_string"},
        }
        for schema in tool_schemas():
            fn = schema["function"]
            assert set(fn["parameters"]["required"]) == required[ToolName(fn["name"])]


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

    @pytest.mark.parametrize("tool, payload, message", [
        (ToolName.SHOW, ["HEAD"], "git_show: arguments must be an object"),
        (ToolName.GREP, "needle", "git_grep: arguments must be an object"),
        (ToolName.SHOW, {"commit": "HEAD", "zeta": 1, "colour": True},
         "git_show: unknown parameter(s): colour, zeta"),
        (ToolName.LOG_FUNC, {"function_name": "f"},
         "git_log_func: missing required parameter 'file_path'"),
        (ToolName.BLAME, {"file_path": None}, "git_blame: missing required parameter 'file_path'"),
        (ToolName.LOG_FUNC, {"function_name": 5},
         "git_log_func: parameter 'function_name' must be of type string"),
        (ToolName.SHOW, {"commit": "HEAD", "stat_only": "yes"},
         "git_show: parameter 'stat_only' must be of type boolean"),
        (ToolName.SHOW, {"commit": "HEAD", "context_lines": 2.5},
         "git_show: parameter 'context_lines' must be of type integer"),
        (ToolName.BLAME, {"file_path": "a.c", "line_start": True},
         "git_blame: parameter 'line_start' must be of type integer"),
        (ToolName.BLAME, {"file_path": "a.c", "line_start": 0, "line_end": "x"},
         "git_blame: parameter 'line_end' must be of type integer"),
        (ToolName.SHOW, {"commit": "HEAD", "context_lines": -1},
         "git_show: context_lines must be >= 0"),
        (ToolName.BLAME, {"file_path": "a.c", "line_start": 0}, "git_blame: line_start must be >= 1"),
        (ToolName.BLAME, {"file_path": "a.c", "line_end": 0}, "git_blame: line_end must be >= 1"),
        (ToolName.BLAME, {"file_path": "a.c", "line_start": 0, "line_end": 0},
         "git_blame: line_start must be >= 1"),
        (ToolName.BLAME, {"file_path": "a.c", "line_start": 9, "line_end": 2},
         "git_blame: line_start must not exceed line_end"),
        (ToolName.LOG_S, {"search_string": ""}, "git_log_s: search_string must be non-empty"),
        (ToolName.GREP, {"search_string": ""}, "git_grep: search_string must be non-empty"),
        (ToolName.LOG_S, {"search_string": "x", "after": " soonish "}, "unparseable date: 'soonish'"),
        (ToolName.LOG_FUNC, {"function_name": "f", "file_path": "a.c", "before": "later"},
         "unparseable date: 'later'"),
        (ToolName.LOG_S, {"search_string": "x", "after": "a", "before": "b"},
         "unparseable date: 'a'"),
    ])
    def test_schema_error_text(self, tool, payload, message):
        with pytest.raises(SchemaError) as exc:
            parse_args(tool, payload)
        assert str(exc.value) == message

    def test_args_class_checks_its_constraints(self):
        with pytest.raises(SchemaError, match="^git_blame: line_start must be >= 1$"):
            BlameArgs("a.c", line_start=0)


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


class TestDateRule:
    """One moment, however it is spelt, is one search window, one git argv and one cache key."""

    DAY = 1578182400  # 2020-01-05T00:00:00Z
    END = DAY + 86399  # its last second

    @pytest.mark.parametrize("after, before", [
        ("2020-01-05", "2020-01-05"),
        ("2020-01-05T00:00:00Z", "2020-01-05T23:59:59Z"),
        ("2020-01-05T00:00:00+00:00", "2020-01-05T23:59:59+00:00"),
        (f"@{DAY}", f"@{END}"),
    ])
    def test_every_reader_agrees_across_spellings(self, after, before):
        both = LogSArgs(search_string="x", after=after, before=before)
        assert tools.date_bounds(both) == {"after": self.DAY, "before": self.END}
        assert tools._date_flags(both) == [f"--after=@{self.DAY}", f"--before=@{self.END}"]
        assert canonicalize_args(both) == LogSArgs(
            search_string="x", after=f"@{self.DAY}", before=f"@{self.END}"
        )
        since = LogFuncArgs(function_name="f", file_path="a.c", after=after)
        assert tools.date_bounds(since) == {"after": self.DAY}
        assert tools._date_flags(since) == [f"--after=@{self.DAY}"]
        assert canonicalize_args(since) == replace(since, after=f"@{self.DAY}")

    def test_a_tool_without_dates_has_no_bounds(self):
        args = GrepArgs(search_string="x")
        assert tools.date_bounds(args) == {}
        assert canonicalize_args(args) == args

    def test_a_date_before_1970_keys(self):
        args = LogSArgs(search_string="x", after="1969-12-31")
        assert canonicalize_args(args) == replace(args, after="@-86400")


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

    def test_show_context_lines_set_the_diff_context(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        narrow = tools.exec_git_show(repo, ShowArgs(commit=shas[2], context_lines=0)).splitlines()
        wide = tools.exec_git_show(repo, ShowArgs(commit=shas[2])).splitlines()
        assert " int alpha(void) {" in wide and " int alpha(void) {" not in narrow
        assert any(ln.startswith("@@ -2 +2 @@") for ln in narrow)

    def test_show_unknown_commit(self, toolbox_repo):
        rb, _ = toolbox_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(ToolError) as err:
            tools.exec_git_show(repo, ShowArgs(commit="deadbeef" * 5))
        assert err.value.kind == "commit_not_found"

    def test_blame_line_range_attribution(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_blame(repo, "a.c", shas[2], [(2, 2)])
        assert text.splitlines()[0].startswith(shas[2])

    def test_blame_defaults_to_given_commit(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        explicit = tools.execute_raw(repo, BlameArgs(file_path="a.c", commit=shas[1]),
                                     parent_context(shas[0]))
        defaulted = tools.execute_raw(repo, BlameArgs(file_path="a.c"), parent_context(shas[1]))
        assert explicit == defaulted == tools.exec_git_blame(repo, "a.c", shas[1], [])

    def test_blame_of_two_ranges_and_of_the_whole_file(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        whole, total = blame_records(tools.exec_git_blame(repo, "b.c", shas[1], []))
        assert total == 3
        assert [rec["commit"] for rec in whole] == [shas[0], shas[1], shas[0]]
        # An end of None runs to the end of the file.
        two, _ = blame_records(tools.exec_git_blame(repo, "b.c", shas[1], [(1, 1), (3, None)]))
        assert two == [whole[0], whole[2]]

    def test_blame_missing_file(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(ToolError) as err:
            tools.exec_git_blame(repo, "nope.c", shas[2], [])
        assert err.value.kind in ("file_not_found", "commit_not_found")

    def test_log_s_finds_planting_commit(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_log_s(repo, LogSArgs(search_string="foo_bar"), shas[2])
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert shas[1].startswith(lines[0].split()[0])

    def test_log_s_absent_string(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        assert tools.exec_git_log_s(repo, LogSArgs(search_string="zebra_stripes"), shas[2]) == ""

    def test_log_s_empty_window(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_log_s(
            repo, LogSArgs(search_string="foo_bar", before="2001-01-01"), shas[2]
        )
        assert text == ""

    def test_log_func_history(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        text = tools.exec_git_log_func(
            repo, LogFuncArgs(function_name="alpha", file_path="a.c"), shas[2]
        )
        assert shas[2][:7] in text and shas[0][:7] in text
        assert text.find(shas[2][:7]) < text.find(shas[0][:7])  # newest first

    def test_log_func_missing_function(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(ToolError) as err:
            tools.exec_git_log_func(
                repo, LogFuncArgs(function_name="nonexistent_fn", file_path="a.c"), shas[2]
            )
        assert err.value.kind == "function_not_found"

    def test_log_func_file_absent_at_start(self, toolbox_repo):
        # c.c first appears in shas[1], so the walk from shas[0] has no such path.
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(ToolError) as err:
            tools.exec_git_log_func(
                repo, LogFuncArgs(function_name="gamma", file_path="c.c"), shas[0]
            )
        assert err.value.kind == "file_not_found"

    def test_log_func_date_window(self, toolbox_repo):
        rb, shas = toolbox_repo
        repo = RepoHandle(rb.path)
        day3 = BASE_EPOCH + 3 * 86400
        text = tools.exec_git_log_func(
            repo,
            LogFuncArgs(
                function_name="alpha", file_path="a.c", after=f"@{day3 - 3600}", before=f"@{day3 + 3600}"
            ),
            shas[2],
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
        full, _ = blame_records(tools.exec_git_blame(repo, "a.c", shas[2], []))
        ranged, _ = blame_records(tools.exec_git_blame(repo, "a.c", shas[2], [(1, 2)]))
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
        records, _ = blame_records(long)
        assert blame_records(short)[0] == records
        assert all("summary" in rec and "committer-time" in rec for rec in records)
        # Each commit's header appears once, however many lines it owns.
        summaries = [ln for ln in short.splitlines() if ln.startswith("summary ")]
        assert len(summaries) == len({rec["commit"] for rec in records})
        assert "boundary" in short

    def test_tool_reads_porcelain(self, renamed_repo):
        repo, shas = renamed_repo
        raw = tools.exec_git_blame(repo, "src/b.c", shas["tip"], [])
        assert raw == self.blame(repo, "--porcelain", shas["tip"], "src/b.c")
