"""Fix-context loading, leakage redaction, initial-context assembly."""

import os
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repo_helpers import RepoBuilder, committer_time

from bictrace import caseprep, gitio
from bictrace.caseprep import (
    HASH_PLACEHOLDER,
    RootCommit,
    assemble_initial_context,
    default_template,
    load_fix_context,
    preimage_lines_from_diff,
    redact_leakage,
    render_constraints_block,
    render_fix_block,
)
from bictrace.gitio import RepoHandle


@pytest.fixture
def deletion_repo(tmp_path):
    rb = RepoBuilder(tmp_path / "deletion")
    c1 = rb.commit(
        {"a.c": "line one\nline two\nline three\nline four\nline five\nline six\nline seven\n"},
        "seed a.c",
    )
    c2 = rb.commit(
        {"a.c": "line one\nline two\nline three\nline four\nline seven\n"},
        "drop lines five and six",
    )
    return rb, [c1, c2]


class TestLoadFixContext:
    def test_deleted_lines_with_preimage_numbers(self, deletion_repo):
        rb, shas = deletion_repo
        repo = RepoHandle(rb.path)
        fc = load_fix_context(repo, shas[1])
        assert fc.fix_id == shas[1]
        assert fc.fix_parent == shas[0]
        assert fc.changed_files == ["a.c"]
        assert fc.deleted_or_modified_lines == {
            "a.c": [(5, "line five"), (6, "line six")]
        }
        assert fc.fix_date == committer_time(rb.path, shas[1])

    def test_addition_only_fix_is_ghost_shaped(self, ghost_repo):
        rb, info = ghost_repo
        repo = RepoHandle(rb.path)
        fc = load_fix_context(repo, info["fix"])
        assert fc.deleted_or_modified_lines == {}

    def test_root_commit_rejected(self, deletion_repo):
        rb, shas = deletion_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(RootCommit):
            load_fix_context(repo, shas[0])

    def test_unknown_fix(self, deletion_repo):
        rb, _ = deletion_repo
        repo = RepoHandle(rb.path)
        with pytest.raises(gitio.CommitNotFound):
            load_fix_context(repo, "deadbeef" * 5)

    def test_fix_read_timeout_is_not_a_missing_commit(self, deletion_repo, time_out_git):
        rb, shas = deletion_repo
        time_out_git()
        with pytest.raises(gitio.GitTimeout):
            load_fix_context(RepoHandle(rb.path), shas[-1])

    @pytest.mark.parametrize("ref", [
        "{a}..{b}", "{b}~1..{b}", "{a}...{b}", "^{b}", "{b}^!", "{b}^@", "{b}^-1", "",
        "{tree}", "{prefix}", "--output={out}",
    ])
    def test_fix_that_is_not_one_commit(self, prefix_repo, tmp_path, ref):
        rb, info = prefix_repo
        fix = rb.commit({"f.txt": "fixed\n"}, "fix")
        out = tmp_path / "x"
        ref = ref.format(a=info["anchor"], b=fix, tree=rb.git("rev-parse", "HEAD^{tree}").strip(),
                         prefix=info["prefix"], out=out)
        with pytest.raises(gitio.CommitNotFound):
            load_fix_context(RepoHandle(rb.path), ref)
        assert not out.exists()

    def test_annotated_tag_peels_to_its_commit(self, deletion_repo):
        rb, shas = deletion_repo
        rb.git("tag", "-a", "v1", "-m", "release", shas[1], date=rb.next_date())
        fc = load_fix_context(RepoHandle(rb.path), "v1")
        assert (fc.fix_id, fc.fix_parent) == (shas[1], shas[0])

    def test_three_git_calls(self, deletion_repo):
        rb, shas = deletion_repo
        repo = RepoHandle(rb.path)
        load_fix_context(repo, shas[1])
        assert repo.process_count == 1

    def test_files_and_diff_match_git(self, tmp_path):
        rb = RepoBuilder(tmp_path / "edges")
        rb.commit({"old.c": "alpha\nbeta\ngamma\ndelta\n", "run.sh": "echo hi\n"}, "seed")
        with open(os.path.join(rb.path, "blob.bin"), "wb") as f:
            f.write(b"\x00\x01\x02 seed\n")
        parent = rb.commit(message="add a binary")
        rb.git("mv", "old.c", "new.c")
        os.chmod(os.path.join(rb.path, "run.sh"), 0o755)
        with open(os.path.join(rb.path, "blob.bin"), "wb") as f:
            f.write(b"\x00\x01\x02 edited\n")
        fix = rb.commit({"naïve.txt": "non-ascii path\n", "tab\tname.txt": "tab\n", '"': "quote\n",
                         'q"uote\\slash\n': "escapes\n", "sp ace.c": "space\n"}, "edge cases")

        fc = load_fix_context(RepoHandle(rb.path), fix)
        names = rb.git("diff", "--name-only", "-z", parent, fix)
        assert fc.changed_files == names.split("\0")[:-1]
        assert {"naïve.txt", "tab\tname.txt", '"', 'q"uote\\slash\n', "sp ace.c"} <= set(fc.changed_files)
        assert "new.c" in fc.changed_files
        assert fc.diff_text == rb.git("diff", "--no-color", "--unified=3", parent, fix)

    def test_type_change_with_an_edit(self, tmp_path):
        rb = RepoBuilder(tmp_path / "typechange")
        rb.commit({"f": "one\ntwo\n", "g": "z\n"}, "seed")
        os.remove(os.path.join(rb.path, "f"))
        os.symlink("g", os.path.join(rb.path, "f"))
        fix = rb.commit({"g": "y\n"}, "f becomes a link")
        fc = load_fix_context(RepoHandle(rb.path), fix)
        assert fc.deleted_or_modified_lines == {"f": [(1, "one"), (2, "two")], "g": [(1, "z")]}
        assert fc.changed_files == ["f", "g"]

    def test_empty_fix(self, tmp_path):
        rb = RepoBuilder(tmp_path / "empty")
        rb.commit({"a.txt": "one\n"}, "seed")
        rb.git("commit", "-q", "--allow-empty", "-m", "nothing", date=rb.next_date())
        fc = load_fix_context(RepoHandle(rb.path), rb.head())
        assert fc.changed_files == []
        assert fc.diff_text == ""
        assert fc.deleted_or_modified_lines == {}

    def test_merge_fix_takes_first_parent(self, tmp_path):
        rb = RepoBuilder(tmp_path / "merge")
        rb.commit({"a.txt": "one\n"}, "base")
        rb.branch("side")
        rb.commit({"b.txt": "two\n"}, "side work")
        rb.checkout("main")
        main = rb.commit({"c.txt": "three\n"}, "main work")
        merge = rb.merge("side")
        fc = load_fix_context(RepoHandle(rb.path), merge)
        assert fc.fix_parent == main
        assert fc.changed_files == ["b.txt"]

    def test_fix_message_trailers_removed(self, tmp_path):
        rb = RepoBuilder(tmp_path / "trailers")
        rb.commit({"x.c": "a\n"}, "seed")
        fix = rb.commit(
            {"x.c": "b\n"},
            "fix something\n\nlong explanation\n\nFixes: 1c393b9 (\"old change\")\n"
            "Signed-off-by: Dev <dev@example.test>\nReviewed-by: R <r@example.test>\n",
        )
        fc = load_fix_context(RepoHandle(rb.path), fix)
        assert "Fixes:" not in fc.message_redacted
        assert "Signed-off-by" not in fc.message_redacted
        assert "Reviewed-by" not in fc.message_redacted
        assert "1c393b9" not in fc.message_redacted
        assert "long explanation" in fc.message_redacted


class TestPreimageParsing:
    def test_rename_with_modification_uses_old_path(self, tmp_path):
        rb = RepoBuilder(tmp_path / "renmod")
        rb.commit({"old.c": "alpha\nbeta\ngamma\ndelta\nepsilon\n"}, "seed")
        rb.git("mv", "old.c", "new.c")
        rb.write({"new.c": "alpha\nbeta\nGAMMA\ndelta\nepsilon\n"})
        rb.git("add", "-A")
        rb.git("commit", "-q", "-m", "rename and tweak", date=rb.next_date())
        fix = rb.head()
        fc = load_fix_context(RepoHandle(rb.path), fix)
        assert fc.deleted_or_modified_lines == {"old.c": [(3, "gamma")]}

    def test_multi_hunk_numbers(self):
        diff = (
            "diff --git a/f.c b/f.c\n"
            "--- a/f.c\n"
            "+++ b/f.c\n"
            "@@ -2,3 +2,3 @@\n"
            " ctx\n"
            "-removed a\n"
            "+added a\n"
            " ctx\n"
            "@@ -10,2 +10,1 @@\n"
            " ctx\n"
            "-removed b\n"
        )
        assert preimage_lines_from_diff(diff, ["f.c"]) == {
            "f.c": [(3, "removed a"), (11, "removed b")]
        }

    def test_hunk_runs_for_its_header_counts(self):
        diff = (
            "diff --git a/q.sql b/q.sql\n"
            "--- a/q.sql\n"
            "+++ b/q.sql\n"
            "@@ -1,4 +1,3 @@\n"
            " select 1;\n"
            "--- note one\n"
            "+++ note two\n"
            "-select 3;\n"
            " select 4;\n"
            "diff --git a/r.sql b/r.sql\n"
            "--- a/r.sql\n"
            "+++ b/r.sql\n"
            "@@ -2 +1,0 @@\n"
            "-drop\n"
        )
        assert preimage_lines_from_diff(diff, ["q.sql", "r.sql"]) == {
            "q.sql": [(2, "-- note one"), (3, "select 3;")],
            "r.sql": [(2, "drop")],
        }

    def test_quoted_file_header(self, tmp_path):
        rb = RepoBuilder(tmp_path / "quoted")
        rb.commit({"café.c": "x\ny\n"}, "seed")
        fix = rb.commit({"café.c": "y\n"}, "drop x")
        fc = load_fix_context(RepoHandle(rb.path), fix)
        assert '--- "a/caf\\303\\251.c"' in fc.diff_text
        assert fc.changed_files == ["café.c"]
        assert fc.deleted_or_modified_lines == {"café.c": [(1, "x")]}

    def test_lone_carriage_return_is_not_a_line_break(self, tmp_path):
        rb = RepoBuilder(tmp_path / "carriage")
        rb.commit({"f.c": "a\nb\rx\nc\nd\ne\n"}, "seed")
        fix = rb.commit({"f.c": "a\nc\ne\n"}, "drop two lines")
        fc = load_fix_context(RepoHandle(rb.path), fix)
        assert fc.deleted_or_modified_lines == {"f.c": [(2, "b\rx"), (4, "d")]}

    def test_form_feed_is_not_a_line_break(self):
        diff = (
            "diff --git a/f.c b/f.c\n--- a/f.c\n+++ b/f.c\n"
            "@@ -1,2 +1 @@\n-page\x0cbreak\n-next\n+new\n"
        )
        assert preimage_lines_from_diff(diff, ["f.c"]) == {"f.c": [(1, "page\x0cbreak"), (2, "next")]}


class TestRedaction:
    def test_fixes_trailer_removed(self):
        out = redact_leakage('subject\n\nFixes: 1c393b9 ("old subject")\n')
        assert "Fixes" not in out and "1c393b9" not in out

    def test_hex_token_in_title_replaced(self):
        out = redact_leakage("Revert deadbeef12 change")
        assert "deadbeef12" not in out
        assert HASH_PLACEHOLDER in out
        assert not re.search(r"\b[0-9a-fA-F]{7,40}\b", out)

    def test_clean_message_unchanged(self):
        msg = "improve the frobnicator\n\nno hashes, no trailers here\n"
        assert redact_leakage(msg) == msg

    def test_lines_end_at_newline_only(self):
        msg = "page\x0cbreak, a lone\rreturn\n\nFixes: 1c393b9 (\"old\")\n"
        assert redact_leakage(msg) == "page\x0cbreak, a lone\rreturn\n\n"

    def test_short_hex_words_survive(self):
        msg = "faced a decade of cafe decaf code"  # all < 7 hex chars
        assert redact_leakage(msg) == msg

    @given(st.text(max_size=300))
    def test_no_long_hex_token_survives(self, text):
        out = redact_leakage(text)
        assert not re.search(r"\b[0-9a-fA-F]{7,40}\b", out)


class TestAssemble:
    def test_required_phrases_present(self, deletion_repo):
        rb, shas = deletion_repo
        repo = RepoHandle(rb.path)
        fc = load_fix_context(repo, shas[1])
        ctx = assemble_initial_context(fc)
        prompt = ctx.system_prompt
        assert "would the bug exist if this commit had not been introduced?" in prompt
        assert "are not considered BICs" in prompt
        assert "expose or trigger" in prompt
        assert render_constraints_block(fc) in prompt
        assert str(fc.fix_date) in render_constraints_block(fc)
        assert render_fix_block(fc) in prompt
        assert len(ctx.tool_specs) == 5

    def test_workflow_steps_present(self):
        template = default_template()
        for phrase in ("Entry point selection", "Candidate analysis", "Causal confirmation"):
            assert phrase in template

    def test_fix_date_matches_gateway(self, deletion_repo):
        rb, shas = deletion_repo
        repo = RepoHandle(rb.path)
        fc = load_fix_context(repo, shas[1])
        assert fc.fix_date == committer_time(rb.path, fc.fix_id)


class TestLeakageFreedom:
    def _assert_no_gt_leak(self, repo, fix, ground_truth):
        fc = load_fix_context(repo, fix)
        ctx = assemble_initial_context(fc)
        blob = ctx.system_prompt + render_fix_block(fc) + render_constraints_block(fc)
        for gt in ground_truth:
            for n in range(7, 41):
                assert gt[:n] not in blob

    def test_cross_file_fixture(self, cross_file_repo):
        rb, info = cross_file_repo
        self._assert_no_gt_leak(RepoHandle(rb.path), info["fix"], {info["bic"]})

    def test_ghost_fixture(self, ghost_repo):
        rb, info = ghost_repo
        self._assert_no_gt_leak(RepoHandle(rb.path), info["fix"], {info["bic"]})

    def test_fixture_with_leaky_message(self, tmp_path):
        rb = RepoBuilder(tmp_path / "leaky")
        rb.commit({"x.c": "a\n"}, "seed")
        bic = rb.commit({"x.c": "b\n"}, "introduce bug")
        fix = rb.commit(
            {"x.c": "c\n"},
            f"repair the bug\n\nThis reverts {bic} partially.\nFixes: {bic[:12]}\n",
        )
        self._assert_no_gt_leak(RepoHandle(rb.path), fix, {bic})
