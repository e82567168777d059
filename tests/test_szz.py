"""Blame baselines against hand fixtures and the brute-force oracle."""

import os
import subprocess
import sys

import pytest

from oracle import AttributionOracle
from repo_helpers import RepoBuilder, committer_time, generate_random_repo

from bictrace import gitio, szz
from bictrace.caseprep import CaseSpec, load_fix_context, render_fix_block
from bictrace.evaluate import classify_cross_file, classify_ghost
from bictrace.gitio import RepoHandle
from bictrace.szz import b_szz, blame_candidates, l_szz, line_ranges, r_szz


def loaded(path, fix):
    """Handle and fix context, as the CLI loads them once per case."""
    repo = RepoHandle(path)
    return repo, load_fix_context(repo, fix)


@pytest.fixture
def three_commit_repo(tmp_path):
    """c1 seeds, c2 introduces a line, c3 (fix) deletes exactly that line."""
    rb = RepoBuilder(tmp_path / "three")
    c1 = rb.commit({"m.c": "keep one\nkeep two\nkeep three\n"}, "seed")
    c2 = rb.commit({"m.c": "keep one\nbuggy line\nkeep two\nkeep three\n"}, "introduce")
    c3 = rb.commit({"m.c": "keep one\nkeep two\nkeep three\n"}, "fix: drop buggy line")
    return rb, [c1, c2, c3]


class TestBSzz:
    def test_single_introducer(self, three_commit_repo):
        rb, shas = three_commit_repo
        assert b_szz(*loaded(rb.path, shas[2])) == {shas[1]}

    def test_addition_only_fix_empty(self, ghost_repo):
        rb, info = ghost_repo
        assert b_szz(*loaded(rb.path, info["fix"])) == set()

    def test_blame_timeout_is_an_error_not_an_empty_answer(self, three_commit_repo, time_out_git):
        rb, shas = three_commit_repo
        repo, fc = loaded(rb.path, shas[2])
        time_out_git(lambda args: args[0] == "blame")
        with pytest.raises(gitio.GitTimeout):
            b_szz(repo, fc)

    def test_two_introducers_match_oracle(self, tmp_path):
        rb = RepoBuilder(tmp_path / "two")
        c1 = rb.commit({"m.c": "alpha original\nbeta original\ngamma original\n"}, "seed")
        c2 = rb.commit({"m.c": "alpha changed\nbeta original\ngamma original\n"}, "change alpha")
        c3 = rb.commit({"m.c": "alpha changed\nbeta changed\ngamma original\n"}, "change beta")
        fix = rb.commit({"m.c": "alpha fixed\nbeta fixed\ngamma original\n"}, "fix both")
        repo, fc = loaded(rb.path, fix)
        got = b_szz(repo, fc)
        oracle = AttributionOracle(rb.path)
        assert got == oracle.last_writer_b_szz(fix) == {c2, c3}
        assert c1 not in got


class TestSelectors:
    def test_r_szz_picks_latest(self, tmp_path):
        rb = RepoBuilder(tmp_path / "rsel")
        rb.commit({"m.c": "one v1\ntwo v1\n"}, "seed")
        early = rb.commit({"m.c": "one v2\ntwo v1\n"}, "early change")
        late = rb.commit({"m.c": "one v2\ntwo v2\n"}, "late change")
        fix = rb.commit({"m.c": "one v3\ntwo v3\n"}, "fix both lines")
        repo, fc = loaded(rb.path, fix)
        assert b_szz(repo, fc) == {early, late}
        assert r_szz(repo, fc) == late

    def test_l_szz_picks_most_lines(self, tmp_path):
        rb = RepoBuilder(tmp_path / "lsel")
        rb.commit({"m.c": "a v1\nb v1\nc v1\nd v1\ne v1\nf v1\ng v1\n"}, "seed")
        big = rb.commit({"m.c": "a v2\nb v2\nc v2\nd v2\ne v2\nf v1\ng v1\n"}, "touch five")
        small = rb.commit({"m.c": "a v2\nb v2\nc v2\nd v2\ne v2\nf v2\ng v2\n"}, "touch two")
        fix = rb.commit(
            {"m.c": "a v3\nb v3\nc v3\nd v3\ne v3\nf v3\ng v3\n"}, "rewrite all"
        )
        repo, fc = loaded(rb.path, fix)
        assert [(c.commit, c.lines_attributed) for c in blame_candidates(repo, fc)] == sorted(
            [(big, 5), (small, 2)]
        )
        assert l_szz(repo, fc) == big

    def test_one_candidate_per_commit_across_files(self, tmp_path):
        rb = RepoBuilder(tmp_path / "twofiles")
        rb.commit({"a.c": "a1\nkeep\n", "b.c": "b1\nkeep\n"}, "seed")
        both = rb.commit({"a.c": "a2\nkeep\n", "b.c": "b2\nkeep\n"}, "touch both files")
        fix = rb.commit({"a.c": "a3\nkeep\n", "b.c": "b3\nkeep\n"}, "fix both files")
        repo, fc = loaded(rb.path, fix)
        assert [(c.commit, c.lines_attributed) for c in blame_candidates(repo, fc)] == [(both, 2)]

    def test_ghost_fix_yields_none(self, ghost_repo):
        rb, info = ghost_repo
        repo, fc = loaded(rb.path, info["fix"])
        assert r_szz(repo, fc) is None
        assert l_szz(repo, fc) is None

    def test_selectors_within_b_szz(self, three_commit_repo):
        rb, shas = three_commit_repo
        repo, fc = loaded(rb.path, shas[2])
        full = b_szz(repo, fc)
        assert r_szz(repo, fc) in full
        assert l_szz(repo, fc) in full

    def test_timestamp_tie_breaks_to_smallest_id(self, tmp_path):
        rb = RepoBuilder(tmp_path / "tie")
        shared = 1600000000
        rb.commit({"m.c": "p v1\nq v1\n"}, "seed", date=shared - 86400)
        t1 = rb.commit({"m.c": "p v2\nq v1\n"}, "first same-time", date=shared)
        t2 = rb.commit({"m.c": "p v2\nq v2\n"}, "second same-time", date=shared)
        fix = rb.commit({"m.c": "p v3\nq v3\n"}, "fix", date=shared + 86400)
        repo, fc = loaded(rb.path, fix)
        assert b_szz(repo, fc) == {t1, t2}
        assert r_szz(repo, fc) == min(t1, t2)

    def test_candidate_times_are_committer_times(self, tmp_path):
        rb = RepoBuilder(tmp_path / "times")
        rb.commit({"m.c": "p v1\nq v1\n"}, "seed")
        rb.commit({"m.c": "p v2\nq v1\n"}, "touch p")
        rb.commit({"m.c": "p v2\nq v2\n"}, "touch q")
        fix = rb.commit({"m.c": "p v3\nq v3\n"}, "fix")
        repo, fc = loaded(rb.path, fix)
        candidates = blame_candidates(repo, fc)
        assert len(candidates) == 2
        for cand in candidates:
            assert cand.committer_time == committer_time(rb.path, cand.commit)

    def test_r_szz_spawns_as_many_as_b_szz(self, tmp_path, monkeypatch):
        rb = RepoBuilder(tmp_path / "spawns")
        rb.commit({"m.c": "a v1\nb v1\nc v1\n"}, "seed")
        rb.commit({"m.c": "a v2\nb v1\nc v1\n"}, "touch a")
        rb.commit({"m.c": "a v2\nb v2\nc v1\n"}, "touch b")
        rb.commit({"m.c": "a v2\nb v2\nc v2\n"}, "touch c")
        fix = rb.commit({"m.c": "a v3\nb v3\nc v3\n"}, "fix")
        repo, fc = loaded(rb.path, fix)
        spawned = []
        real_spawn = gitio._spawn
        monkeypatch.setattr(gitio, "_spawn", lambda *a: spawned.append(a) or real_spawn(*a))
        assert len(b_szz(repo, fc)) == 3
        b_spawns = len(spawned)
        spawned.clear()
        assert r_szz(repo, fc) is not None
        assert len(spawned) == b_spawns == len(fc.deleted_or_modified_lines)

    def test_line_count_tie_breaks_to_smallest_id(self, tmp_path):
        rb = RepoBuilder(tmp_path / "ltie")
        rb.commit({"m.c": "u v1\nv v1\n"}, "seed")
        a = rb.commit({"m.c": "u v2\nv v1\n"}, "one line each A")
        b = rb.commit({"m.c": "u v2\nv v2\n"}, "one line each B")
        fix = rb.commit({"m.c": "u v3\nv v3\n"}, "fix")
        repo, fc = loaded(rb.path, fix)
        assert l_szz(repo, fc) == min(a, b)


class TestRenames:
    def test_blame_traces_through_rename(self, tmp_path):
        rb = RepoBuilder(tmp_path / "ren")
        origin = rb.commit({"old.c": "stable line\nbuggy line v1\n"}, "seed old.c")
        rb.move("old.c", "lib/new.c", "move into lib/")
        fix = rb.commit({"lib/new.c": "stable line\n"}, "fix: drop buggy line")
        repo, fc = loaded(rb.path, fix)
        assert b_szz(repo, fc) == {origin}


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_history_agreement(self, tmp_path, seed):
        rb, commits = generate_random_repo(tmp_path / f"rand{seed}", seed=seed * 101 + 7)
        repo = RepoHandle(rb.path)
        oracle = AttributionOracle(rb.path)
        fixes = [c for c in commits[1:]][-6:]
        for fix in fixes:
            fc = load_fix_context(repo, fix)
            assert b_szz(repo, fc) == oracle.last_writer_b_szz(fix), (seed, fix)


@pytest.fixture
def blame_argvs(monkeypatch):
    """The argument lists of the git blame processes started."""
    argvs = []
    real_spawn = gitio._spawn

    def spy(root, args, timeout):
        if args[0] == "blame":
            argvs.append(args)
        return real_spawn(root, args, timeout)

    monkeypatch.setattr(gitio, "_spawn", spy)
    return argvs


class TestRangedBlame:
    def test_line_ranges_merge_adjacent_lines(self):
        assert line_ranges([3, 4, 5, 9]) == [(3, 5), (9, 9)]
        assert line_ranges([9, 4, 3, 4, 5, 11, 10]) == [(3, 5), (9, 11)]
        assert line_ranges([7]) == [(7, 7)]

    def test_one_ranged_blame_per_traced_file(self, tmp_path, blame_argvs):
        rb = RepoBuilder(tmp_path / "ranged")
        body = "".join(f"line {n}\n" for n in range(1, 13))
        seed = rb.commit({"m.c": body, "n.c": body}, "seed")
        fix = rb.commit(
            {
                "m.c": body.replace("line 3\nline 4\nline 5\n", "").replace("line 9\n", ""),
                "n.c": body.replace("line 12\n", ""),
            },
            "fix",
        )
        repo, fc = loaded(rb.path, fix)
        assert b_szz(repo, fc) == {seed}
        assert sorted(blame_argvs, key=lambda a: a[-1]) == [
            ["blame", "--porcelain", "-L", "3,5", "-L", "9,9", fc.fix_parent, "--", "m.c"],
            ["blame", "--porcelain", "-L", "12,12", fc.fix_parent, "--", "n.c"],
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_past_the_guard_the_whole_file_gives_the_same_candidates(
        self, tmp_path, seed, monkeypatch, blame_argvs
    ):
        rb, commits = generate_random_repo(tmp_path / f"guard{seed}", seed=seed * 101 + 7)
        repo = RepoHandle(rb.path)
        for fix in commits[-6:]:
            fc = load_fix_context(repo, fix)
            ranged = blame_candidates(repo, fc)
            assert all("-L" in argv for argv in blame_argvs)
            blame_argvs.clear()
            with monkeypatch.context() as m:
                m.setattr(szz, "MAX_BLAME_RANGES", 0)
                whole = blame_candidates(repo, fc)
            assert not any("-L" in argv for argv in blame_argvs)
            blame_argvs.clear()
            assert ranged == whole, (seed, fix)


class TestUnusualDiffs:
    def test_quoted_paths_are_traced(self, tmp_path):
        rb = RepoBuilder(tmp_path / "quoted")
        rb.commit({"café.c": "a\nb\nc\n", "sp ace.c": "x\ny\n"}, "seed")
        accented = rb.commit({"café.c": "a\nB\nc\n"}, "change b")
        spaced = rb.commit({"sp ace.c": "x\nY\n"}, "change y")
        fix = rb.commit({"café.c": "a\nc\n", "sp ace.c": "x\n"}, "fix")
        repo, fc = loaded(rb.path, fix)
        assert fc.changed_files == ["café.c", "sp ace.c"]
        assert b_szz(repo, fc) == {accented, spaced}
        assert not classify_ghost(fc)
        case = CaseSpec(rb.path, fix, ground_truth={accented})
        assert not classify_cross_file(repo, case, fc)

    def test_removed_line_that_reads_like_a_file_header(self, tmp_path):
        rb = RepoBuilder(tmp_path / "sql")
        seed = rb.commit({"q.sql": "select 1;\n-- note one\nselect 3;\nselect 4;\n"}, "seed")
        fix = rb.commit({"q.sql": "select 1;\nselect 4;\n"}, "fix")
        repo, fc = loaded(rb.path, fix)
        assert fc.deleted_or_modified_lines == {"q.sql": [(2, "-- note one"), (3, "select 3;")]}
        assert b_szz(repo, fc) == {seed}
        assert not classify_ghost(fc)

    def test_removed_line_with_a_form_feed(self, tmp_path):
        rb = RepoBuilder(tmp_path / "formfeed")
        seed = rb.commit({"f.c": "a\n\x0c\nb\x0cc\nd\n"}, "seed")
        fix = rb.commit({"f.c": "a\nd\n"}, "fix")
        repo, fc = loaded(rb.path, fix)
        assert fc.deleted_or_modified_lines == {"f.c": [(2, "\x0c"), (3, "b\x0cc")]}
        assert b_szz(repo, fc) == {seed}

    def test_non_utf8_path_is_traced(self, tmp_path):
        # The fix read's -z name reaches blame and the classification's argv unchanged.
        rb = RepoBuilder(tmp_path / "latin1")
        name = os.fsdecode(b"caf\xe9.c")
        rb.commit({name: "keep\nkeep\n"}, "seed")
        bic = rb.commit({name: "keep\nbug\nkeep\n"}, "introduce")
        fix = rb.commit({name: "keep\nkeep\n"}, "fix")
        repo, fc = loaded(rb.path, fix)
        assert b_szz(repo, fc) == {bic}
        assert not classify_cross_file(repo, CaseSpec(rb.path, fix, ground_truth={bic}), fc)
        assert fc.changed_files == [name]
        # Text for the model reads the invalid byte as U+FFFD, as before.
        assert "  - caf\ufffd.c\n" in render_fix_block(fc)
        assert "\udce9" not in render_fix_block(fc)

    def test_removed_line_with_a_lone_carriage_return(self, tmp_path):
        rb = RepoBuilder(tmp_path / "carriage")
        seed = rb.commit({"f.c": "a\nb\rx\nc\n"}, "seed")
        fix = rb.commit({"f.c": "a\nc\n"}, "fix")
        repo, fc = loaded(rb.path, fix)
        assert b_szz(repo, fc) == {seed}

    def test_a_path_git_cannot_blame_is_skipped(self, tmp_path):
        # A fix that bumps a submodule's gitlink removes its "Subproject commit" line, which
        # blame cannot trace (git: "no such path sub"); the regular file's line still is.
        rb = RepoBuilder(tmp_path / "gitlink")
        seed = rb.commit({"m.c": "keep\nkeep\n"}, "seed")
        bic = rb.commit({"m.c": "keep\nbug\nkeep\n"}, "introduce")
        rb.git("update-index", "--add", "--cacheinfo", f"160000,{seed},sub")
        rb.git("commit", "-q", "-m", "add submodule", date=rb.next_date())
        rb.write({"m.c": "keep\nkeep\n"})
        rb.git("update-index", "--cacheinfo", f"160000,{bic},sub")
        rb.git("add", "m.c")
        rb.git("commit", "-q", "-m", "fix and bump submodule", date=rb.next_date())
        repo, fc = loaded(rb.path, rb.head())
        assert sorted(fc.deleted_or_modified_lines) == ["m.c", "sub"]
        assert b_szz(repo, fc) == {bic}
        assert r_szz(repo, fc) == l_szz(repo, fc) == bic


def test_baselines_do_not_load_the_observation_pipeline():
    # A fresh interpreter: this process has imported every module already.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, bictrace.szz; print(sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "'bictrace.tools'" in done.stdout and "'bictrace.compress'" not in done.stdout
