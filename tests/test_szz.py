"""Blame baselines against hand fixtures and the brute-force oracle."""

import pytest

from oracle import AttributionOracle
from repo_helpers import RepoBuilder, generate_random_repo

from bictrace import gitio
from bictrace.caseprep import load_fix_context
from bictrace.gitio import RepoHandle
from bictrace.szz import b_szz, blame_candidates, l_szz, r_szz


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
        per_commit = {}
        for cand in blame_candidates(repo, fc):
            per_commit[cand.commit] = per_commit.get(cand.commit, 0) + cand.lines_attributed
        assert per_commit == {big: 5, small: 2}
        assert l_szz(repo, fc) == big

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
            assert cand.committer_time == gitio.commit_timestamp(repo, cand.commit)

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
