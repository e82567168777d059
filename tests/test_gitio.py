"""Gateway behavior: allow-list, timeouts, resolution, read-only output."""

import subprocess

import pytest

from repo_helpers import RepoBuilder, object_set_digest

from bictrace import gitio
from bictrace.compress import parse_blame_porcelain
from bictrace.gitio import (
    GitStatus,
    NonAllowlistedCommand,
    RepoHandle,
    RepoUnavailable,
)


def test_run_git_identity_probe(linear_handle):
    repo, _ = linear_handle
    out = gitio.run_git(repo, ["rev-parse", "HEAD"])
    assert out.status is GitStatus.OK
    assert gitio.COMMIT_ID_RE.match(out.stdout.strip())


def test_run_git_rejects_write_commands(linear_handle):
    repo, _ = linear_handle
    for args in (["push"], ["commit", "-m", "x"], ["gc"], ["rev-list", "HEAD"],
                 ["cat-file", "-p", "HEAD"], []):
        with pytest.raises(NonAllowlistedCommand):
            gitio.run_git(repo, args)


def test_run_git_timeout(slow_repo):
    repo = RepoHandle(slow_repo.path, default_timeout=0.001)
    out = gitio.run_git(repo, ["log", "-Sx", "--all"])
    assert out.status is GitStatus.TIMED_OUT
    assert out.elapsed >= 0.001
    assert out.stdout == ""


def test_repo_unavailable(tmp_path):
    with pytest.raises(RepoUnavailable):
        RepoHandle(str(tmp_path / "not-a-repo"))


def test_resolve_commit_identity_and_prefix(linear_handle):
    repo, shas = linear_handle
    full = shas[0]
    assert gitio.resolve_commit(repo, full) == full
    assert gitio.resolve_commit(repo, full[:12]) == full
    assert gitio.resolve_commit(repo, "zzzz") is None
    assert gitio.resolve_commit(repo, "deadbeef" * 5) is None


def test_resolve_commit_idempotent(linear_handle):
    repo, shas = linear_handle
    for sha in shas:
        resolved = gitio.resolve_commit(repo, sha)
        assert resolved == sha
        assert gitio.resolve_commit(repo, resolved) == resolved


def test_resolve_rejects_empty(linear_handle):
    repo, _ = linear_handle
    with pytest.raises(ValueError):
        gitio.resolve_commit(repo, "")


def test_probe_commit_ambiguous(prefix_repo):
    rb, info = prefix_repo
    repo = RepoHandle(rb.path)
    outcome, full = gitio.probe_commit(repo, info["prefix"])
    assert outcome == "ambiguous"
    assert full is None


def test_commit_timestamp_known_dates(linear_repo):
    rb, shas = linear_repo
    repo = RepoHandle(rb.path)
    from repo_helpers import BASE_EPOCH

    assert gitio.commit_timestamp(repo, shas[0]) == BASE_EPOCH + 86400
    stamps = [gitio.commit_timestamp(repo, sha) for sha in shas]
    assert stamps == sorted(stamps)
    with pytest.raises(gitio.CommitNotFound):
        gitio.commit_timestamp(repo, "deadbeef" * 5)


def test_run_git_deterministic_output(linear_handle):
    repo, shas = linear_handle
    first = gitio.run_git(repo, ["show", "--no-color", shas[1]])
    second = gitio.run_git(repo, ["show", "--no-color", shas[1]])
    assert first.stdout == second.stdout


def test_gateway_never_mutates_repo(linear_repo):
    rb, shas = linear_repo
    before = object_set_digest(rb.path)
    repo = RepoHandle(rb.path)
    gitio.run_git(repo, ["show", shas[2]])
    gitio.run_git(repo, ["blame", shas[2], "--", "a.c"])
    gitio.run_git(repo, ["log", "-Sadd", "--all"])
    gitio.run_git(repo, ["grep", "-n", "add", shas[0]])
    gitio.run_git(repo, ["diff", shas[0], shas[2]])
    assert object_set_digest(rb.path) == before


def test_process_count_instrumentation(linear_handle):
    repo, _ = linear_handle
    start = repo.process_count
    gitio.run_git(repo, ["rev-parse", "HEAD"])
    gitio.run_git(repo, ["rev-parse", "HEAD"])
    assert repo.process_count == start + 2


def test_output_decoded_as_utf8(tmp_path, monkeypatch):
    rb = RepoBuilder(tmp_path / "utf8")
    line = "naïve café — 日本語 ✓"
    rb.commit({"u.txt": f"{line}\n"}, "añadir ü")
    seen = []
    real_run = subprocess.run

    def recording_run(*args, **kwargs):
        seen.append(kwargs)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(gitio.subprocess, "run", recording_run)
    repo = RepoHandle(rb.path)
    out = gitio.run_git(repo, ["blame", "--porcelain", "HEAD", "--", "u.txt"])
    assert seen and all(
        kw["text"] and kw["encoding"] == "utf-8" and kw["errors"] == "replace" for kw in seen
    )
    [record] = parse_blame_porcelain(out.stdout)
    assert record["content"] == line
    assert record["summary"] == "añadir ü"
