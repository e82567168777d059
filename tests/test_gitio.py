"""Gateway behavior: allow-list, timeouts, resolution, read-only output."""

import os
import re
import subprocess
import sys
import threading

import pytest

from repo_helpers import BASE_EPOCH, RepoBuilder, committer_time, object_set_digest

from bictrace import gitio
from bictrace.gitio import (
    GitStatus,
    GitStopped,
    GitTimeout,
    NonAllowlistedCommand,
    RepoHandle,
    RepoUnavailable,
)
from bictrace.tools import blame_records


def test_run_git_identity_probe(linear_handle):
    repo, _ = linear_handle
    out = gitio.run_git(repo, ["show", "-s", "--format=%H", "HEAD"])
    assert out.status is GitStatus.OK
    assert gitio.COMMIT_ID_RE.match(out.stdout.strip())


def test_run_git_rejects_write_commands(linear_handle):
    repo, _ = linear_handle
    for args in (["push"], ["commit", "-m", "x"], ["gc"], ["rev-list", "HEAD"],
                 ["cat-file", "-p", "HEAD"], ["rev-parse", "HEAD"],
                 ["diff", "HEAD~1", "HEAD"], []):
        with pytest.raises(NonAllowlistedCommand):
            gitio.run_git(repo, args)


def test_run_git_timeout(slow_repo, monkeypatch):
    pids = []
    real_init = subprocess.Popen.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        pids.append(self.pid)

    monkeypatch.setattr(subprocess.Popen, "__init__", init)
    monkeypatch.setattr(gitio, "DEFAULT_TIMEOUT", 0.001)
    repo = RepoHandle(slow_repo.path)
    with pytest.raises(GitTimeout, match="git log timed out after 0.001s"):
        gitio.run_git(repo, ["log", "-Sx", "--all"])
    # The killed git is reaped, not left a zombie.
    (pid,) = pids
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_handle_construction_starts_no_process(tmp_path, monkeypatch):
    spawned = []
    monkeypatch.setattr(gitio, "_spawn", lambda *a: spawned.append(a))
    repo = RepoHandle(str(tmp_path / "anything"))
    assert spawned == [] and repo.process_count == 0


def test_repo_unavailable(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    for path in (tmp_path / "not-a-repo", plain):
        repo = RepoHandle(str(path))
        with pytest.raises(RepoUnavailable, match=re.escape(f"{path} is not a git repository")):
            gitio.run_git(repo, ["show", "-s", "--format=%H", "HEAD"])
        assert repo.process_count == 1


def test_resolve_commit_identity_and_prefix(linear_handle):
    repo, shas = linear_handle
    full = shas[0]
    stamp = committer_time(repo.root_path, full)
    assert gitio.probe_commit(repo, full) == ("resolved", full, stamp)
    assert gitio.probe_commit(repo, full[:12]) == ("resolved", full, stamp)
    assert gitio.probe_commit(repo, "zzzz") == ("not_found", None, None)
    assert gitio.probe_commit(repo, "deadbeef" * 5) == ("not_found", None, None)


def test_resolve_commit_idempotent(linear_handle):
    repo, shas = linear_handle
    for sha in shas:
        outcome, resolved, stamp = gitio.probe_commit(repo, sha)
        assert (outcome, resolved) == ("resolved", sha)
        assert gitio.probe_commit(repo, resolved) == ("resolved", resolved, stamp)


def test_resolve_rejects_empty(linear_handle):
    repo, _ = linear_handle
    with pytest.raises(ValueError):
        gitio.probe_commit(repo, "")


def test_probe_commit_ambiguous(prefix_repo):
    rb, info = prefix_repo
    repo = RepoHandle(rb.path)
    assert gitio.probe_commit(repo, info["prefix"]) == ("ambiguous", None, None)


def test_probe_commit_rejects_tree(linear_repo):
    rb, _ = linear_repo
    tree = rb.git("rev-parse", "HEAD^{tree}").strip()
    assert gitio.probe_commit(RepoHandle(rb.path), tree) == ("not_found", None, None)


def test_commit_timestamp_known_dates(linear_repo):
    rb, shas = linear_repo
    repo = RepoHandle(rb.path)
    assert gitio.probe_commit(repo, shas[0])[2] == BASE_EPOCH + 86400
    stamps = [gitio.probe_commit(repo, sha)[2] for sha in shas]
    assert stamps == sorted(stamps)
    assert stamps == [committer_time(rb.path, sha) for sha in shas]
    assert gitio.probe_commit(repo, "deadbeef" * 5) == ("not_found", None, None)
    assert repo.process_count == 1 + len(shas) + 1


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
    assert object_set_digest(rb.path) == before


def test_process_count_instrumentation(linear_handle):
    repo, _ = linear_handle
    start = repo.process_count
    gitio.run_git(repo, ["show", "-s", "--format=%H", "HEAD"])
    gitio.run_git(repo, ["show", "-s", "--format=%H", "HEAD"])
    assert repo.process_count == start + 2


def test_process_count_is_exact_across_threads(linear_handle):
    repo, _ = linear_handle
    start = repo.process_count

    def spawn_25():
        for _ in range(25):
            gitio.run_git(repo, ["show", "-s", "--format=%H", "HEAD"])

    threads = [threading.Thread(target=spawn_25) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert repo.process_count == start + 200


def test_stopped_handle_kills_running_and_later_git(linear_handle, monkeypatch):
    repo, _ = linear_handle
    started, procs = threading.Event(), []
    real_init = subprocess.Popen.__init__

    def init(self, args, **kwargs):  # every git runs as a process that outlives the test
        real_init(self, ["sleep", "30"], **kwargs)
        procs.append(self)
        started.set()

    monkeypatch.setattr(subprocess.Popen, "__init__", init)
    raised = []

    def run():  # the killed git's outcome (a nonzero exit) is never handed back
        try:
            gitio.run_git(repo, ["show", "-s", "HEAD"])
        except GitStopped as exc:
            raised.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    assert started.wait(10)
    repo.stop()
    worker.join(10)
    assert not worker.is_alive() and len(raised) == 1
    with pytest.raises(GitStopped):
        gitio.run_git(repo, ["show", "-s", "HEAD"])
    assert [proc.returncode for proc in procs] == [-9, -9]


def test_output_decoded_as_utf8(tmp_path):
    rb = RepoBuilder(tmp_path / "utf8")
    line = "naïve café — 日本語 ✓"
    (tmp_path / "utf8" / "b.txt").write_bytes(b"caf\xe9\r\nx\ry\n")
    rb.commit({"u.txt": f"{line}\n"}, "añadir ü")
    repo = RepoHandle(rb.path)
    out = gitio.run_git(repo, ["blame", "--porcelain", "HEAD", "--", "u.txt"])
    [record], _ = blame_records(out.stdout)
    assert record["content"] == line
    assert record["summary"] == "añadir ü"
    # An invalid byte becomes U+FFFD; CRLF reads as LF and a lone CR stays.
    out = gitio.run_git(repo, ["show", "HEAD:b.txt"])
    assert out.stdout == "caf\ufffd\nx\ry\n"


def test_run_git_reaps_with_one_blocking_wait(linear_handle, monkeypatch):
    # A wait with a timeout polls and sleeps; after EOF the reap needs none.
    repo, _ = linear_handle
    timeouts = []
    real_wait = subprocess.Popen.wait

    def wait(self, timeout=None):
        timeouts.append(timeout)
        return real_wait(self, timeout)

    monkeypatch.setattr(subprocess.Popen, "wait", wait)
    out = gitio.run_git(repo, ["show", "-s", "--format=%H", "HEAD"])
    assert out.status is GitStatus.OK
    assert timeouts and all(t is None for t in timeouts)


def test_output_larger_than_a_pipe_buffer_is_read_whole(slow_repo):
    # The whole-file blame is about 1.5 MB, far above a 64 KiB pipe buffer.
    argv = ["blame", "--porcelain", "HEAD", "--", "bulk0.txt"]
    out = gitio.run_git(RepoHandle(slow_repo.path), argv)
    assert out.status is GitStatus.OK and len(out.stdout) > 1_000_000
    plain = subprocess.run(
        ["git", "-C", slow_repo.path, "--no-pager", *argv],
        capture_output=True, env=gitio._pinned_env(), check=True,
    )
    assert out.stdout == gitio._decode(plain.stdout)
