"""Read-only git process gateway.

Every git invocation in this package goes through :func:`run_git`, which
enforces a subcommand allow-list, pins the environment for byte-stable
output, and kills the process at a deadline. Nothing here can write to a
repository.

The deadline bounds the read: git's stdout and stderr are read to EOF
through a selector, and git is killed if the deadline passes first. The
reap follows EOF as one blocking wait. Git's stderr closes only as git
exits, so that wait returns at once, where a wait with a timeout would
poll and sleep. Selecting on pipes needs a POSIX system.

A killed git raises GitTimeout, never an outcome a caller could misread. A
tool call turns it into an uncached retry hint; anywhere else it is the
case's error.

A RepoHandle knows its running git processes, so a case that ends early
can kill the git work it started on other threads (`RepoHandle.stop`).
"""

from __future__ import annotations

import os
import re
import selectors
import subprocess
import threading
import time
from dataclasses import dataclass, field
from enum import Enum

COMMIT_ID_RE = re.compile(r"^[0-9a-f]{40}$")

# Read-only subcommands the gateway will execute. Anything else is a bug in
# the caller, not an agent-recoverable condition.
ALLOWED_SUBCOMMANDS = frozenset({"show", "blame", "log", "grep"})

DEFAULT_TIMEOUT = 30.0

# Bytes per pipe read: the size of Linux's default pipe buffer.
_READ_SIZE = 65536

# How git's stderr starts when the handle's path is no repository at all.
_NO_REPO_ERRORS = ("fatal: not a git repository", "fatal: cannot change to")
# How it starts when another user owns the repository. Git refuses such a
# repository because its config could name a command for git to run (a diff
# textconv filter, say); bictrace keeps that guard.
_NOT_OWNER_ERROR = "fatal: detected dubious ownership"


class GitGatewayError(Exception):
    """Base class for gateway failures."""


class NonAllowlistedCommand(GitGatewayError):
    """A caller asked for a subcommand outside the read-only allow-list."""


class RepoUnavailable(GitGatewayError):
    """The path does not contain a usable git object database."""


class CommitNotFound(GitGatewayError):
    """A commit id that was expected to exist does not resolve."""


class GitTimeout(GitGatewayError):
    """Git was killed at the gateway's deadline."""


class GitStopped(GitGatewayError):
    """The handle was stopped, so it starts no more git processes."""


class GitStatus(Enum):
    OK = "ok"
    NONZERO_EXIT = "nonzero_exit"
    TIMED_OUT = "timed_out"


@dataclass
class GitOutcome:
    """What one git process printed. From `_spawn`, stdout is still bytes."""

    status: GitStatus
    stdout: str
    stderr: str


@dataclass
class RepoHandle:
    """A local repository path.

    Construction starts no process: a path that is not a repository is
    reported by the first git call (RepoUnavailable). Threads may run git
    through one handle at once, as the calls of one model message do. Its
    mutable state, guarded by one lock, is the spawn counter (for cost
    accounting and cache tests) and the set of running git processes,
    which `stop` kills.
    """

    root_path: str
    process_count: int = field(default=0, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, compare=False,
                                  repr=False)
    _running: set | None = field(default_factory=set, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.root_path = os.path.abspath(self.root_path)

    def stop(self):
        """Kill this handle's running git processes, and each later one as it starts.

        For a case that ends early: the git work it started on other threads
        ends at once. Each git call running or started since raises GitStopped,
        never an outcome a caller could misread.
        """
        with self._lock:
            for proc in self._running or ():
                proc.kill()
            self._running = None

    def _track(self, proc: subprocess.Popen):
        with self._lock:
            if self._running is None:
                proc.kill()
                raise GitStopped(f"git work on {self.root_path} was stopped")
            self._running.add(proc)

    def _untrack(self, proc: subprocess.Popen):
        # Before the reap, so `stop` never signals a reaped process's id.
        with self._lock:
            if self._running is None:  # `stop` may have killed it: what it printed is no answer
                raise GitStopped(f"git work on {self.root_path} was stopped")
            self._running.discard(proc)


# Repository config keys pinned to git's own defaults, at command-line precedence.
# The fix's `git_show` is rendered from the fix read (caseprep), which holds only
# while `git show` prints the medium format with full ids, default dates, no
# decorations or signatures, mailmapped authors as %aN/%aE print them, the fix
# read's 3 lines of context, and messages in UTF-8 as %B prints them.
_PINNED_CONFIG = (
    ("format.pretty", "medium"),
    ("log.abbrevCommit", "false"),
    ("log.date", "default"),
    ("log.decorate", "no"),
    ("log.showSignature", "false"),
    ("log.mailmap", "true"),
    ("diff.context", "3"),
    ("i18n.logOutputEncoding", "UTF-8"),
)
_CONFIG_ENV = {
    "GIT_CONFIG_COUNT": str(len(_PINNED_CONFIG)),
    **{f"GIT_CONFIG_KEY_{n}": key for n, (key, _) in enumerate(_PINNED_CONFIG)},
    **{f"GIT_CONFIG_VALUE_{n}": value for n, (_, value) in enumerate(_PINNED_CONFIG)},
}


def _pinned_env() -> dict:
    # Fixed locale, no user/system config, no pager: output must be
    # byte-identical across machines for golden tests and replay.
    return {
        **_CONFIG_ENV,
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LC_ALL": "C",
        "LANG": "C",
        "TZ": "UTC",
        "HOME": os.environ.get("HOME", "/"),
        "GIT_CONFIG_GLOBAL": os.devnull,
        "GIT_CONFIG_SYSTEM": os.devnull,
        "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_TERMINAL_PROMPT": "0",
        "GIT_OPTIONAL_LOCKS": "0",
        "GIT_PAGER": "cat",
        "PAGER": "cat",
    }


def _decode(data: bytes, errors: str = "replace") -> str:
    # Invalid UTF-8 becomes U+FFFD, or under "surrogateescape" the lone
    # surrogate that os.fsencode turns back into the same byte. Only CRLF
    # becomes LF: a lone CR is part of a line to git (file content,
    # messages, names), so it stays.
    return data.decode("utf-8", errors).replace("\r\n", "\n")


def readable(text: str) -> str:
    """Text that run_git read with `names`, as it reads text by default (U+FFFD)."""
    return text.encode("utf-8", "surrogateescape").decode("utf-8", "replace")


def _spawn(repo: RepoHandle, args: list[str], timeout: float) -> GitOutcome:
    cmd = ["git", "-C", repo.root_path, "--no-pager", *args]
    deadline = time.monotonic() + timeout
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_pinned_env()
    ) as proc, selectors.DefaultSelector() as sel:
        repo._track(proc)
        chunks = {proc.stdout: [], proc.stderr: []}
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        try:
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, _READ_SIZE)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        finally:
            timed_out = bool(sel.get_map())
            if timed_out:
                proc.kill()
            repo._untrack(proc)
        returncode = proc.wait()
    if timed_out:
        return GitOutcome(GitStatus.TIMED_OUT, b"", "")
    status = GitStatus.OK if returncode == 0 else GitStatus.NONZERO_EXIT
    # run_git decodes stdout once, the way its caller asks.
    return GitOutcome(status, b"".join(chunks[proc.stdout]), _decode(b"".join(chunks[proc.stderr])))


def run_git(repo: RepoHandle, args: list[str], names: bool = False) -> GitOutcome:
    """Run an allow-listed git subcommand and capture its outcome.

    Stdout is read as UTF-8, and an invalid byte becomes U+FFFD, so the text
    is fit for the model and for JSON. With `names`, an invalid byte becomes
    a lone surrogate instead, so a path name read from the output reaches
    git's argv unchanged; `readable` turns such text into the default form.

    Raises NonAllowlistedCommand for anything outside the read-only set;
    that is a programming error, never surfaced to the agent. Raises
    RepoUnavailable when the path is not a repository (or not a directory,
    or another user's), and GitTimeout when git outlives DEFAULT_TIMEOUT,
    read at call time.
    """
    if not args or args[0] not in ALLOWED_SUBCOMMANDS:
        raise NonAllowlistedCommand(f"refusing git subcommand: {args[:1] or '(empty)'}")
    with repo._lock:
        repo.process_count += 1
    out = _spawn(repo, args, DEFAULT_TIMEOUT)
    if out.status is GitStatus.TIMED_OUT:
        raise GitTimeout(f"git {args[0]} timed out after {DEFAULT_TIMEOUT:g}s")
    if out.status is GitStatus.NONZERO_EXIT:
        if out.stderr.startswith(_NO_REPO_ERRORS):
            raise RepoUnavailable(f"{repo.root_path} is not a git repository: {out.stderr.strip()}")
        if out.stderr.startswith(_NOT_OWNER_ERROR):
            raise RepoUnavailable(f"{repo.root_path} is owned by another user, so git refuses to "
                                  "read it (dubious ownership); run bictrace as the clone's owner")
    out.stdout = _decode(out.stdout, "surrogateescape" if names else "replace")
    return out


def probe_commit(repo: RepoHandle, ref_text: str) -> tuple[str, str | None, int | None]:
    """Resolve ref_text to a commit and read its committer time, in one call.

    Returns ("resolved", full_id, committer_time), ("ambiguous", None, None)
    or ("not_found", None, None). With the trailing "--" a missing commit is
    a bad revision, so only a short-id collision reads as ambiguous.
    """
    if not ref_text:
        raise ValueError("empty ref text")
    out = run_git(repo, ["show", "-s", "--format=%H%n%ct", f"{ref_text}^{{commit}}", "--"])
    if out.status is GitStatus.OK:
        full, _, stamp = out.stdout.partition("\n")
        if COMMIT_ID_RE.match(full):
            return "resolved", full, int(stamp)
        return "not_found", None, None
    if "ambiguous" in out.stderr:
        return "ambiguous", None, None
    return "not_found", None, None
