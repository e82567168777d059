"""Read-only git process gateway.

Every git invocation in this package goes through :func:`run_git`, which
enforces a subcommand allow-list, pins the environment for byte-stable
output, and kills the process at a deadline. Nothing here can write to a
repository.
"""

from __future__ import annotations

import os
import re
import subprocess
import time
from dataclasses import dataclass, field
from enum import Enum

COMMIT_ID_RE = re.compile(r"^[0-9a-f]{40}$")

# Read-only subcommands the gateway will execute. Anything else is a bug in
# the caller, not an agent-recoverable condition.
ALLOWED_SUBCOMMANDS = frozenset({"show", "blame", "log", "grep", "rev-parse", "diff"})

DEFAULT_TIMEOUT = 30.0


class GitGatewayError(Exception):
    """Base class for gateway failures."""


class NonAllowlistedCommand(GitGatewayError):
    """A caller asked for a subcommand outside the read-only allow-list."""


class RepoUnavailable(GitGatewayError):
    """The path does not contain a usable git object database."""


class CommitNotFound(GitGatewayError):
    """A commit id that was expected to exist does not resolve."""


class GitStatus(Enum):
    OK = "ok"
    NONZERO_EXIT = "nonzero_exit"
    TIMED_OUT = "timed_out"


@dataclass
class GitOutcome:
    status: GitStatus
    stdout: str
    stderr: str
    elapsed: float


@dataclass
class RepoHandle:
    """A validated local repository plus per-call defaults.

    Safe for concurrent read-only use; the only mutable state is the spawn
    counter, which exists for cost accounting and cache tests.
    """

    root_path: str
    default_timeout: float = DEFAULT_TIMEOUT
    process_count: int = field(default=0, compare=False)

    def __post_init__(self):
        self.root_path = os.path.abspath(self.root_path)
        # Validity probe always gets a sane deadline; default_timeout may be
        # tuned very low by tests exercising the timeout-recovery path.
        probe = _spawn(self.root_path, ["rev-parse", "--git-dir"], max(self.default_timeout, DEFAULT_TIMEOUT))
        if probe.status is not GitStatus.OK:
            raise RepoUnavailable(
                f"{self.root_path} is not a git repository: {probe.stderr.strip()}"
            )


def _pinned_env() -> dict:
    # Fixed locale, no user/system config, no pager: output must be
    # byte-identical across machines for golden tests and replay.
    return {
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


def _spawn(root: str, args: list[str], timeout: float) -> GitOutcome:
    cmd = ["git", "-C", root, "--no-pager", *args]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            encoding="utf-8",
            errors="replace",
            timeout=timeout,
            env=_pinned_env(),
        )
    except subprocess.TimeoutExpired:
        elapsed = time.monotonic() - start
        return GitOutcome(GitStatus.TIMED_OUT, "", "", max(elapsed, timeout))
    elapsed = time.monotonic() - start
    status = GitStatus.OK if proc.returncode == 0 else GitStatus.NONZERO_EXIT
    return GitOutcome(status, proc.stdout, proc.stderr, elapsed)


def run_git(repo: RepoHandle, args: list[str]) -> GitOutcome:
    """Run an allow-listed git subcommand and capture its outcome.

    Raises NonAllowlistedCommand for anything outside the read-only set;
    that is a programming error, never surfaced to the agent.
    """
    if not args or args[0] not in ALLOWED_SUBCOMMANDS:
        raise NonAllowlistedCommand(f"refusing git subcommand: {args[:1] or '(empty)'}")
    repo.process_count += 1
    return _spawn(repo.root_path, args, repo.default_timeout)


def probe_commit(repo: RepoHandle, ref_text: str) -> tuple[str, str | None]:
    """Resolve ref_text to a commit, distinguishing ambiguity from absence.

    Returns ("resolved", full_id), ("ambiguous", None) or ("not_found", None).
    """
    if not ref_text:
        raise ValueError("empty ref text")
    out = run_git(repo, ["rev-parse", "--verify", f"{ref_text}^{{commit}}"])
    if out.status is GitStatus.OK:
        full = out.stdout.strip()
        if COMMIT_ID_RE.match(full):
            return "resolved", full
        return "not_found", None
    if "ambiguous" in out.stderr:
        return "ambiguous", None
    return "not_found", None


def resolve_commit(repo: RepoHandle, ref_text: str) -> str | None:
    """Full 40-hex commit id for ref_text, or None (absent or ambiguous)."""
    outcome, full = probe_commit(repo, ref_text)
    return full if outcome == "resolved" else None


def commit_timestamp(repo: RepoHandle, commit: str) -> int:
    """Committer timestamp (seconds since epoch); the temporal search bound."""
    out = run_git(repo, ["show", "-s", "--format=%ct", commit])
    if out.status is not GitStatus.OK:
        raise CommitNotFound(f"cannot read timestamp of {commit}: {out.stderr.strip()}")
    return int(out.stdout.strip().splitlines()[-1])

