"""Initial-context assembly for one investigation case.

Pulls the bug-fixing commit's message and diff, scrubs anything that could
reveal the answer (Fixes trailers, hash-like tokens), extracts the temporal
bound, and renders the system prompt from the shipped template.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import gitio
from .compress import strip_trailers
from .gitio import RepoHandle
from .prompts import default_template
from .tools import tool_schemas

HASH_PLACEHOLDER = "[commit-ref-removed]"

_FIXES_LINE_RE = re.compile(r"^\s*Fixes:\s", re.IGNORECASE)
HEX_TOKEN_RE = re.compile(r"\b[0-9a-fA-F]{7,40}\b")


class RootCommit(Exception):
    """The fix commit has no parent, so there is no pre-fix state to blame."""


@dataclass
class CaseSpec:
    repo_path: str
    fix_commit: str
    ground_truth: set[str] | None = None
    dataset_tag: str = ""
    case_id: str = ""

    def __post_init__(self):
        if not self.case_id:
            self.case_id = f"{self.dataset_tag or 'case'}:{self.fix_commit[:12]}"


@dataclass
class FixContext:
    fix_id: str
    fix_parent: str
    fix_date: int
    message_redacted: str
    diff_text: str
    changed_files: list[str]
    deleted_or_modified_lines: dict[str, list[tuple[int, str]]] = field(default_factory=dict)


@dataclass
class InitialContext:
    system_prompt: str
    tool_specs: list[dict]


def redact_leakage(message: str) -> str:
    """Remove Fixes trailers and hash-like tokens from a commit message.

    Any standalone hexadecimal run of 7-40 characters could be (part of)
    the answer, so all of them are replaced regardless of dataset.
    """
    kept = [ln for ln in message.splitlines() if not _FIXES_LINE_RE.match(ln)]
    out = "\n".join(kept)
    out = HEX_TOKEN_RE.sub(HASH_PLACEHOLDER, out)
    if message.endswith("\n") and out and not out.endswith("\n"):
        out += "\n"
    return out


_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")

# git's C-style quoting of unusual path names: "caf\303\251.c", "tab\tname".
_QUOTED_ESCAPE_RE = re.compile(rb"\\([0-7]{3}|.)")
_C_ESCAPES = {b"a": 7, b"b": 8, b"t": 9, b"n": 10, b"v": 11, b"f": 12, b"r": 13}


def unquote_path(name: str) -> str:
    """A path as git printed it, with its quoting (if any) undone."""
    if len(name) < 2 or name[0] != '"' or name[-1] != '"':
        return name

    def byte(m: re.Match) -> bytes:
        esc = m.group(1)
        return bytes([int(esc, 8) if len(esc) == 3 else _C_ESCAPES.get(esc, esc[0])])

    return _QUOTED_ESCAPE_RE.sub(byte, name[1:-1].encode()).decode("utf-8", "replace")


def preimage_lines_from_diff(diff_text: str) -> dict[str, list[tuple[int, str]]]:
    """Per-file pre-image (line number, text) pairs for '-' lines of a diff.

    A hunk runs for as many lines as its header counts, so a removed line
    reading "-- note" (shown as "--- note") is content, not a file header.
    """
    result: dict[str, list[tuple[int, str]]] = {}
    current_file = None
    old_line = old_left = new_left = 0
    for ln in diff_text.split("\n"):
        if old_left > 0 or new_left > 0:
            tag = ln[:1]
            if tag == "-":
                if current_file is not None:
                    result.setdefault(current_file, []).append((old_line, ln[1:]))
                old_line += 1
                old_left -= 1
            elif tag == "+":
                new_left -= 1
            elif tag != "\\":
                old_line += 1
                old_left -= 1
                new_left -= 1
            continue
        if ln.startswith("--- "):
            name = unquote_path(ln[4:].split("\t")[0])
            current_file = None if name == "/dev/null" else name.removeprefix("a/")
            continue
        m = _HUNK_RE.match(ln)
        if m:
            old_line = int(m.group(1))
            old_left = int(m.group(2) or 1)
            new_left = int(m.group(4) or 1)
    return result


def load_fix_context(repo: RepoHandle, fix: str) -> FixContext:
    """Everything the agent and the baselines know about the fix, in three git calls."""
    # --verify accepts exactly one revision: a range or an ambiguous ref fails here.
    out = gitio.run_git(repo, ["rev-parse", "--verify", f"{fix}^{{commit}}"])
    fix_id = out.stdout.strip()
    if out.status is not gitio.GitStatus.OK or not gitio.COMMIT_ID_RE.match(fix_id):
        raise gitio.CommitNotFound(f"fix commit {fix!r} does not resolve")
    out = gitio.run_git(repo, ["show", "-s", "--format=%P%n%ct%n%B", fix_id])
    if out.status is not gitio.GitStatus.OK:
        raise gitio.CommitNotFound(f"cannot read fix commit {fix_id}: {out.stderr.strip()}")
    parents, fix_date, message = out.stdout.split("\n", 2)
    if not parents:
        raise RootCommit(f"fix commit {fix_id} has no parent")
    parent = parents.split()[0]

    # --raw lines (one per changed file, path last), a blank line, the patch.
    raw, _, diff = gitio.run_git(
        repo, ["diff", "--no-color", "--unified=3", "--raw", "-p", parent, fix_id]
    ).stdout.partition("\n\n")
    changed_files = [
        unquote_path(ln.rsplit("\t", 1)[-1]) for ln in raw.splitlines() if ln.startswith(":")
    ]

    return FixContext(
        fix_id=fix_id,
        fix_parent=parent,
        fix_date=int(fix_date),
        message_redacted=redact_leakage(strip_trailers(message)),
        diff_text=diff,
        changed_files=changed_files,
        deleted_or_modified_lines=preimage_lines_from_diff(diff),
    )


def render_fix_block(fc: FixContext) -> str:
    # The parent is referenced symbolically: printing its id would leak the
    # answer whenever the bug was introduced by the immediately preceding
    # commit. Blame and grep default to the parent revision server-side.
    files = "\n".join(f"  - {p}" for p in fc.changed_files) or "  (none)"
    return (
        f"Bug-fixing commit: {fc.fix_id}\n"
        f"Pre-fix state: {fc.fix_id}~1 (the default revision for git_blame and git_grep)\n"
        f"Changed files:\n{files}\n\n"
        f"Commit message (metadata removed):\n{fc.message_redacted.rstrip()}\n\n"
        f"Diff against the parent:\n{fc.diff_text.rstrip()}"
    )


def render_constraints_block(fc: FixContext) -> str:
    when = datetime.fromtimestamp(fc.fix_date, tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M:%S UTC"
    )
    return (
        f"All history searches are bounded by the fix commit date: {when} "
        f"(epoch {fc.fix_date}). Any 'before' parameter later than this is "
        "capped automatically; the bug-inducing commit must predate the fix."
    )


def assemble_initial_context(fc: FixContext) -> InitialContext:
    system_prompt = default_template().replace("{{fix_block}}", render_fix_block(fc)).replace(
        "{{constraints_block}}", render_constraints_block(fc)
    )
    return InitialContext(system_prompt=system_prompt, tool_specs=tool_schemas())
