"""Initial-context assembly for one investigation case.

Pulls the bug-fixing commit's message and diff, scrubs anything that could
reveal the answer (Fixes trailers, hash-like tokens), extracts the temporal
bound, and renders the system prompt from the shipped template. Also holds
the JSON readers that every input file (dataset, results, config, script,
transcript) goes through.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources

from . import gitio
from .gitio import RepoHandle
from .tools import tool_schemas

HASH_PLACEHOLDER = "[commit-ref-removed]"

_FIXES_LINE_RE = re.compile(r"^\s*Fixes:\s", re.IGNORECASE)
# A message line whose tabs render_message expands: printable ASCII and tabs.
_TAB_LINE_RE = re.compile(r"[\t\x20-\x7e]*")
# Pathspec characters that match more than the name they spell.
_PATHSPEC_GLOB = set("*?[\\")
HEX_TOKEN_RE = re.compile(r"\b[0-9a-fA-F]{7,40}\b")

TRAILER_KEYS = (
    "Signed-off-by",
    "Reviewed-by",
    "Acked-by",
    "Tested-by",
    "Reported-by",
    "Cc",
    "Link",
    "Suggested-by",
    "Co-developed-by",
)

# Column 0 or an indent of >= 2 spaces / a tab: commit-message positions.
# Exactly one leading space means a unified-diff context line, never touched.
_TRAILER_RE = re.compile(
    r"^(?:\t| {2,})?(?:%s):\s" % "|".join(TRAILER_KEYS), re.IGNORECASE
)


class RootCommit(Exception):
    """The fix commit has no parent, so there is no pre-fix state to blame."""


def _parse_json(path: str, line: int, data: bytes, error: type[Exception]):
    """`data`, read from `path` from line `line` on, as JSON; `error` names where it is not."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line += data.count(b"\n", 0, exc.start)
        raise error(f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x} ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{line + exc.lineno - 1}: not JSON: {exc.msg} at column {exc.colno}") from None


def read_json(path: str):
    """The JSON value a whole UTF-8 file holds; a ValueError names `path:line` where it is not one."""
    with open(path, "rb") as f:
        return _parse_json(path, 1, f.read(), ValueError)


def read_json_lines(path: str, error: type[Exception], comments: bool = False,
                    data: bytes | None = None) -> list[tuple[int, dict]]:
    """Each nonblank line of a line-delimited JSON file, and its number; each holds one object.

    `data` is the file's bytes when the caller has read them already. With
    `comments`, a line that starts with "#" is skipped too. A line that is
    not UTF-8, not JSON or not an object raises `error` naming `path:line`.
    """
    if data is None:
        with open(path, "rb") as f:
            data = f.read()
    records = []
    for i, line in enumerate(data.split(b"\n"), start=1):
        line = line.strip()
        if not line or (comments and line.startswith(b"#")):
            continue
        record = _parse_json(path, i, line, error)
        if not isinstance(record, dict):
            raise error(f"{path}:{i}: record is not a JSON object")
        records.append((i, record))
    return records


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
    changed_files: list[str]  # names as git's argv takes them: an invalid UTF-8 byte is a lone surrogate
    deleted_or_modified_lines: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    # What `git show --no-color <fix>` prints before its diff, or None where only git
    # can print it: a merge, an encoding header, notes or a message line render_message
    # refuses.
    show_header: str | None = None
    # Per `diff --git` section of diff_text, the names of its --raw entry: old and new
    # for a rename or copy, else one.
    section_paths: list[tuple[str, ...]] = field(default_factory=list)

    def git_show(self, file_filter: str | None = None) -> str | None:
        """`git show --no-color <fix> [-- <file_filter>]` as run_git reads it; None where git must run.

        A filter is served when it names a file the fix touches exactly and
        that file's section is no rename or copy: a pathspec limits rename
        detection, so git would print the new name as a created file.
        """
        if self.show_header is None:
            return None
        diff = self.diff_text
        if file_filter:
            if file_filter.startswith(":") or _PATHSPEC_GLOB & set(file_filter):
                return None
            kept = []
            for names, text in zip(self.section_paths, re.split(r"(?m)^(?=diff --git )", diff)[1:]):
                if file_filter in names and len(names) == 1:
                    kept.append(text)
                elif file_filter in names or any(n.startswith(file_filter + "/") for n in names):
                    return None
            if not kept:
                return None
            diff = "".join(kept)
        return self.show_header + "\n" + diff if diff else self.show_header


@dataclass
class InitialContext:
    system_prompt: str
    tool_specs: list[dict]


def strip_trailers(message: str) -> str:
    """Drop metadata trailer lines; everything else stays verbatim."""
    return "\n".join(ln for ln in message.split("\n") if not _TRAILER_RE.match(ln))


def redact_leakage(message: str) -> str:
    """Remove Fixes trailers and hash-like tokens from a commit message.

    Any standalone hexadecimal run of 7-40 characters could be (part of)
    the answer, so all of them are replaced regardless of dataset.
    """
    kept = [ln for ln in message.split("\n") if not _FIXES_LINE_RE.match(ln)]
    return HEX_TOKEN_RE.sub(HASH_PLACEHOLDER, "\n".join(kept))


_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def preimage_lines_from_diff(diff_text: str, names: list[str | None]) -> dict[str, list[tuple[int, str]]]:
    """Per-file pre-image (line number, text) pairs for '-' lines of a diff.

    `names` holds each `diff --git` section's pre-image name in order (None
    for a created file). A hunk runs for as many lines as its header counts,
    so a removed line reading "-- note" (shown as "--- note") is content.
    """
    result: dict[str, list[tuple[int, str]]] = {}
    sections = iter(names)
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
        if ln.startswith("diff --git "):
            current_file = next(sections)
            continue
        m = _HUNK_RE.match(ln)
        if m:
            old_line = int(m.group(1))
            old_left = int(m.group(2) or 1)
            new_left = int(m.group(4) or 1)
    return result


def render_message(message: str) -> str | None:
    """A commit message as `git show`'s medium format prints it, or None where only git can.

    Git drops leading and trailing blank lines, strips each line's trailing
    whitespace (space, tab, CR), expands its tabs to 8 columns and indents
    it by 4 spaces. A tab's column counts display widths, which only git
    knows beyond printable ASCII, so such a line is refused.
    """
    lines = [ln.rstrip(" \t\r") for ln in message.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    out = []
    for ln in lines[next((i for i, ln in enumerate(lines) if ln), len(lines)):]:
        if "\t" in ln:
            if not _TAB_LINE_RE.fullmatch(ln):
                return None
            ln = ln.expandtabs(8)
        out.append(f"    {ln}\n")
    return "".join(out)


def load_fix_context(repo: RepoHandle, fix: str) -> FixContext:
    """Everything the agent and the baselines know about the fix, in one git call."""
    # A name with a leading "-" (an option) or "^", or with "..", is never one commit.
    if fix.startswith(("-", "^")) or ".." in fix:
        raise gitio.CommitNotFound(f"fix commit {fix!r} does not resolve")
    # The fields of `git show`'s default header follow the id, parents and date.
    out = gitio.run_git(repo, [
        "show", "--no-color", "--unified=3",
        "--format=%H%x00%P%x00%ct%x00%e%x00%aN%x00%aE%x00%ad%x00%N%x00%B%x00",
        "--raw", "-z", "-p", "--diff-merges=first-parent", f"{fix}^{{commit}}", "--",
    ], names=True)
    if out.status is not gitio.GitStatus.OK:
        raise gitio.CommitNotFound(f"fix commit {fix!r} does not resolve")
    # The fields, each NUL-terminated; NUL; then, unless the diff is empty, a newline,
    # the NUL-terminated fields of each --raw entry, one more NUL and the patch.
    fix_id, parents, fix_date, encoding, author, email, date, notes, message, body = (
        out.stdout.split("\0", 9))
    # Blame porcelain, the answer probe and dataset bics all read 40-hex ids.
    if not gitio.COMMIT_ID_RE.match(fix_id):
        raise gitio.RepoUnavailable(f"{repo.root_path}: fix commit id {fix_id} has {len(fix_id)} hex "
                                    "digits; bictrace reads only the sha1 object format (40)")
    if not parents:
        raise RootCommit(f"fix commit {fix_id} has no parent")
    raw, _, diff = body[2:].partition("\0\0")
    diff = gitio.readable(diff)  # only the --raw names go back to git

    # An entry: metadata (status letter last), then its path, or old and new for a rename
    # or copy. A type change (file <-> symlink) prints two sections: deletion, creation.
    changed_files, section_paths, section_names = [], [], []
    fields = iter(raw.split("\0") if raw else ())
    for meta in fields:
        status = meta.rsplit(" ", 1)[-1][0]
        names = (next(fields), next(fields)) if status in "RC" else (next(fields),)
        changed_files.append(names[-1])
        section_paths += [names] * (2 if status == "T" else 1)
        section_names += {"A": [None], "T": [names[0], None]}.get(status, [names[0]])

    # A merge prints a combined diff, and an encoding header or notes change the header.
    shown = None if " " in parents or encoding or notes else render_message(message)
    return FixContext(
        fix_id=fix_id,
        fix_parent=parents.split()[0],
        fix_date=int(fix_date),
        message_redacted=redact_leakage(strip_trailers(gitio.readable(message))),
        diff_text=diff,
        changed_files=changed_files,
        deleted_or_modified_lines=preimage_lines_from_diff(diff, section_names),
        show_header=None if shown is None else gitio.readable(
            f"commit {fix_id}\nAuthor: {author} <{email}>\nDate:   {date}\n"
            + ("\n" + shown if shown else "")),
        section_paths=section_paths,
    )


def render_fix_block(fc: FixContext) -> str:
    # The parent is referenced symbolically: printing its id would leak the
    # answer whenever the bug was introduced by the immediately preceding
    # commit. Blame and grep default to the parent revision server-side.
    files = "\n".join(f"  - {gitio.readable(p)}" for p in fc.changed_files) or "  (none)"
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


def default_template() -> str:
    """The investigation system-prompt template shipped with the package."""
    path = resources.files("bictrace").joinpath("assets/investigation_prompt.txt")
    return path.read_text(encoding="utf-8")


def assemble_initial_context(fc: FixContext) -> InitialContext:
    system_prompt = default_template().replace("{{fix_block}}", render_fix_block(fc)).replace(
        "{{constraints_block}}", render_constraints_block(fc)
    )
    return InitialContext(system_prompt=system_prompt, tool_specs=tool_schemas())
