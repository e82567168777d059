"""The five repository-investigation tools, their calling schemas and git calls.

Each tool wraps one read-only git operation with a small, scoped parameter
set. A tool's argument class is its whole contract: its name, description,
parameters (type, required flag, description) and constraints. The JSON
function-calling schema of chat-completion endpoints and the validation
of incoming arguments are both read from those classes.

This module is the one place that knows each git call a tool or a blame
baseline makes: its argv, the revision it reads, and the grammar of what
git prints back (`blame_records` reads `--porcelain`).
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from datetime import datetime, timezone
from enum import Enum
from typing import TYPE_CHECKING, ClassVar

from . import gitio
from .gitio import GitStatus, RepoHandle

if TYPE_CHECKING:  # caseprep imports this module
    from .caseprep import FixContext


class ToolName(Enum):
    SHOW = "git_show"
    BLAME = "git_blame"
    LOG_S = "git_log_s"
    LOG_FUNC = "git_log_func"
    GREP = "git_grep"


class SchemaError(Exception):
    """Tool arguments that do not conform to the declared schema."""


class ToolError(Exception):
    """Tool-level failure the agent should see as an observation."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _param(description: str, default=MISSING):
    """A tool parameter: required unless it has a default."""
    return field(default=default, metadata={"description": description})


def _check_commit(args: ShowArgs | BlameArgs | GrepArgs):
    if (args.commit or "").startswith("-"):  # git would read it as an option, such as --output=
        raise SchemaError(f"{args.tool.value}: commit must not start with '-'")


@dataclass(frozen=True)
class ShowArgs:
    tool: ClassVar[ToolName] = ToolName.SHOW
    description: ClassVar[str] = (
        "Show a commit: header, message and diff. Use file_filter to restrict "
        "the diff to one file, stat_only for per-file change counts instead of "
        "a patch, context_lines to widen or shrink diff context."
    )
    commit: str = _param("Commit hash or ref to display.")
    file_filter: str | None = _param("Limit the diff to this path.", None)
    stat_only: bool = _param("Show per-file change counts only.", False)
    context_lines: int | None = _param("Unified diff context width.", None)

    def __post_init__(self):
        _check_commit(self)
        if self.context_lines is not None and self.context_lines < 0:
            raise SchemaError("git_show: context_lines must be >= 0")


@dataclass(frozen=True)
class BlameArgs:
    tool: ClassVar[ToolName] = ToolName.BLAME
    description: ClassVar[str] = (
        "Line-by-line last-modifying commit for a file at a revision "
        "(defaults to the parent of the bug-fixing commit). Use line_start/"
        "line_end to focus on the lines you care about."
    )
    file_path: str = _param("File to blame.")
    commit: str | None = _param("Revision to blame at.", None)
    line_start: int | None = _param("First line of the range (1-based).", None)
    line_end: int | None = _param("Last line of the range (inclusive).", None)

    def __post_init__(self):
        _check_commit(self)
        for attr in ("line_start", "line_end"):
            v = getattr(self, attr)
            if v is not None and v < 1:
                raise SchemaError(f"git_blame: {attr} must be >= 1")
        if None not in (self.line_start, self.line_end) and self.line_start > self.line_end:
            raise SchemaError("git_blame: line_start must not exceed line_end")


@dataclass(frozen=True)
class LogSArgs:
    tool: ClassVar[ToolName] = ToolName.LOG_S
    description: ClassVar[str] = (
        "History search for commits that add or remove occurrences of a "
        "literal string (identifier, expression). Optional path restriction "
        "and after/before dates (YYYY-MM-DD)."
    )
    search_string: str = _param("Literal string to search history for.")
    path: str | None = _param("Limit to commits touching this path.", None)
    after: str | None = _param("Only commits after this date.", None)
    before: str | None = _param("Only commits before this date.", None)

    def __post_init__(self):
        if not self.search_string:
            raise SchemaError("git_log_s: search_string must be non-empty")
        date_bounds(self)


@dataclass(frozen=True)
class LogFuncArgs:
    tool: ClassVar[ToolName] = ToolName.LOG_FUNC
    description: ClassVar[str] = (
        "Commit-by-commit history of one function in one file, with the "
        "diffs that touched it. Optional after/before dates (YYYY-MM-DD)."
    )
    function_name: str = _param("Function whose history to trace.")
    file_path: str = _param("File containing the function.")
    after: str | None = _param("Only commits after this date.", None)
    before: str | None = _param("Only commits before this date.", None)

    def __post_init__(self):
        date_bounds(self)


@dataclass(frozen=True)
class GrepArgs:
    tool: ClassVar[ToolName] = ToolName.GREP
    description: ClassVar[str] = (
        "Search file contents for a literal string at a specific revision "
        "(defaults to the parent of the bug-fixing commit). Optional path "
        "restriction."
    )
    search_string: str = _param("Literal string to search for.")
    commit: str | None = _param("Revision to search at.", None)
    path: str | None = _param("Limit matches to this path.", None)

    def __post_init__(self):
        if not self.search_string:
            raise SchemaError("git_grep: search_string must be non-empty")
        _check_commit(self)


ToolArgs = ShowArgs | BlameArgs | LogSArgs | LogFuncArgs | GrepArgs

ARGS_CLASS = {cls.tool: cls for cls in (ShowArgs, BlameArgs, LogSArgs, LogFuncArgs, GrepArgs)}

# A field's annotation (a string: annotations are postponed) -> JSON type, Python type.
_JSON_TYPES = {"str": ("string", str), "int": ("integer", int), "bool": ("boolean", bool)}


def _json_type(f: Field) -> tuple[str, type]:
    return _JSON_TYPES[f.type.removesuffix(" | None")]


def tool_schemas() -> list[dict]:
    """Chat-completions function-calling JSON for all five tools, in stable order."""
    return [
        {
            "type": "function",
            "function": {
                "name": cls.tool.value,
                "description": cls.description,
                "parameters": {
                    "type": "object",
                    "properties": {
                        f.name: {"type": _json_type(f)[0], "description": f.metadata["description"]}
                        for f in fields(cls)
                    },
                    "required": [f.name for f in fields(cls) if f.default is MISSING],
                },
            },
        }
        for cls in ARGS_CLASS.values()
    ]


def parse_args(tool: ToolName, payload: dict) -> ToolArgs:
    """Validate a raw argument mapping against the tool's schema."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{tool.value}: arguments must be an object")
    params = fields(ARGS_CLASS[tool])
    unknown = sorted(set(payload) - {f.name for f in params})
    if unknown:
        raise SchemaError(f"{tool.value}: unknown parameter(s): {', '.join(unknown)}")
    kwargs = {}
    for f in params:
        value = payload.get(f.name)
        if value is None:
            if f.default is MISSING:
                raise SchemaError(f"{tool.value}: missing required parameter '{f.name}'")
            continue
        jtype, pytype = _json_type(f)
        if type(value) is not pytype:
            raise SchemaError(f"{tool.value}: parameter '{f.name}' must be of type {jtype}")
        kwargs[f.name] = value
    return ARGS_CLASS[tool](**kwargs)


_EPOCH_RE = re.compile(r"^@(-?\d+)$")


def parse_date(text: str, end_of_day: bool) -> int:
    """Normalize a date argument to epoch seconds (UTC).

    Accepts YYYY-MM-DD (expanded to start or end of that day), ISO-8601
    datetimes, and the @<epoch> form that the fix-date bound and the cache
    key write.
    """
    text = text.strip()
    m = _EPOCH_RE.match(text)
    if m:
        return int(m.group(1))
    # fromisoformat accepts a trailing Z only from Python 3.11 on.
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(iso)
        if end_of_day and re.match(r"^\d{4}-\d{2}-\d{2}$", text):
            dt = dt.replace(hour=23, minute=59, second=59)
    except ValueError:
        raise SchemaError(f"unparseable date: {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def date_bounds(args: ToolArgs) -> dict[str, int]:
    """The set ends of a history search's window, in epoch seconds.

    A bare `after` date starts at its first second and a bare `before`
    date ends at its last. A tool without dates gives {}.
    """
    return {
        attr: parse_date(value, end_of_day=(attr == "before"))
        for attr in ("after", "before")
        if (value := getattr(args, attr, None)) is not None
    }


def enforce_search_bound(args: ToolArgs, fix_date: int) -> ToolArgs:
    """Cap the history-search window at the fix commit's date.

    A bug-inducing commit must predate its fix, so for the two temporal
    tools a missing or too-late `before` is replaced with the fix date.
    Other tools pass through untouched.
    """
    if not isinstance(args, (LogSArgs, LogFuncArgs)):
        return args
    if date_bounds(args).get("before", math.inf) > fix_date:
        return replace(args, before=f"@{fix_date}")
    return args


def execute_raw(repo: RepoHandle, args: ToolArgs, fc: FixContext) -> str:
    """One tool call's raw output.

    History starts at the fix's parent, so the fix and every later commit
    stay out of it; blame and grep default to the same revision. A
    `git_show` that asks for the fix read's own diff, by the fix's full id,
    is the fix read's rendering and starts no git.
    """
    tool = args.tool
    if tool is ToolName.SHOW:
        if args.commit == fc.fix_id and not args.stat_only and args.context_lines in (None, 3):
            shown = fc.git_show(args.file_filter)
            if shown is not None:
                return shown
        return exec_git_show(repo, args)
    if tool is ToolName.BLAME:
        bounded = args.line_start is not None or args.line_end is not None
        ranges = [(args.line_start or 1, args.line_end)] if bounded else []
        return exec_git_blame(repo, args.file_path, args.commit or fc.fix_parent, ranges)
    if tool is ToolName.LOG_S:
        return exec_git_log_s(repo, args, fc.fix_parent)
    if tool is ToolName.LOG_FUNC:
        return exec_git_log_func(repo, args, fc.fix_parent)
    return exec_git_grep(repo, args, args.commit or fc.fix_parent)


def _raise_for(out: gitio.GitOutcome, not_found_kind: str, context: str) -> str:
    if out.status is GitStatus.NONZERO_EXIT:
        err = out.stderr.strip()
        low = err.lower()
        if "ambiguous" in low or "unknown revision" in low or "bad revision" in low or "bad object" in low:
            raise ToolError("commit_not_found", f"{context}: {err}")
        if ("no such path" in low or "there is no path" in low or "does not exist" in low
                or "exists on disk, but not in" in low):
            raise ToolError("file_not_found", f"{context}: {err}")
        if re.search(r"^fatal: file .* has only \d+ lines?$", err, re.M):
            raise ToolError("line_out_of_range", f"{context}: {err}")
        raise ToolError(not_found_kind, f"{context}: {err}")
    return out.stdout


def exec_git_show(repo: RepoHandle, args: ShowArgs) -> str:
    cmd = ["show", "--no-color", args.commit]
    if args.stat_only:
        cmd.append("--numstat")
    elif args.context_lines is not None:
        cmd.append(f"--unified={args.context_lines}")
    if args.file_filter:
        cmd += ["--", args.file_filter]
    return _raise_for(gitio.run_git(repo, cmd), "commit_not_found", f"git_show {args.commit}")


def exec_git_blame(
    repo: RepoHandle, path: str, rev: str, ranges: list[tuple[int, int | None]]
) -> str:
    """Porcelain blame of `path` at `rev`, limited to inclusive line ranges.

    An empty `ranges` blames the whole file; an end of None runs to the
    end of the file.
    """
    cmd = ["blame", "--porcelain"]
    for start, end in ranges:
        cmd += ["-L", f"{start},{'' if end is None else end}"]
    cmd += [rev, "--", path]
    return _raise_for(gitio.run_git(repo, cmd), "file_not_found", f"git_blame {path}@{rev}")


class MalformedPorcelain(Exception):
    """Blame output that does not parse as git blame porcelain."""


_PORCELAIN_HEAD = r"([0-9a-f]{40}) \d+ (\d+)(?: \d+)?"
# One record: its head line (commit, original and final line numbers, and
# the group size on a group's first line), the header lines, then the
# tab-prefixed content line. Lines end in "\n" only: content may hold tabs,
# form feeds and carriage returns.
_PORCELAIN_RECORD_RE = re.compile(
    _PORCELAIN_HEAD + r"\n((?:[^\t\n][^\n]*\n|\n)*)\t([^\n]*)\n"
)
_PORCELAIN_HEAD_RE = re.compile(_PORCELAIN_HEAD)
_COMMIT_KEYS = ("summary", "committer-time")


def blame_records(raw: str, limit: float = math.inf) -> tuple[list[dict], int]:
    """The first `limit` records of `git blame` porcelain, and the count of all.

    Every record is checked, but only the first `limit` are built. A
    commit's header fields (printed by `--porcelain` only on its first
    record, which comes before any later one) are remembered per commit
    and copied into each built record. Text after the last newline is not
    a line and is ignored. Raises MalformedPorcelain for anything else.
    """
    records: list[dict] = []
    commit_info: dict[str, dict] = {}
    match = _PORCELAIN_RECORD_RE.match
    pos = total = 0
    while m := match(raw, pos):
        if total < limit:
            commit, final_line, headers, content = m.groups()
            info = commit_info.setdefault(commit, {})
            for line in headers.split("\n")[:-1]:
                key, _, value = line.partition(" ")
                if key in _COMMIT_KEYS:
                    info[key] = value
            records.append(
                {"commit": commit, "final_line": int(final_line), **info, "content": content}
            )
        total += 1
        pos = m.end()
    end = raw.find("\n", pos)
    if end != -1:
        head = raw[pos:end]
        if not _PORCELAIN_HEAD_RE.fullmatch(head):
            raise MalformedPorcelain(f"unexpected porcelain line: {head!r}")
        raise MalformedPorcelain("porcelain record missing content line")
    return records, total


def _date_flags(args: LogSArgs | LogFuncArgs) -> list[str]:
    return [f"--{attr}=@{epoch}" for attr, epoch in date_bounds(args).items()]


_GLOB_CHARS = set("*?[")


def exec_git_log_s(repo: RepoHandle, args: LogSArgs, start: str) -> str:
    """Commits reachable from `start` that add or remove the search string."""
    cmd = ["log", f"-S{args.search_string}", "--format=%h %cs %s", *_date_flags(args), start]
    if args.path:
        # Rename-following only works for a single literal path.
        if not (_GLOB_CHARS & set(args.path)):
            cmd.append("--follow")
        cmd += ["--", args.path]
    return _raise_for(
        gitio.run_git(repo, cmd), "commit_not_found", f"git_log_s {args.search_string!r}"
    )


def exec_git_log_func(repo: RepoHandle, args: LogFuncArgs, start: str) -> str:
    """History of one function over the commits reachable from `start`."""
    cmd = ["log", "--no-color", f"-L:{args.function_name}:{args.file_path}", *_date_flags(args), start]
    out = gitio.run_git(repo, cmd)
    if out.status is GitStatus.NONZERO_EXIT and "no match" in out.stderr.lower():
        raise ToolError(
            "function_not_found",
            f"git_log_func: no function named {args.function_name!r} found in {args.file_path}",
        )
    return _raise_for(out, "function_not_found", f"git_log_func {args.function_name}")


def exec_git_grep(repo: RepoHandle, args: GrepArgs, rev: str) -> str:
    cmd = ["grep", "-n", "-F", "-e", args.search_string, rev]
    if args.path:
        cmd += ["--", args.path]
    out = gitio.run_git(repo, cmd)
    # git grep exits 1 for "no matches": a valid empty result.
    if out.status is GitStatus.NONZERO_EXIT and not out.stderr.strip():
        return ""
    return _raise_for(out, "commit_not_found", f"git_grep {args.search_string!r}@{rev}")

