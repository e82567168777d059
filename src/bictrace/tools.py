"""The five repository-investigation tools and their calling schemas.

Each tool wraps one read-only git operation with a small, scoped parameter
set. Schemas serialize to the JSON function-calling format of
chat-completion endpoints, so the same definitions drive both validation
and the wire protocol.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum

from . import gitio
from .gitio import GitStatus, RepoHandle


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


class ToolTimeout(ToolError):
    def __init__(self, message: str = "tool call timed out"):
        super().__init__("timeout", message)


@dataclass(frozen=True)
class ShowArgs:
    commit: str
    file_filter: str | None = None
    stat_only: bool = False
    context_lines: int | None = None


@dataclass(frozen=True)
class BlameArgs:
    file_path: str
    commit: str | None = None
    line_start: int | None = None
    line_end: int | None = None


@dataclass(frozen=True)
class LogSArgs:
    search_string: str
    path: str | None = None
    after: str | None = None
    before: str | None = None


@dataclass(frozen=True)
class LogFuncArgs:
    function_name: str
    file_path: str
    after: str | None = None
    before: str | None = None


@dataclass(frozen=True)
class GrepArgs:
    search_string: str
    commit: str | None = None
    path: str | None = None


ToolArgs = ShowArgs | BlameArgs | LogSArgs | LogFuncArgs | GrepArgs

ARGS_CLASS = {
    ToolName.SHOW: ShowArgs,
    ToolName.BLAME: BlameArgs,
    ToolName.LOG_S: LogSArgs,
    ToolName.LOG_FUNC: LogFuncArgs,
    ToolName.GREP: GrepArgs,
}

TOOL_FOR_ARGS = {cls: name for name, cls in ARGS_CLASS.items()}

_TOOL_DESCRIPTIONS = {
    ToolName.SHOW: (
        "Show a commit: header, message and diff. Use file_filter to restrict "
        "the diff to one file, stat_only for per-file change counts instead of "
        "a patch, context_lines to widen or shrink diff context."
    ),
    ToolName.BLAME: (
        "Line-by-line last-modifying commit for a file at a revision "
        "(defaults to the parent of the bug-fixing commit). Use line_start/"
        "line_end to focus on the lines you care about."
    ),
    ToolName.LOG_S: (
        "History search for commits that add or remove occurrences of a "
        "literal string (identifier, expression). Optional path restriction "
        "and after/before dates (YYYY-MM-DD)."
    ),
    ToolName.LOG_FUNC: (
        "Commit-by-commit history of one function in one file, with the "
        "diffs that touched it. Optional after/before dates (YYYY-MM-DD)."
    ),
    ToolName.GREP: (
        "Search file contents for a literal string at a specific revision "
        "(defaults to the parent of the bug-fixing commit). Optional path "
        "restriction."
    ),
}

# name -> (json type, required, description)
_PARAM_SPECS: dict[ToolName, dict[str, tuple[str, bool, str]]] = {
    ToolName.SHOW: {
        "commit": ("string", True, "Commit hash or ref to display."),
        "file_filter": ("string", False, "Limit the diff to this path."),
        "stat_only": ("boolean", False, "Show per-file change counts only."),
        "context_lines": ("integer", False, "Unified diff context width."),
    },
    ToolName.BLAME: {
        "file_path": ("string", True, "File to blame."),
        "commit": ("string", False, "Revision to blame at."),
        "line_start": ("integer", False, "First line of the range (1-based)."),
        "line_end": ("integer", False, "Last line of the range (inclusive)."),
    },
    ToolName.LOG_S: {
        "search_string": ("string", True, "Literal string to search history for."),
        "path": ("string", False, "Limit to commits touching this path."),
        "after": ("string", False, "Only commits after this date."),
        "before": ("string", False, "Only commits before this date."),
    },
    ToolName.LOG_FUNC: {
        "function_name": ("string", True, "Function whose history to trace."),
        "file_path": ("string", True, "File containing the function."),
        "after": ("string", False, "Only commits after this date."),
        "before": ("string", False, "Only commits before this date."),
    },
    ToolName.GREP: {
        "search_string": ("string", True, "Literal string to search for."),
        "commit": ("string", False, "Revision to search at."),
        "path": ("string", False, "Limit matches to this path."),
    },
}

_JSON_TYPES = {"string": str, "integer": int, "boolean": bool}


@dataclass(frozen=True)
class ToolSchema:
    name: ToolName
    description: str
    parameter_spec: dict  # param -> {"type", "required", "description"}

    def as_wire(self) -> dict:
        """Chat-completions function-calling JSON for this tool."""
        return {
            "type": "function",
            "function": {
                "name": self.name.value,
                "description": self.description,
                "parameters": {
                    "type": "object",
                    "properties": {
                        pname: {"type": spec["type"], "description": spec["description"]}
                        for pname, spec in self.parameter_spec.items()
                    },
                    "required": [
                        pname for pname, spec in self.parameter_spec.items() if spec["required"]
                    ],
                },
            },
        }


def tool_schemas() -> list[ToolSchema]:
    """Schemas for all five tools, in stable order."""
    return [
        ToolSchema(
            name=name,
            description=_TOOL_DESCRIPTIONS[name],
            parameter_spec={
                pname: {"type": jtype, "required": required, "description": desc}
                for pname, (jtype, required, desc) in _PARAM_SPECS[name].items()
            },
        )
        for name in ToolName
    ]


def parse_args(tool: ToolName, payload: dict) -> ToolArgs:
    """Validate a raw argument mapping against the tool's schema."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{tool.value}: arguments must be an object")
    spec = _PARAM_SPECS[tool]
    unknown = sorted(set(payload) - set(spec))
    if unknown:
        raise SchemaError(f"{tool.value}: unknown parameter(s): {', '.join(unknown)}")
    kwargs = {}
    for pname, (jtype, required, _) in spec.items():
        value = payload.get(pname)
        if value is None:
            if required:
                raise SchemaError(f"{tool.value}: missing required parameter '{pname}'")
            continue
        if not isinstance(value, _JSON_TYPES[jtype]) or isinstance(value, bool) and jtype != "boolean":
            raise SchemaError(
                f"{tool.value}: parameter '{pname}' must be of type {jtype}"
            )
        kwargs[pname] = value
    args = ARGS_CLASS[tool](**kwargs)
    _check_constraints(tool, args)
    return args


def _check_constraints(tool: ToolName, args: ToolArgs):
    if isinstance(args, ShowArgs):
        if args.context_lines is not None and args.context_lines < 0:
            raise SchemaError("git_show: context_lines must be >= 0")
    elif isinstance(args, BlameArgs):
        for attr in ("line_start", "line_end"):
            v = getattr(args, attr)
            if v is not None and v < 1:
                raise SchemaError(f"git_blame: {attr} must be >= 1")
        if (
            args.line_start is not None
            and args.line_end is not None
            and args.line_start > args.line_end
        ):
            raise SchemaError("git_blame: line_start must not exceed line_end")
    elif isinstance(args, (LogSArgs, LogFuncArgs)):
        if isinstance(args, LogSArgs) and not args.search_string:
            raise SchemaError("git_log_s: search_string must be non-empty")
        for attr in ("after", "before"):
            v = getattr(args, attr)
            if v is not None:
                parse_date(v, end_of_day=(attr == "before"))
    elif isinstance(args, GrepArgs):
        if not args.search_string:
            raise SchemaError("git_grep: search_string must be non-empty")


_EPOCH_RE = re.compile(r"^@(\d+)$")


def parse_date(text: str, end_of_day: bool) -> int:
    """Normalize a date argument to epoch seconds (UTC).

    Accepts YYYY-MM-DD (expanded to start or end of that day), ISO-8601
    datetimes, and the @<epoch> form used internally after bound capping.
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


def enforce_search_bound(args: ToolArgs, fix_date: int) -> ToolArgs:
    """Cap the history-search window at the fix commit's date.

    A bug-inducing commit must predate its fix, so for the two temporal
    tools a missing or too-late `before` is replaced with the fix date.
    Other tools pass through untouched.
    """
    if not isinstance(args, (LogSArgs, LogFuncArgs)):
        return args
    if args.before is None or parse_date(args.before, end_of_day=True) > fix_date:
        return replace(args, before=f"@{fix_date}")
    return args


def _raise_for(out: gitio.GitOutcome, not_found_kind: str, context: str) -> str:
    if out.status is GitStatus.TIMED_OUT:
        raise ToolTimeout(f"{context}: timed out after {out.elapsed:.1f}s")
    if out.status is GitStatus.NONZERO_EXIT:
        err = out.stderr.strip()
        low = err.lower()
        if "ambiguous" in low or "unknown revision" in low or "bad revision" in low or "bad object" in low:
            raise ToolError("commit_not_found", f"{context}: {err}")
        if "no such path" in low or "does not exist" in low or "exists on disk, but not in" in low:
            raise ToolError("file_not_found", f"{context}: {err}")
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


def exec_git_blame(repo: RepoHandle, args: BlameArgs, default_commit: str) -> str:
    rev = args.commit or default_commit
    cmd = ["blame", "--porcelain"]
    if args.line_start is not None or args.line_end is not None:
        # Open ends default to the start/end of the file.
        start = args.line_start if args.line_start is not None else 1
        end = str(args.line_end) if args.line_end is not None else ""
        cmd += ["-L", f"{start},{end}"]
    cmd += [rev, "--", args.file_path]
    return _raise_for(
        gitio.run_git(repo, cmd), "file_not_found", f"git_blame {args.file_path}@{rev}"
    )


_GLOB_CHARS = set("*?[")


def exec_git_log_s(repo: RepoHandle, args: LogSArgs) -> str:
    cmd = ["log", f"-S{args.search_string}", "--format=%h %cs %s"]
    if args.after:
        cmd.append(f"--after=@{parse_date(args.after, end_of_day=False)}")
    if args.before:
        cmd.append(f"--before=@{parse_date(args.before, end_of_day=True)}")
    if args.path:
        # Rename-following only works for a single literal path.
        if not (_GLOB_CHARS & set(args.path)):
            cmd.append("--follow")
        cmd += ["--", args.path]
    return _raise_for(
        gitio.run_git(repo, cmd), "commit_not_found", f"git_log_s {args.search_string!r}"
    )


def exec_git_log_func(repo: RepoHandle, args: LogFuncArgs) -> str:
    cmd = ["log", "--no-color", f"-L:{args.function_name}:{args.file_path}"]
    if args.after:
        cmd.append(f"--after=@{parse_date(args.after, end_of_day=False)}")
    if args.before:
        cmd.append(f"--before=@{parse_date(args.before, end_of_day=True)}")
    out = gitio.run_git(repo, cmd)
    if out.status is GitStatus.NONZERO_EXIT and "no match" in out.stderr.lower():
        raise ToolError(
            "function_not_found",
            f"git_log_func: no function named {args.function_name!r} found in {args.file_path}",
        )
    return _raise_for(out, "function_not_found", f"git_log_func {args.function_name}")


def exec_git_grep(repo: RepoHandle, args: GrepArgs, default_commit: str) -> str:
    rev = args.commit or default_commit
    cmd = ["grep", "-n", "-F", "-e", args.search_string, rev]
    if args.path:
        cmd += ["--", args.path]
    out = gitio.run_git(repo, cmd)
    # git grep exits 1 for "no matches": a valid empty result.
    if out.status is GitStatus.NONZERO_EXIT and not out.stderr.strip():
        return ""
    return _raise_for(out, "commit_not_found", f"git_grep {args.search_string!r}@{rev}")
