"""Observation pipeline: cache, per-tool formatting, structured extraction.

Raw tool output passes through three layers before the agent sees it:
a call-level cache (layer 1), tool-specific reformatting with line caps
(layer 2), and, above a character threshold, a structural extractor that
keeps hashes, change markers and counts while dropping bulk (layer 3).
A final character clamp guarantees the size bound even for adversarially
long lines.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

from . import tools as tk
from .gitio import RepoHandle
from .tools import ToolArgs, ToolError, ToolName, ToolTimeout

# Exact wording the agent is trained on by the prompt rules; tests pin it.
TIMEOUT_HINT = (
    "Tool call timed out. Retry with narrower parameters "
    "(add a path filter, line range, or tighter date bounds)."
)

_NOTICE_PREFIX = "[output truncated"
_CLAMP_NOTICE = "[output truncated at character limit; retry with narrower parameters]"

# Worst-case bytes the pipeline may add beyond tau: newline + clamp notice.
MAX_OBS_OVERHEAD = len(_CLAMP_NOTICE) + 1

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


class MalformedPorcelain(Exception):
    """Blame output that does not parse as git blame porcelain."""


@dataclass
class CompressionConfig:
    tau: int = 3000
    line_caps: dict = field(
        default_factory=lambda: {
            ToolName.SHOW: 200,
            ToolName.BLAME: 200,
            ToolName.LOG_S: 150,
            ToolName.LOG_FUNC: 300,
            ToolName.GREP: 100,
        }
    )
    k1_head: int = 80
    k1_tail: int = 80
    k2_head: int = 60
    k2_tail: int = 60
    k3: int = 30
    k4: int = 50

    @classmethod
    def from_dict(cls, data: dict) -> "CompressionConfig":
        cfg = cls()
        for f in fields(cls):
            if f.name == "line_caps":
                continue
            if f.name in data:
                setattr(cfg, f.name, int(data[f.name]))
        for name, cap in data.get("line_caps", {}).items():
            cfg.line_caps[ToolName(name)] = int(cap)
        return cfg

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "line_caps": {name.value: cap for name, cap in self.line_caps.items()},
            "k1_head": self.k1_head,
            "k1_tail": self.k1_tail,
            "k2_head": self.k2_head,
            "k2_tail": self.k2_tail,
            "k3": self.k3,
            "k4": self.k4,
        }


@dataclass
class Observation:
    text: str
    truncated: bool
    cache_hit: bool
    source_tool: ToolName


def canonicalize_args(args: ToolArgs) -> str:
    """Deterministic cache key: defaults elided, dates normalized to epochs."""
    tool = tk.TOOL_FOR_ARGS[type(args)]
    payload: dict = {"tool": tool.value}
    for f in fields(args):
        value = getattr(args, f.name)
        if value == f.default:
            continue
        if f.name == "after":
            value = tk.parse_date(value, end_of_day=False)
        elif f.name == "before":
            value = tk.parse_date(value, end_of_day=True)
        payload[f.name] = value
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def strip_trailers(message: str) -> str:
    """Drop metadata trailer lines; everything else stays verbatim."""
    return "\n".join(ln for ln in message.split("\n") if not _TRAILER_RE.match(ln))


def _truncation_notice(shown: int, total: int, unit: str) -> str:
    return (
        f"{_NOTICE_PREFIX}: showing {shown} of {total} {unit}; "
        "retry with narrower parameters to see more]"
    )


def _cap_lines(lines: list[str], cap: int, unit: str = "lines") -> tuple[list[str], bool]:
    if len(lines) <= cap:
        return lines, False
    return lines[:cap] + [_truncation_notice(cap, len(lines), unit)], True


def _head_tail(lines: list[str], head: int, tail: int) -> tuple[list[str], bool]:
    if len(lines) <= head + tail:
        return lines, False
    elided = len(lines) - head - tail
    return lines[:head] + [f"... [{elided} lines elided] ..."] + lines[-tail:], True


# -- Layer 2: per-tool formatting -------------------------------------------

def format_show(raw: str, cfg: CompressionConfig) -> tuple[str, bool]:
    lines = raw.splitlines()
    diff_start = next(
        (i for i, ln in enumerate(lines) if ln.startswith("diff --git")), len(lines)
    )
    head = strip_trailers("\n".join(lines[:diff_start])).splitlines()
    capped, truncated = _cap_lines(head + lines[diff_start:], cfg.line_caps[ToolName.SHOW])
    return "\n".join(capped), truncated


_PORCELAIN_HEAD_RE = re.compile(r"^([0-9a-f]{40}) (\d+) (\d+)(?: (\d+))?$")
_COMMIT_KEYS = ("summary", "committer-time")


def parse_blame_porcelain(raw: str) -> list[dict]:
    """Line records from `git blame --porcelain` or `--line-porcelain` output.

    `--porcelain` prints a commit's header only on its first record, so the
    header fields are remembered per commit and copied into every record.
    """
    records = []
    commit_info: dict[str, dict] = {}
    lines = iter(raw.splitlines())
    for head in lines:
        m = _PORCELAIN_HEAD_RE.match(head)
        if not m:
            raise MalformedPorcelain(f"unexpected porcelain line: {head!r}")
        commit = m.group(1)
        info = commit_info.setdefault(commit, {})
        # Header fields run up to the record's tab-prefixed content line.
        for line in lines:
            if line[:1] == "\t":
                break
            key, _, value = line.partition(" ")
            if key in _COMMIT_KEYS:
                info[key] = value
        else:
            raise MalformedPorcelain("porcelain record missing content line")
        records.append(
            {"commit": commit, "final_line": int(m.group(3)), **info, "content": line[1:]}
        )
    return records


def format_blame(raw: str, cfg: CompressionConfig) -> tuple[str, bool]:
    """`L{n}: {hash} | {code}` lines plus a commit legend.

    Only the records within the line cap are rendered; the rest count
    towards the truncation notice.
    """
    if not raw.strip():
        return "", False
    records = parse_blame_porcelain(raw)
    cap = cfg.line_caps[ToolName.BLAME]
    shown = records[:cap]
    body = [f"L{rec['final_line']}: {rec['commit'][:12]} | {rec['content']}" for rec in shown]
    truncated = len(records) > cap
    if truncated:
        body.append(_truncation_notice(cap, len(records), "lines"))
    legend, seen = [], set()
    for rec in shown:
        short = rec["commit"][:12]
        if short not in seen:
            seen.add(short)
            when = datetime.fromtimestamp(
                int(rec.get("committer-time", "0")), tz=timezone.utc
            ).strftime("%Y-%m-%d")
            legend.append(f"{short} {when} {rec.get('summary', '')}".rstrip())
    text = "\n".join(body)
    if legend:
        text += "\nCommits:\n" + "\n".join(legend)
    return text, truncated


def format_log_s(raw: str, cfg: CompressionConfig) -> tuple[str, bool]:
    capped, truncated = _cap_lines(raw.splitlines(), cfg.line_caps[ToolName.LOG_S])
    return "\n".join(capped), truncated


def format_log_func(raw: str, cfg: CompressionConfig) -> tuple[str, bool]:
    stripped = strip_trailers(raw)
    capped, truncated = _cap_lines(stripped.splitlines(), cfg.line_caps[ToolName.LOG_FUNC])
    return "\n".join(capped), truncated


def format_grep(raw: str, cfg: CompressionConfig) -> tuple[str, bool]:
    capped, truncated = _cap_lines(raw.splitlines(), cfg.line_caps[ToolName.GREP])
    return "\n".join(capped), truncated


# -- Layer 3: structured extraction ------------------------------------------

_DIFF_KEEP_PREFIXES = (
    "diff --git",
    "index ",
    "new file",
    "deleted file",
    "old mode",
    "new mode",
    "rename from",
    "rename to",
    "similarity",
    "Binary files",
    "---",
    "+++",
    "@@",
    "+",
    "-",
)


def extract_show(formatted: str, cfg: CompressionConfig) -> tuple[str, bool]:
    lines = formatted.splitlines()
    kept, in_diff = [], False
    for ln in lines:
        if ln.startswith("diff --git"):
            in_diff = True
        if not in_diff or ln.startswith(_DIFF_KEEP_PREFIXES):
            kept.append(ln)
    body, elided = _head_tail(kept, cfg.k1_head, cfg.k1_tail)
    return "\n".join(body), elided


_L_LINE_RE = re.compile(r"^L\d+: ([0-9a-f]{6,40}) \| ")
_LEGEND_RE = re.compile(r"^([0-9a-f]{6,40}) (\d{4}-\d{2}-\d{2})(?: (.*))?$")


def extract_blame(formatted: str, cfg: CompressionConfig) -> tuple[str, bool]:
    lines = formatted.splitlines()
    l_lines, legend = [], {}
    for ln in lines:
        if _L_LINE_RE.match(ln):
            l_lines.append(ln)
        else:
            m = _LEGEND_RE.match(ln)
            if m:
                legend[m.group(1)] = (m.group(2), m.group(3) or "")
    counts: dict[str, int] = {}
    for ln in l_lines:
        short = _L_LINE_RE.match(ln).group(1)
        counts[short] = counts.get(short, 0) + 1
    summary = [f"Commits in blame ({len(counts)} distinct):"]
    for short, n in counts.items():
        when, subject = legend.get(short, ("", ""))
        summary.append(f"  {short} ({n} lines) {when} {subject}".rstrip())
    body, elided = _head_tail(l_lines, cfg.k2_head, cfg.k2_tail)
    return "\n".join(summary + body), elided


_COMMIT_BLOCK_RE = re.compile(r"^commit [0-9a-f]{7,40}")


def _split_entries(lines: list[str]) -> list[list[str]]:
    if not any(_COMMIT_BLOCK_RE.match(ln) for ln in lines):
        return [[ln] for ln in lines if ln.strip()]
    blocks, current = [], []
    for ln in lines:
        if _COMMIT_BLOCK_RE.match(ln) and current:
            blocks.append(current)
            current = []
        current.append(ln)
    if current:
        blocks.append(current)
    return blocks


def extract_log(formatted: str, cfg: CompressionConfig) -> tuple[str, bool]:
    entries = _split_entries(formatted.splitlines())
    if len(entries) <= cfg.k3:
        return formatted, False
    kept = entries[: cfg.k3]
    omitted = len(entries) - cfg.k3
    out = [ln for block in kept for ln in block]
    out.append(
        f"{_NOTICE_PREFIX}: showing first {cfg.k3} entries, {omitted} omitted; "
        "retry with narrower parameters to see more]"
    )
    return "\n".join(out), True


def extract_grep(formatted: str, cfg: CompressionConfig) -> tuple[str, bool]:
    matches = []  # (file, line_text)
    for ln in formatted.splitlines():
        if not ln.strip() or ln.startswith(_NOTICE_PREFIX):
            continue
        parts = ln.split(":")
        if len(parts) >= 4 and parts[2].isdigit():
            matches.append((parts[1], ln))
        elif len(parts) >= 3 and parts[1].isdigit():
            matches.append((parts[0], ln))
        else:
            matches.append(("(other)", ln))
    totals: dict[str, int] = {}
    for path, _ in matches:
        totals[path] = totals.get(path, 0) + 1
    kept = matches[: cfg.k4]
    out, seen = [], set()
    for path, ln in kept:
        if path not in seen:
            seen.add(path)
            out.append(f"== {path} ({totals[path]} matches)")
        out.append(ln)
    omitted = len(matches) - len(kept)
    if omitted > 0:
        out.append(
            f"{_NOTICE_PREFIX}: showing first {cfg.k4} of {len(matches)} matches, "
            f"{omitted} omitted; retry with narrower parameters to see more]"
        )
    return "\n".join(out), omitted > 0


_FORMATTERS = {
    ToolName.SHOW: format_show,
    ToolName.BLAME: format_blame,
    ToolName.LOG_S: format_log_s,
    ToolName.LOG_FUNC: format_log_func,
    ToolName.GREP: format_grep,
}


def format_raw(tool: ToolName, raw: str, cfg: CompressionConfig) -> tuple[str, bool]:
    """Layer-2 view of raw tool output (the `--raw` debugging surface)."""
    return _FORMATTERS[tool](raw, cfg)

_EXTRACTORS = {
    ToolName.SHOW: extract_show,
    ToolName.BLAME: extract_blame,
    ToolName.LOG_S: extract_log,
    ToolName.LOG_FUNC: extract_log,
    ToolName.GREP: extract_grep,
}


def execute_raw(repo: RepoHandle, tool: ToolName, args: ToolArgs, default_commit: str) -> str:
    """Dispatch one tool call and return its raw (uncompressed) output."""
    if tool is ToolName.SHOW:
        return tk.exec_git_show(repo, args)
    if tool is ToolName.BLAME:
        return tk.exec_git_blame(repo, args, default_commit)
    if tool is ToolName.LOG_S:
        return tk.exec_git_log_s(repo, args)
    if tool is ToolName.LOG_FUNC:
        return tk.exec_git_log_func(repo, args)
    if tool is ToolName.GREP:
        return tk.exec_git_grep(repo, args, default_commit)
    raise ValueError(f"unknown tool {tool}")


_GENERIC_NOTICE = "[output truncated; retry with narrower parameters to see more]"


def compress_formatted(tool: ToolName, formatted: str, truncated: bool, cfg: CompressionConfig) -> tuple[str, bool]:
    """Layer 3 plus the final size clamp, applied to layer-2 output."""
    text = formatted
    if len(text) > cfg.tau:
        text, elided = _EXTRACTORS[tool](text, cfg)
        truncated = truncated or elided
    if len(text) > cfg.tau:
        text = text[: cfg.tau] + "\n" + _CLAMP_NOTICE
        truncated = True
    lines = text.splitlines()
    if truncated and (not lines or not lines[-1].startswith(_NOTICE_PREFIX)):
        text += "\n" + _GENERIC_NOTICE
    return text, truncated


def execute_compressed(
    repo: RepoHandle,
    tool: ToolName,
    args: ToolArgs,
    fix_date: int,
    cache: dict[str, tuple[str, bool]],
    cfg: CompressionConfig,
    default_commit: str,
) -> Observation:
    """Run one tool call through bound capping, cache, format and extract.

    `cache` is case-scoped: canonical arguments -> the finished observation's
    (text, truncated), so a hit costs no git process, formatting or extraction.

    Tool failures come back as readable observations, never exceptions:
    the agent must be able to read the error and self-correct. Timed-out
    calls and tool errors are not cached, so a retry executes fresh.
    """
    args = tk.enforce_search_bound(args, fix_date)
    key = canonicalize_args(args)
    if key in cache:
        text, truncated = cache[key]
        return Observation(text, truncated=truncated, cache_hit=True, source_tool=tool)
    try:
        raw = execute_raw(repo, tool, args, default_commit)
    except ToolTimeout:
        return Observation(TIMEOUT_HINT, truncated=False, cache_hit=False, source_tool=tool)
    except ToolError as exc:
        return Observation(
            f"Error ({exc.kind}): {exc}", truncated=False, cache_hit=False, source_tool=tool
        )
    try:
        formatted, truncated = _FORMATTERS[tool](raw, cfg)
    except MalformedPorcelain as exc:
        # Cached like any output git produced: a repeat is a hit.
        text, truncated = f"Error (malformed_output): {exc}", False
    else:
        text, truncated = compress_formatted(tool, formatted, truncated, cfg)
        if not text.strip():
            text = "(no output)"
    cache[key] = (text, truncated)
    return Observation(text, truncated=truncated, cache_hit=False, source_tool=tool)
