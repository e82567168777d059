"""Observation pipeline: cache, per-tool formatting, structured extraction.

Raw tool output passes through three layers before the agent sees it:
a call-level cache (layer 1), which also holds the git work a caller
started ahead of the call, tool-specific reformatting with line caps
(layer 2), and, above a character threshold, a structural extractor that
keeps hashes, change markers and counts while dropping bulk (layer 3).
A final character clamp guarantees the size bound even for adversarially
long lines.
"""

from __future__ import annotations

import re
from concurrent.futures import Future
from dataclasses import dataclass, replace
from datetime import datetime, timezone

from . import tools as tk
from .caseprep import FixContext, strip_trailers
from .gitio import GitTimeout, RepoHandle
from .tools import ToolArgs, ToolError, ToolName

# Exact wording the agent is trained on by the prompt rules; tests pin it.
TIMEOUT_HINT = (
    "Tool call timed out. Retry with narrower parameters "
    "(add a path filter, line range, or tighter date bounds)."
)

_NOTICE_PREFIX = "[output truncated"
_CLAMP_NOTICE = "[output truncated at character limit; retry with narrower parameters]"

TAU = 3000  # default `compression.tau`: characters above which layer 3 runs; the clamp's bound

# Worst-case bytes the pipeline may add beyond tau: newline + clamp notice.
MAX_OBS_OVERHEAD = len(_CLAMP_NOTICE) + 1


@dataclass
class Observation:
    text: str
    truncated: bool
    cache_hit: bool


def canonicalize_args(args: ToolArgs) -> ToolArgs:
    """The cache key: the call's arguments, each date written as the "@<epoch>" git is given."""
    return replace(args, **{attr: f"@{epoch}" for attr, epoch in tk.date_bounds(args).items()})


def split_lines(text: str) -> list[str]:
    r"""Lines of `text`, cut at "\n" only; a final "\n" ends the last line.

    Form feeds and lone carriage returns stay content, as they are to git.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _truncation_notice(shown: int, total: int) -> str:
    return (
        f"{_NOTICE_PREFIX}: showing {shown} of {total} lines; "
        "retry with narrower parameters to see more]"
    )


def _cap_lines(lines: list[str], cap: int) -> tuple[str, bool]:
    if len(lines) <= cap:
        return "\n".join(lines), False
    return "\n".join(lines[:cap] + [_truncation_notice(cap, len(lines))]), True


def _head_tail(lines: list[str], keep: int) -> tuple[list[str], bool]:
    elided = len(lines) - 2 * keep
    if elided <= 0:
        return lines, False
    return lines[:keep] + [f"... [{elided} lines elided] ..."] + lines[-keep:], True


# -- Layer 2: per-tool formatting -------------------------------------------

LINE_CAPS = {  # lines each tool's formatted output keeps
    ToolName.SHOW: 200,
    ToolName.BLAME: 200,
    ToolName.LOG_S: 150,
    ToolName.LOG_FUNC: 300,
    ToolName.GREP: 100,
}


def format_show(raw: str) -> tuple[str, bool]:
    lines = split_lines(raw)
    diff_start = next(
        (i for i, ln in enumerate(lines) if ln.startswith("diff --git")), len(lines)
    )
    head = split_lines(strip_trailers("\n".join(lines[:diff_start])))
    return _cap_lines(head + lines[diff_start:], LINE_CAPS[ToolName.SHOW])


def format_blame(raw: str) -> tuple[str, bool]:
    """`L{n}: {hash} | {code}` lines plus a commit legend.

    Every record is checked, but only those within the line cap are built
    and rendered; the rest count towards the truncation notice.
    """
    if not raw or raw.isspace():  # unlike raw.strip(), copies nothing
        return "", False
    cap = LINE_CAPS[ToolName.BLAME]
    shown, total = tk.blame_records(raw, cap)
    body = [f"L{rec['final_line']}: {rec['commit'][:12]} | {rec['content']}" for rec in shown]
    truncated = total > cap
    if truncated:
        body.append(_truncation_notice(cap, total))
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


def format_log_s(raw: str) -> tuple[str, bool]:
    return _cap_lines(split_lines(raw), LINE_CAPS[ToolName.LOG_S])


def format_log_func(raw: str) -> tuple[str, bool]:
    return _cap_lines(split_lines(strip_trailers(raw)), LINE_CAPS[ToolName.LOG_FUNC])


def format_grep(raw: str) -> tuple[str, bool]:
    return _cap_lines(split_lines(raw), LINE_CAPS[ToolName.GREP])


# -- Layer 3: structured extraction ------------------------------------------

SHOW_KEEP = 80  # diff lines kept at each end
BLAME_KEEP = 60  # blame lines kept at each end
LOG_KEEP = 30  # log entries kept
GREP_KEEP = 50  # grep matches kept

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


def extract_show(formatted: str) -> tuple[str, bool]:
    kept, in_diff = [], False
    for ln in split_lines(formatted):
        if ln.startswith("diff --git"):
            in_diff = True
        if not in_diff or ln.startswith(_DIFF_KEEP_PREFIXES):
            kept.append(ln)
    body, elided = _head_tail(kept, SHOW_KEEP)
    return "\n".join(body), elided


_L_LINE_RE = re.compile(r"^L\d+: ([0-9a-f]{6,40}) \| ")
_LEGEND_RE = re.compile(r"^([0-9a-f]{6,40}) (\d{4}-\d{2}-\d{2})(?: (.*))?$")


def extract_blame(formatted: str) -> tuple[str, bool]:
    l_lines, legend = [], {}
    for ln in split_lines(formatted):
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
    body, elided = _head_tail(l_lines, BLAME_KEEP)
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


def extract_log(formatted: str) -> tuple[str, bool]:
    entries = _split_entries(split_lines(formatted))
    if len(entries) <= LOG_KEEP:
        return formatted, False
    kept = entries[:LOG_KEEP]
    omitted = len(entries) - LOG_KEEP
    out = [ln for block in kept for ln in block]
    out.append(
        f"{_NOTICE_PREFIX}: showing first {LOG_KEEP} entries, {omitted} omitted; "
        "retry with narrower parameters to see more]"
    )
    return "\n".join(out), True


def extract_grep(formatted: str) -> tuple[str, bool]:
    matches = []  # (file, line_text)
    for ln in split_lines(formatted):
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
    kept = matches[:GREP_KEEP]
    out, seen = [], set()
    for path, ln in kept:
        if path not in seen:
            seen.add(path)
            out.append(f"== {path} ({totals[path]} matches)")
        out.append(ln)
    omitted = len(matches) - len(kept)
    if omitted > 0:
        out.append(
            f"{_NOTICE_PREFIX}: showing first {GREP_KEEP} of {len(matches)} matches, "
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


_EXTRACTORS = {
    ToolName.SHOW: extract_show,
    ToolName.BLAME: extract_blame,
    ToolName.LOG_S: extract_log,
    ToolName.LOG_FUNC: extract_log,
    ToolName.GREP: extract_grep,
}


_GENERIC_NOTICE = "[output truncated; retry with narrower parameters to see more]"


def compress_formatted(tool: ToolName, formatted: str, truncated: bool, tau: int) -> tuple[str, bool]:
    """Layer 3 plus the final size clamp, applied to layer-2 output."""
    text = formatted
    if len(text) > tau:
        text, elided = _EXTRACTORS[tool](text)
        truncated = truncated or elided
    if len(text) > tau:
        text = text[:tau] + "\n" + _CLAMP_NOTICE
        truncated = True
    lines = split_lines(text)
    if truncated and (not lines or not lines[-1].startswith(_NOTICE_PREFIX)):
        text += "\n" + _GENERIC_NOTICE
    return text, truncated


def execute_compressed(
    repo: RepoHandle,
    args: ToolArgs,
    fc: FixContext,
    cache: dict[ToolArgs, tuple[str, bool] | Future],
    tau: int = TAU,
) -> Observation:
    """Run one tool call through cache, format and extract.

    The caller bounds `args` with `tools.enforce_search_bound` first.

    `cache` is case-scoped: the call's arguments, each date read as its
    epoch second (`canonicalize_args`) -> the finished observation's
    (text, truncated), so a hit costs no git process, formatting or
    extraction, or -> the `Future` of the call's `tools.execute_raw` when the
    caller began its git work earlier, whose raw output is formatted here.
    Tool failures come back as readable observations, never exceptions: the
    agent must be able to read the error and self-correct. A timed-out call
    or tool error keeps no entry, so a retry executes fresh.
    """
    key = canonicalize_args(args)
    entry = cache.get(key)
    if isinstance(entry, tuple):
        return Observation(*entry, cache_hit=True)
    try:
        raw = entry.result() if entry else tk.execute_raw(repo, args, fc)
    except (GitTimeout, ToolError) as exc:
        cache.pop(key, None)
        text = TIMEOUT_HINT if isinstance(exc, GitTimeout) else f"Error ({exc.kind}): {exc}"
        return Observation(text, truncated=False, cache_hit=False)
    try:
        formatted, truncated = _FORMATTERS[args.tool](raw)
    except tk.MalformedPorcelain as exc:
        # Cached like any output git produced: a repeat is a hit.
        text, truncated = f"Error (malformed_output): {exc}", False
    else:
        text, truncated = compress_formatted(args.tool, formatted, truncated, tau)
        if not text.strip():
            text = "(no output)"
    cache[key] = (text, truncated)
    return Observation(text, truncated=truncated, cache_hit=False)
