"""Observation pipeline: cache, per-tool formatting, structured extraction.

Raw tool output passes through three layers before the agent sees it:
a call-level cache (layer 1), which also holds the git work a caller
started ahead of the call, tool-specific reformatting with line caps
(layer 2), and, above a character threshold, a structural extraction
that keeps hashes, change markers and counts while dropping bulk (layer
3). Layer 3 picks from what layer 2 parsed, never from its text. A final
character clamp guarantees the size bound even for adversarially long
lines.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial

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


def _capped(kept: list[str], total: int) -> tuple[str, bool]:
    """The `kept` first lines of `total`, and whether any were cut; a notice says how many."""
    if len(kept) >= total:
        return "\n".join(kept), False
    return "\n".join([*kept, _truncation_notice(len(kept), total)]), True


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


# Layer 3's extraction of what a formatter parsed: the text and whether it elided.
Extraction = Callable[[], tuple[str, bool]]


def format_show(raw: str) -> tuple[str, bool, Extraction]:
    lines = split_lines(raw)
    diff_start = next(
        (i for i, ln in enumerate(lines) if ln.startswith("diff --git")), len(lines)
    )
    # Each header line ends in "\n", so the blank line before the diff stays.
    head = split_lines(strip_trailers("".join(f"{ln}\n" for ln in lines[:diff_start])))
    lines = head + lines[diff_start:]
    kept = lines[:LINE_CAPS[ToolName.SHOW]]
    return *_capped(kept, len(lines)), partial(extract_show, kept)


def _l_line(rec: dict) -> str:
    return f"L{rec['final_line']}: {rec['commit'][:12]} | {rec['content']}"


def _legend(shown: list[dict]) -> dict[str, list]:
    """Short id -> [lines it blames, "<date> <summary>"] of each commit in `shown`, first seen first."""
    legend: dict[str, list] = {}
    for rec in shown:
        entry = legend.get(rec["commit"][:12])
        if entry:
            entry[0] += 1
        else:
            when = datetime.fromtimestamp(int(rec.get("committer-time", "0")), tz=timezone.utc)
            legend[rec["commit"][:12]] = [1, f"{when:%Y-%m-%d} {rec.get('summary', '')}"]
    return legend


def format_blame(raw: str) -> tuple[str, bool, Extraction]:
    """`L{n}: {hash} | {code}` lines plus a commit legend.

    Every record is checked, but only those within the line cap are built
    and rendered; the rest count towards the truncation notice.
    """
    cap = LINE_CAPS[ToolName.BLAME]
    blank = not raw or raw.isspace()  # unlike raw.strip(), copies nothing
    shown, total = ([], 0) if blank else tk.blame_records(raw, cap)
    text, truncated = _capped([_l_line(rec) for rec in shown], total)
    if shown:
        legend = [f"{short} {about}".rstrip() for short, (_, about) in _legend(shown).items()]
        text += "\nCommits:\n" + "\n".join(legend)
    return text, truncated, partial(extract_blame, shown, total)


def format_log_s(raw: str) -> tuple[str, bool, Extraction]:
    lines = split_lines(raw)
    return *_capped(lines[:LINE_CAPS[ToolName.LOG_S]], len(lines)), partial(extract_log, lines)


def format_log_func(raw: str) -> tuple[str, bool, Extraction]:
    lines = split_lines(strip_trailers(raw))
    return *_capped(lines[:LINE_CAPS[ToolName.LOG_FUNC]], len(lines)), partial(extract_log, lines)


def format_grep(raw: str) -> tuple[str, bool, Extraction]:
    lines = split_lines(raw)
    return *_capped(lines[:LINE_CAPS[ToolName.GREP]], len(lines)), partial(extract_grep, lines)


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


def extract_show(lines: list[str]) -> tuple[str, bool]:
    kept, in_diff = [], False
    for ln in lines:
        if ln.startswith("diff --git"):
            in_diff = True
        if not in_diff or ln.startswith(_DIFF_KEEP_PREFIXES):
            kept.append(ln)
    body, elided = _head_tail(kept, SHOW_KEEP)
    return "\n".join(body), elided


def extract_blame(shown: list[dict], total: int) -> tuple[str, bool]:
    legend = _legend(shown)
    of_total = f", in the first {len(shown)} of {total} lines" if total > len(shown) else ""
    summary = [f"Commits in blame ({len(legend)} distinct{of_total}):"]
    summary += [f"  {short} ({n} lines) {about}".rstrip() for short, (n, about) in legend.items()]
    body, elided = _head_tail([_l_line(rec) for rec in shown], BLAME_KEEP)
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


def extract_log(lines: list[str]) -> tuple[str, bool]:
    entries = _split_entries(lines)
    if len(entries) <= LOG_KEEP:
        return "\n".join(lines), False
    kept = entries[:LOG_KEEP]
    omitted = len(entries) - LOG_KEEP
    out = [ln for block in kept for ln in block]
    out.append(
        f"{_NOTICE_PREFIX}: showing first {LOG_KEEP} entries, {omitted} omitted; "
        "retry with narrower parameters to see more]"
    )
    return "\n".join(out), True


def extract_grep(lines: list[str]) -> tuple[str, bool]:
    matches = []  # (file, line_text)
    for ln in lines:
        if not ln.strip():
            continue
        parts = ln.split(":", 3)
        if len(parts) >= 4 and parts[2].isdigit():
            matches.append((parts[1], ln))
        elif len(parts) >= 3 and parts[1].isdigit():
            matches.append((parts[0], ln))
        else:
            matches.append(("(other)", ln))
    totals = Counter(path for path, _ in matches)
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


_GENERIC_NOTICE = "[output truncated; retry with narrower parameters to see more]"


def compress_formatted(text: str, truncated: bool, extract: Extraction, tau: int) -> tuple[str, bool]:
    """Layer 3 plus the final size clamp, applied to a formatter's text, flag and extraction."""
    if len(text) > tau:
        text, elided = extract()
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
        formatted = _FORMATTERS[args.tool](raw)
    except tk.MalformedPorcelain as exc:
        # Cached like any output git produced: a repeat is a hit.
        text, truncated = f"Error (malformed_output): {exc}", False
    else:
        text, truncated = compress_formatted(*formatted, tau)
        if not text.strip():
            text = "(no output)"
    cache[key] = (text, truncated)
    return Observation(text, truncated=truncated, cache_hit=False)
