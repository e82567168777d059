"""Sanitizing and resolving the agent's declared commit hash.

The declared hash may carry punctuation, wrong case, or a hallucinated
tail. After sanitizing, resolution tries the full string and then
progressively shorter prefixes (12, 10, 8, 7); an ambiguous prefix fails
its rung. Anything under 7 characters is discarded without touching the
repository.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import gitio
from .gitio import RepoHandle

PREFIX_LADDER = (12, 10, 8, 7)
MIN_PREFIX = 7

_HEX_RUN_RE = re.compile(r"\b[0-9a-fA-F]+\b")


@dataclass
class ResolutionTrace:
    input_text: str
    sanitized: str
    attempts: list[tuple[int, str]] = field(default_factory=list)
    result: str = "discarded"  # resolved | discarded


def sanitize_hash(raw: str) -> str:
    """Longest standalone hexadecimal token in the text, lowercased; '' if none."""
    runs = _HEX_RUN_RE.findall(raw or "")
    if not runs:
        return ""
    return max(runs, key=len).lower()


def resolve_prediction(
    repo: RepoHandle, sanitized: str, fix_date: int, input_text: str = ""
) -> tuple[str, str | None, ResolutionTrace]:
    """Resolve a sanitized hash against the repository.

    Returns (status, resolved_id, trace) with status 'resolved' or
    'discarded'. A resolved commit later than fix_date is downgraded to
    discarded: the final answer must obey the same temporal bound as the
    search.
    """
    trace = ResolutionTrace(input_text=input_text, sanitized=sanitized)
    if len(sanitized) < MIN_PREFIX:
        return "discarded", None, trace

    lengths = [len(sanitized)] + [n for n in PREFIX_LADDER if n < len(sanitized)]
    for n in lengths:
        outcome, full, committed = gitio.probe_commit(repo, sanitized[:n])
        trace.attempts.append((n, outcome))
        if outcome == "resolved":
            if committed > fix_date:
                trace.attempts.append((n, "rejected_postdates_fix"))
                return "discarded", None, trace
            trace.result = "resolved"
            return "resolved", full, trace
    return "discarded", None, trace
