"""Classic blame-based baselines for bug-inducing commit identification.

b_szz traces every deleted or modified line of the fix back to the commit
that last touched it at the fix's first parent. r_szz and l_szz pick a
single candidate: the most recent one, or the one owning the most traced
lines. Ties resolve to the lexicographically smallest commit id so results
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caseprep import FixContext
from .gitio import RepoHandle
from .tools import ToolError, blame_records, exec_git_blame


# Past this many -L ranges a file is blamed whole, which gives the same
# records for the traced lines; up to it the argv stays under about 14 KB.
MAX_BLAME_RANGES = 1000


@dataclass(frozen=True)
class BlameCandidate:
    commit: str
    lines_attributed: int
    committer_time: int


def line_ranges(line_numbers) -> list[tuple[int, int]]:
    """Sorted inclusive (start, end) runs of the given line numbers."""
    ranges: list[tuple[int, int]] = []
    for n in sorted(set(line_numbers)):
        if ranges and ranges[-1][1] == n - 1:
            ranges[-1] = (ranges[-1][0], n)
        else:
            ranges.append((n, n))
    return ranges


def blame_candidates(repo: RepoHandle, fc: FixContext) -> list[BlameCandidate]:
    """One candidate per blamed commit, with the traced lines it owns, sorted by id.

    Each file is blamed once, on just the traced lines.
    """
    counts: dict[str, int] = {}
    times: dict[str, int] = {}
    for path, removed in fc.deleted_or_modified_lines.items():
        ranges = line_ranges(n for n, _ in removed)
        if len(ranges) > MAX_BLAME_RANGES:
            ranges = []  # no -L: the whole file
        try:
            raw = exec_git_blame(repo, path, fc.fix_parent, ranges)
        except ToolError:
            continue
        by_line = {rec["final_line"]: rec for rec in blame_records(raw)[0]}
        for line_no, _ in removed:
            rec = by_line.get(line_no)
            if rec:
                counts[rec["commit"]] = counts.get(rec["commit"], 0) + 1
                times[rec["commit"]] = int(rec["committer-time"])
    return [
        BlameCandidate(commit=c, lines_attributed=n, committer_time=times[c])
        for c, n in sorted(counts.items())
    ]


def b_szz(repo: RepoHandle, fc: FixContext) -> set[str]:
    """All commits that last touched a line deleted or modified by the fix."""
    return {cand.commit for cand in blame_candidates(repo, fc)}


def r_szz(repo: RepoHandle, fc: FixContext) -> str | None:
    """Most recent blame candidate by committer time; ties break to smallest id."""
    candidates = blame_candidates(repo, fc)
    if not candidates:
        return None
    return min(candidates, key=lambda c: (-c.committer_time, c.commit)).commit


def l_szz(repo: RepoHandle, fc: FixContext) -> str | None:
    """Candidate owning the most traced lines; ties break to smallest id."""
    candidates = blame_candidates(repo, fc)
    if not candidates:
        return None
    return min(candidates, key=lambda c: (-c.lines_attributed, c.commit)).commit
