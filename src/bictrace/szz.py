"""Classic blame-based baselines for bug-inducing commit identification.

b_szz traces every deleted or modified line of the fix back to the commit
that last touched it at the fix's first parent. r_szz and l_szz pick a
single candidate: the most recent one, or the one owning the most traced
lines. Ties resolve to the lexicographically smallest commit id so results
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gitio
from .caseprep import FixContext
from .compress import parse_blame_porcelain
from .gitio import GitStatus, RepoHandle


@dataclass(frozen=True)
class BlameCandidate:
    commit: str
    file: str
    lines_attributed: int
    committer_time: int


def blame_candidates(repo: RepoHandle, fc: FixContext) -> list[BlameCandidate]:
    """Blame attribution counts for the fix's pre-image lines, per file."""
    counts: dict[tuple[str, str], int] = {}
    times: dict[str, int] = {}
    for path, removed in fc.deleted_or_modified_lines.items():
        out = gitio.run_git(
            repo, ["blame", "--porcelain", fc.fix_parent, "--", path]
        )
        if out.status is not GitStatus.OK:
            continue
        by_line = {rec["final_line"]: rec for rec in parse_blame_porcelain(out.stdout)}
        for line_no, _ in removed:
            rec = by_line.get(line_no)
            if rec:
                key = (rec["commit"], path)
                counts[key] = counts.get(key, 0) + 1
                times[rec["commit"]] = int(rec["committer-time"])
    return [
        BlameCandidate(commit=c, file=p, lines_attributed=n, committer_time=times[c])
        for (c, p), n in sorted(counts.items())
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
    per_commit: dict[str, int] = {}
    for cand in blame_candidates(repo, fc):
        per_commit[cand.commit] = per_commit.get(cand.commit, 0) + cand.lines_attributed
    if not per_commit:
        return None
    return min(per_commit, key=lambda c: (-per_commit[c], c))
