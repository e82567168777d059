"""Dataset ingestion, metrics, hard-case classification and reporting.

Metrics are micro-averaged: intersection, prediction and ground-truth
counts are summed over all cases before dividing, so multi-candidate
baselines and single-answer agents are measured on the same scale.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field, fields

from . import gitio
from .caseprep import CaseSpec, FixContext, read_json_lines
from .gitio import GitStatus, RepoHandle

DATASET_SCHEMA = "bictrace-dataset/v1"
RESULTS_SCHEMA = "bictrace-results/v1"
REPORT_SCHEMA = "bictrace-report/v2"


# Each name a `price_table` may set (US dollars per 1000 tokens) and the cost it prices.
PRICED_TOKENS = {"prompt_usd_per_1k": "prompt_tokens", "completion_usd_per_1k": "completion_tokens"}


class DatasetError(Exception):
    """An input that does not fit the dataset: a bad dataset or results file, or an unknown case."""


def _full_ids(path: str, i: int, name: str, ids: list) -> list[str]:
    """`ids`, lower-cased, from line `i` of `path`; each must be a full commit id.

    Git names commits by full lower-case ids; an abbreviation would need a
    spawn to resolve, so it is rejected instead.
    """
    for commit in ids:
        if not (isinstance(commit, str) and gitio.COMMIT_ID_RE.fullmatch(commit.lower())):
            raise DatasetError(f"{path}:{i}: {name} {commit!r} is not a 40-hex-digit commit id")
    return [commit.lower() for commit in ids]


def clone_dir(url: str) -> str | None:
    """`<host>/<path>`, the directory of a remote repository's clone under the repos directory;
    None for a local path.

    The host is lower-cased without user or port (an empty one, as in file:///x, is left out) and
    the path loses a trailing '/' and `.git`, so the https, ssh:// and scp (`git@host:path`) URLs
    of one repository share a clone and two repositories never do.
    """
    scheme = re.match(r"^[a-z+]+://", url)
    if scheme:
        host, _, path = url[scheme.end():].partition("/")
        host = re.sub(r":\d*$", "", host.rpartition("@")[2])
    elif url.startswith("git@"):
        host, _, path = url[4:].partition(":")
    else:
        return None
    names = [name for name in path.rstrip("/").removesuffix(".git").split("/") if name]
    if not names or {".", ".."} & {host, *names}:
        raise ValueError(f"repo {url} names no clone directory")
    return os.path.join(host.lower(), *names)


def load_dataset(path: str) -> list[CaseSpec]:
    """Read a line-delimited dataset file of fix commits and their BICs.

    A remote `repo` must name a clone directory (see clone_dir).
    """
    cases = []
    seen = set()
    for i, record in read_json_lines(path, DatasetError, comments=True):
        if record.get("schema") == DATASET_SCHEMA:
            continue
        if not (all(isinstance(record.get(k), str) for k in ("repo", "fix_commit"))
                and all(isinstance(record.get(k, ""), str) for k in ("dataset_tag", "case_id"))):
            raise DatasetError(f"{path}:{i}: case needs string 'repo' and 'fix_commit' fields, "
                               "and string 'dataset_tag' and 'case_id' if given")
        try:
            clone_dir(record["repo"])
        except ValueError as exc:
            raise DatasetError(f"{path}:{i}: {exc}") from None
        bics = record.get("bics")
        if not (isinstance(bics, list) and bics):
            raise DatasetError(f"{path}:{i}: 'bics' must be a nonempty list of commit ids")
        case = CaseSpec(
            repo_path=record["repo"],
            fix_commit=record["fix_commit"],
            ground_truth=set(_full_ids(path, i, "bic", bics)),
            dataset_tag=record.get("dataset_tag", ""),
            case_id=record.get("case_id", ""),
        )
        if case.case_id in seen:
            raise DatasetError(f"{path}:{i}: duplicate case id {case.case_id}")
        seen.add(case.case_id)
        cases.append(case)
    return cases


@dataclass
class CaseResult:
    case_id: str
    predicted: list[str] = field(default_factory=list)
    transcript_ref: str | None = None
    cost: dict = field(default_factory=dict)  # tokens, turns, seconds; aggregate_report prices the tokens
    error: str | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "predicted": sorted(self.predicted)}

    @classmethod
    def from_dict(cls, data: dict) -> "CaseResult":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def write_results(path: str, method: str):
    """Begin a results file with its header line, replacing any earlier file at `path`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"schema": RESULTS_SCHEMA, "method": method}, sort_keys=True) + "\n")


def append_result(path: str, result: CaseResult):
    """Add one case's line to a results file that write_results began, and close the file again."""
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")


def read_results(path: str) -> tuple[str, list[CaseResult]]:
    lines = read_json_lines(path, DatasetError)
    if not lines or lines[0][1].get("schema") != RESULTS_SCHEMA:
        raise DatasetError(f"{path} is not a {RESULTS_SCHEMA} file")
    method = lines[0][1].get("method", "")
    if not isinstance(method, str):
        raise DatasetError(f"{path}:{lines[0][0]}: 'method' must be a string")
    seen = set()
    for i, record in lines[1:]:
        predicted = record.get("predicted", [])
        if not (isinstance(record.get("case_id"), str) and isinstance(predicted, list)):
            raise DatasetError(f"{path}:{i}: result needs a string 'case_id' and a 'predicted' list")
        record["predicted"] = _full_ids(path, i, "predicted id", predicted)
        cost = record.get("cost", {})
        if not (isinstance(cost, dict) and all(type(v) in (int, float) for v in cost.values())
                and type(record.get("error")) in (str, type(None))):
            raise DatasetError(f"{path}:{i}: 'cost' must be an object of numbers, "
                               "and 'error' a string or null")
        if record["case_id"] in seen:
            raise DatasetError(f"{path}:{i}: duplicate case id {record['case_id']}")
        seen.add(record["case_id"])
    return method or path, [CaseResult.from_dict(record) for _, record in lines[1:]]


def metrics(
    results: list[CaseResult], ground_truth: dict[str, set[str]]
) -> tuple[float, float, float]:
    """Micro-averaged precision, recall, F1 over all cases.

    With zero predictions overall, precision is 0 by convention. F1 is
    computed as 2*I/(P+G), which equals the harmonic mean of the micro
    precision and recall and keeps the division exact. Every result's case
    must be in `ground_truth`; aggregate_report checks that first.
    """
    intersection = predicted_total = truth_total = 0
    for result in results:
        truth = ground_truth[result.case_id]
        predicted = set(result.predicted)
        intersection += len(truth & predicted)
        predicted_total += len(predicted)
        truth_total += len(truth)
    precision = intersection / predicted_total if predicted_total else 0.0
    recall = intersection / truth_total if truth_total else 0.0
    f1 = 2 * intersection / (predicted_total + truth_total) if (predicted_total + truth_total) else 0.0
    return precision, recall, f1


def classify_ghost(fc: FixContext) -> bool:
    """True when the fix deletes or modifies nothing (addition-only)."""
    return not any(fc.deleted_or_modified_lines.values())


def classify_cross_file(repo: RepoHandle, case: CaseSpec, fc: FixContext) -> bool:
    """True when no ground-truth BIC appears in any fix-touched file's history."""
    history: set[str] = set()
    for path in fc.changed_files:
        out = gitio.run_git(repo, ["log", "--format=%H", "--follow", fc.fix_id, "--", path])
        if out.status is GitStatus.OK:
            history.update(out.stdout.split())
    return all(bic not in history for bic in case.ground_truth)


def hard_case_flags(repo: RepoHandle, case: CaseSpec, fc: FixContext) -> dict:
    """A dataset case's hard-case flags; they depend on the case, never on the method."""
    return {"ghost": classify_ghost(fc), "cross_file": classify_cross_file(repo, case, fc)}


@dataclass
class EvalReport:
    name: str
    n_cases: int
    precision: float
    recall: float
    f1: float
    missing: int = 0  # dataset cases without a results line, scored as misses
    category_recall: dict = field(default_factory=dict)  # {"ghost": {...}, "cross_file": {...}}
    cost_means: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, **asdict(self)}

    def render_table(self) -> str:
        lines = [
            f"Report: {self.name} ({self.n_cases} cases)",
            f"  precision: {self.precision:.4f}",
            f"  recall:    {self.recall:.4f}",
            f"  f1:        {self.f1:.4f}",
        ]
        if self.missing:
            lines.append(f"  missing: {self.missing}")
        for category, stats in self.category_recall.items():
            lines.append(f"  {category}: {stats['n_cases']} cases, recall {stats['recall']:.4f}")
        for key, value in self.cost_means.items():
            lines.append(f"  mean {key}: {value:.4f}")
        return "\n".join(lines)


def aggregate_report(
    cases: list[CaseSpec],
    results: list[CaseResult],
    flags: dict[str, dict],
    name: str,
    price_table: dict | None = None,
) -> EvalReport:
    """Scores over every dataset case, a case without a results line as a miss.

    `flags` maps case ids to `hard_case_flags`; a case it lacks is in no subset.
    """
    ground_truth = {case.case_id: case.ground_truth for case in cases}
    unknown = [r.case_id for r in results if r.case_id not in ground_truth]
    if unknown:
        raise DatasetError(f"results for unknown case ids: {', '.join(sorted(unknown))}")
    seen = {r.case_id for r in results}
    scored = results + [CaseResult(case_id=cid) for cid in ground_truth if cid not in seen]
    precision, recall, f1 = metrics(scored, ground_truth)

    category_recall = {}
    for category in ("ghost", "cross_file"):
        subset = [r for r in scored if flags.get(r.case_id, {}).get(category)]
        _, cat_recall, _ = metrics(subset, ground_truth)
        category_recall[category] = {"n_cases": len(subset), "recall": cat_recall}

    cost_means = {}
    for key in ("tokens", "turns", "seconds"):
        values = [r.cost.get(key) for r in results if r.cost.get(key) is not None]
        if values:
            cost_means[key] = sum(values) / len(values)
    if price_table and results:
        dollars = [sum(r.cost.get(tokens, 0) / 1000 * price_table.get(price, 0.0)
                       for price, tokens in PRICED_TOKENS.items()) for r in results]
        cost_means["dollars"] = sum(dollars) / len(dollars)

    return EvalReport(
        name=name,
        n_cases=len(scored),
        precision=precision,
        recall=recall,
        f1=f1,
        missing=len(scored) - len(results),
        category_recall=category_recall,
        cost_means=cost_means,
    )
