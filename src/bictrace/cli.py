"""Command-line entry point.

Subcommands: investigate one case, batch over a dataset, run the blame
baselines, aggregate metrics, replay a recorded transcript, poke a single
tool, and clone dataset repositories.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import evaluate as ev
from . import gitio, szz
from .agent import (
    BackendUnavailable,
    DesyncError,
    LiveBackend,
    ModelStep,
    Prediction,
    ReplayBackend,
    SchemaMismatch,
    ScriptedBackend,
    record_transcript,
    run_investigation,
)
from .caseprep import CaseSpec, RootCommit, assemble_initial_context, load_fix_context
from .compress import CompressionConfig, execute_compressed, execute_raw, format_raw
from .evaluate import CaseResult, Dataset, load_dataset
from .gitio import RepoHandle
from .prompts import default_template
from .tools import SchemaError, ToolError, ToolName, parse_args as parse_tool_args, tool_schemas

ENV_ENDPOINT = "BICTRACE_ENDPOINT"
ENV_API_KEY = "BICTRACE_API_KEY"
ENV_MODEL = "BICTRACE_MODEL"


@dataclass
class RunConfig:
    backend: str = "live"  # live | scripted:<path> | replay:<path>
    model: str = ""
    endpoint_url: str = ""
    api_key: str = ""
    max_turns: int = 15
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    parallelism: int = 1
    run_dir: str = "runs"
    run_id: str = ""
    price_table: dict | None = None
    forced_answer: bool = True

    def __post_init__(self):
        if self.max_turns < 1:
            raise ValueError("max_turns must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Assemble config with precedence: flags > environment > file > defaults."""
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as f:
            merged.update(json.load(f))
    env_map = {"endpoint_url": ENV_ENDPOINT, "api_key": ENV_API_KEY, "model": ENV_MODEL}
    for key, env_name in env_map.items():
        if os.environ.get(env_name):
            merged[key] = os.environ[env_name]
    flag_map = {
        "backend": "backend",
        "model": "model",
        "endpoint_url": "endpoint_url",
        "max_turns": "max_turns",
        "parallelism": "parallelism",
        "run_dir": "run_dir",
        "run_id": "run_id",
    }
    for cfg_key, flag in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            merged[cfg_key] = value
    compression = CompressionConfig.from_dict(merged.pop("compression", {}))
    price_table = merged.pop("price_table", None)
    known = {k: v for k, v in merged.items() if k in RunConfig.__dataclass_fields__}
    cfg = RunConfig(compression=compression, price_table=price_table, **known)
    if not cfg.run_id:
        cfg.run_id = time.strftime("run-%Y%m%d-%H%M%S")
    return cfg


def load_script(path: str) -> tuple[list[ModelStep], bool]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, dict):
        steps = [ModelStep.from_dict(s) for s in data["steps"]]
        return steps, bool(data.get("repeat_last", False))
    return [ModelStep.from_dict(s) for s in data], False


def make_backend(config: RunConfig):
    """Backend factory; called once per case so sessions stay independent."""
    spec = config.backend
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        steps, repeat = load_script(path)
        return lambda: ScriptedBackend(steps, repeat_last=repeat)
    if spec.startswith("replay:"):
        path = spec.split(":", 1)[1]
        return lambda: ReplayBackend(path)
    if spec == "live":
        return lambda: LiveBackend(
            endpoint_url=config.endpoint_url or None,
            model=config.model or None,
            api_key=config.api_key or None,
        )
    raise ValueError(f"unknown backend spec: {spec}")


def _safe_name(case_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", case_id)


def _run_paths(config: RunConfig) -> dict:
    base = os.path.join(config.run_dir, config.run_id)
    paths = {
        "base": base,
        "cases": os.path.join(base, "cases"),
        "transcripts": os.path.join(base, "transcripts"),
    }
    for p in paths.values():
        os.makedirs(p, exist_ok=True)
    with open(os.path.join(base, "config.json"), "w", encoding="utf-8") as f:
        json.dump(
            {
                "backend": config.backend,
                "model": config.model,
                "max_turns": config.max_turns,
                "parallelism": config.parallelism,
                "forced_answer": config.forced_answer,
                "compression": config.compression.to_dict(),
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
    return paths


def _clone_name(url: str) -> str | None:
    """Directory name of a remote repository's clone; None for a local path."""
    if not (re.match(r"^[a-z+]+://", url) or url.startswith("git@")):
        return None
    name = url.rstrip("/").rsplit("/", 1)[-1]
    return name[:-4] if name.endswith(".git") else name


def _materialize_repo(repo_field: str, repos_dir: str | None) -> str:
    name = _clone_name(repo_field)
    if name is not None:
        if not repos_dir:
            raise ev.DatasetError(
                f"dataset refers to remote repo {repo_field}; pass --repos-dir "
                "with pre-fetched clones (see fetch-datasets)"
            )
        local = os.path.join(repos_dir, name)
        if not os.path.isdir(local):
            raise ev.DatasetError(f"clone for {repo_field} not found at {local}")
        return local
    return repo_field


def _investigate_one(
    case: CaseSpec, config: RunConfig, backend_factory, paths: dict
) -> tuple[Prediction, CaseResult]:
    start = time.monotonic()
    repo = RepoHandle(case.repo_path)
    fc = load_fix_context(repo, case.fix_commit)
    ctx = assemble_initial_context(fc, tool_schemas(), default_template())
    prediction, transcript = run_investigation(
        case,
        repo,
        fc,
        ctx,
        backend_factory(),
        max_turns=config.max_turns,
        cfg=config.compression,
        forced_answer=config.forced_answer,
    )
    elapsed = time.monotonic() - start

    transcript_path = os.path.join(paths["transcripts"], _safe_name(case.case_id) + ".jsonl")
    record_transcript(transcript, prediction, transcript_path)

    flags = {"ghost": ev.classify_ghost(fc)}
    if case.ground_truth:
        flags["cross_file"] = ev.classify_cross_file(repo, case, fc)
    result = CaseResult(
        case_id=case.case_id,
        predicted=[prediction.resolved_id] if prediction.resolved_id else [],
        transcript_ref=transcript_path,
        category_flags=flags,
        cost={
            "tokens": transcript.total_tokens,
            "prompt_tokens": transcript.prompt_tokens,
            "completion_tokens": transcript.completion_tokens,
            "turns": transcript.total_turns,
            "tool_turns": transcript.tool_turns,
            "seconds": elapsed,
        },
        error=transcript.error,
    )
    case_path = os.path.join(paths["cases"], _safe_name(case.case_id) + ".json")
    payload = result.to_dict()
    payload["prediction"] = prediction.to_dict()
    with open(case_path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return prediction, result


def cmd_investigate(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    case = CaseSpec(repo_path=args.repo, fix_commit=args.fix, dataset_tag=args.tag or "adhoc")
    try:
        backend_factory = make_backend(config)
        paths = _run_paths(config)
        prediction, result = _investigate_one(case, config, backend_factory, paths)
    except (BackendUnavailable, gitio.GitGatewayError, RootCommit, SchemaMismatch,
            DesyncError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"case: {case.case_id}")
    print(f"status: {prediction.status}")
    print(f"bic: {prediction.resolved_id or '(none)'}")
    print(f"confidence: {prediction.confidence}")
    print(f"transcript: {result.transcript_ref}")
    if result.error:
        print(f"error: {result.error}", file=sys.stderr)
        return 1
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    try:
        dataset = load_dataset(args.dataset)
        backend_factory = make_backend(config)
    except (ev.DatasetError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths = _run_paths(config)

    def worker(case: CaseSpec) -> CaseResult:
        local = CaseSpec(
            repo_path=_materialize_repo(case.repo_path, args.repos_dir),
            fix_commit=case.fix_commit,
            ground_truth=case.ground_truth,
            dataset_tag=case.dataset_tag,
            case_id=case.case_id,
        )
        try:
            return _investigate_one(local, config, backend_factory, paths)[1]
        except Exception as exc:  # noqa: BLE001 - batch must survive any case
            return CaseResult(case_id=case.case_id, error=str(exc))

    results: list[CaseResult] = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        for result in pool.map(worker, dataset.cases):
            results.append(result)
            print(f"[{len(results)}/{len(dataset.cases)}] {result.case_id}: "
                  f"{'error: ' + result.error if result.error else ','.join(result.predicted) or 'no prediction'}")
    out = os.path.join(paths["base"], "results.jsonl")
    ev.write_results(out, f"agent-{config.backend.split(':', 1)[0]}", results)
    print(f"results: {out}")
    failures = sum(1 for r in results if r.error)
    if failures:
        print(f"{failures} case(s) failed infrastructure-wise", file=sys.stderr)
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    try:
        dataset = load_dataset(args.dataset)
    except (ev.DatasetError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    algorithms = {"b": szz.b_szz, "r": szz.r_szz, "l": szz.l_szz}
    algorithm = algorithms[args.algorithm]
    results = []
    for case in dataset.cases:
        start = time.monotonic()
        try:
            repo_path = _materialize_repo(case.repo_path, args.repos_dir)
            repo = RepoHandle(repo_path)
            fc = load_fix_context(repo, case.fix_commit)
            outcome = algorithm(repo, fc)
            predicted = sorted(outcome) if isinstance(outcome, set) else ([outcome] if outcome else [])
            flags = {
                "ghost": ev.classify_ghost(fc),
                "cross_file": ev.classify_cross_file(repo, case, fc),
            }
            results.append(
                CaseResult(
                    case_id=case.case_id,
                    predicted=predicted,
                    category_flags=flags,
                    cost={"seconds": time.monotonic() - start},
                )
            )
        except Exception as exc:  # noqa: BLE001 - per-case failures recorded
            results.append(CaseResult(case_id=case.case_id, error=str(exc)))
    ev.write_results(args.out, f"{args.algorithm}-szz", results)
    print(f"wrote {len(results)} case results to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        dataset = load_dataset(args.dataset)
    except (ev.DatasetError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reports = []
    infra_failures = 0
    for results_path in args.results:
        try:
            method, results = ev.read_results(results_path)
            price = None
            if args.config:
                with open(args.config, encoding="utf-8") as f:
                    price = json.load(f).get("price_table")
            report = ev.aggregate_report(dataset, results, name=method, price_table=price)
        except (ev.DatasetError, ev.MissingGroundTruth, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        infra_failures += sum(1 for r in results if r.error)
        reports.append(report)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            stem = _safe_name(report.name)
            ev.emit_report(
                report,
                os.path.join(args.out, f"{stem}.report.json"),
                os.path.join(args.out, f"{stem}.report.txt"),
            )
    if len(reports) == 1:
        print(reports[0].render_table())
    else:
        print(f"{'method':<24} {'n':>5} {'prec':>8} {'recall':>8} {'f1':>8}")
        for report in reports:
            print(
                f"{report.name:<24} {report.n_cases:>5} {report.precision:>8.4f} "
                f"{report.recall:>8.4f} {report.f1:>8.4f}"
            )
    if infra_failures:
        # Wrong predictions are a score, not a failure; broken cases are.
        print(f"{infra_failures} case(s) carry infrastructure errors", file=sys.stderr)
        return 3
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        with open(args.transcript, encoding="utf-8") as f:
            header = json.loads(f.readline())
        if header.get("schema") != "bictrace-transcript/v1":
            raise SchemaMismatch(f"{args.transcript} is not a transcript file")
        setattr(args, "backend", f"replay:{args.transcript}")
        setattr(args, "repo", args.repo or header["repo"])
        setattr(args, "fix", header["fix"])
        setattr(args, "tag", header.get("case_id", "replay").split(":")[0])
        return cmd_investigate(args)
    except (OSError, json.JSONDecodeError, SchemaMismatch, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_tool(args: argparse.Namespace) -> int:
    try:
        tool = ToolName(args.tool)
    except ValueError:
        print(f"error: unknown tool {args.tool!r}; choose from "
              f"{', '.join(t.value for t in ToolName)}", file=sys.stderr)
        return 1
    try:
        payload = json.loads(args.args)
        tool_args = parse_tool_args(tool, payload)
    except json.JSONDecodeError as exc:
        print(f"error: --args is not valid JSON: {exc}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        # Mirror exactly what the agent would observe.
        print(f"Error (schema): {exc}")
        return 2
    try:
        repo = RepoHandle(args.repo)
        fix_id = gitio.resolve_commit(repo, args.fix)
        if fix_id is None:
            raise gitio.CommitNotFound(f"--fix {args.fix!r} does not resolve")
        fix_date = gitio.commit_timestamp(repo, fix_id)
        default_commit = gitio.parent_of(repo, fix_id, 1) or fix_id
    except gitio.GitGatewayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg = CompressionConfig()
    if args.raw:
        try:
            raw = execute_raw(repo, tool, tool_args, default_commit)
        except ToolError as exc:
            print(f"Error ({exc.kind}): {exc}")
            return 2
        formatted, _ = format_raw(tool, raw, cfg)
        print(formatted)
        return 0
    obs = execute_compressed(
        repo, tool, tool_args, fix_date, {}, cfg, default_commit=default_commit
    )
    print(obs.text)
    return 0


def cmd_fetch_datasets(args: argparse.Namespace) -> int:
    try:
        dataset = load_dataset(args.dataset)
    except (ev.DatasetError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.dest, exist_ok=True)
    failures = 0
    seen = set()
    for case in dataset.cases:
        url = case.repo_path
        if url in seen:
            continue
        seen.add(url)
        name = _clone_name(url)
        if name is None:
            if not os.path.isdir(url):
                print(f"missing local repo: {url}", file=sys.stderr)
                failures += 1
            continue
        target = os.path.join(args.dest, name)
        if os.path.isdir(target):
            print(f"exists: {target}")
            continue
        print(f"cloning {url} -> {target}")
        proc = subprocess.run(["git", "clone", "--quiet", url, target], check=False)
        if proc.returncode != 0:
            failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bictrace",
        description="Identify bug-inducing commits from bug-fixing commits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--backend", help="live | scripted:<path> | replay:<path>")
        p.add_argument("--model", help="model name for the live backend")
        p.add_argument("--endpoint-url", dest="endpoint_url", help="chat-completions endpoint URL")
        p.add_argument("--max-turns", dest="max_turns", type=int, help="tool-turn budget (default 15)")
        p.add_argument("--run-dir", dest="run_dir", help="output directory for runs")
        p.add_argument("--run-id", dest="run_id", help="run identifier (default: timestamp)")
        p.add_argument("--config", help="JSON config file (flags and env override it)")

    p = sub.add_parser("investigate", help="run one investigation")
    p.add_argument("--repo", required=True, help="path to the local git repository")
    p.add_argument("--fix", required=True, help="bug-fixing commit ref")
    p.add_argument("--tag", help="dataset tag for the case id")
    add_run_flags(p)
    p.set_defaults(func=cmd_investigate)

    p = sub.add_parser("batch", help="run investigations over a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--repos-dir", dest="repos_dir", help="directory of pre-fetched clones")
    p.add_argument("--parallelism", type=int, help="concurrent cases (default 1)")
    add_run_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("baseline", help="run a blame baseline over a dataset file")
    p.add_argument("--algorithm", required=True, choices=["b", "r", "l"])
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="results JSONL output path")
    p.add_argument("--repos-dir", dest="repos_dir", help="directory of pre-fetched clones")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="compute metrics for result files")
    p.add_argument("--dataset", required=True)
    p.add_argument("--results", required=True, nargs="+")
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--config", help="JSON config (price_table for dollar costs)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="re-run a recorded transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("--repo", help="override the repository path from the header")
    p.add_argument("--tag", help=argparse.SUPPRESS)
    add_run_flags(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("tool", help="run one tool and print the observation")
    p.add_argument("tool", help="git_show | git_blame | git_log_s | git_log_func | git_grep")
    p.add_argument("--repo", required=True)
    p.add_argument("--args", required=True, help="JSON object of tool arguments")
    p.add_argument("--fix", default="HEAD", help="fix commit providing the search bound")
    p.add_argument("--raw", action="store_true", help="print the formatted (pre-extraction) text")
    p.set_defaults(func=cmd_tool)

    p = sub.add_parser("fetch-datasets", help="clone the repositories a dataset refers to")
    p.add_argument("--dataset", required=True)
    p.add_argument("--dest", required=True)
    p.set_defaults(func=cmd_fetch_datasets)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
