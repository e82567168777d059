"""Command-line entry point.

Subcommands: investigate one case, batch over a dataset, run the blame
baselines, aggregate metrics, replay a recorded transcript, poke a single
tool, and clone dataset repositories.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace

from . import evaluate as ev
from . import gitio, szz
from .agent import (
    DEFAULT_MAX_TURNS,
    BackendUnavailable,
    DesyncError,
    LiveBackend,
    ModelStep,
    Prediction,
    SchemaMismatch,
    ScriptedBackend,
    read_transcript,
    record_transcript,
    require_recording,
    run_investigation,
)
from .caseprep import CaseSpec, RootCommit, load_fix_context, read_json
from .compress import TAU, execute_compressed
from .evaluate import CaseResult, load_dataset
from .gitio import RepoHandle
from .tools import SchemaError, ToolName, enforce_search_bound
from .tools import parse_args as parse_tool_args

# Failures the user can cause. main reports each as one "error:" line and
# exit 1; anything else (KeyError, TypeError, ...) is a bug and propagates.
USER_ERRORS = (
    OSError, ValueError, ev.DatasetError, gitio.GitGatewayError, RootCommit,
    BackendUnavailable, SchemaMismatch, DesyncError,
)


@dataclass
class RunConfig:
    backend: str = "live"  # live | scripted:<path>; a replay records replay:<path>
    model: str = ""
    endpoint_url: str = ""
    api_key: str = ""
    max_turns: int = DEFAULT_MAX_TURNS
    tau: int = field(default=TAU, metadata={"key": "compression.tau"})  # as the file nests it
    parallelism: int = 1
    run_dir: str = "runs"
    run_id: str = ""
    price_table: dict | None = None  # evaluate's US dollars per 1000 tokens; read_config checks it

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (type(value) is not int or value < 1):
                raise ValueError(f"{f.metadata.get('key', f.name)} must be >= 1, not {value!r}")
            if f.type == "str" and type(value) is not str:
                raise ValueError(f"{f.name} must be a {f.type}, not {value!r}")


def read_config(path: str) -> dict:
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    price = data.get("price_table")
    if price is not None:
        if not (isinstance(price, dict) and all(type(v) in (int, float) for v in price.values())):
            raise ValueError(f"{path}: price_table must map price names to numbers")
        unknown = sorted(set(price) - set(ev.PRICED_TOKENS))
        if unknown:
            raise ValueError(f"{path}: unknown price_table key(s): {', '.join(unknown)}")
    return data


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Assemble config with precedence: flags > environment > file > defaults."""
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(read_config(config_path))
    env_map = {"endpoint_url": "BICTRACE_ENDPOINT", "api_key": "BICTRACE_API_KEY", "model": "BICTRACE_MODEL"}
    for key, env_name in env_map.items():
        if os.environ.get(env_name):
            merged[key] = os.environ[env_name]
    flags = ("backend", "model", "endpoint_url", "max_turns", "parallelism", "run_dir", "run_id")
    for key in flags:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    compression = merged.pop("compression", {})
    if not isinstance(compression, dict):
        raise ValueError("compression must be a JSON object")
    unknown = sorted(set(compression) - {"tau"})
    if unknown:
        raise ValueError(f"unknown compression key(s): {', '.join(unknown)}")
    unknown = sorted(set(merged) - (set(RunConfig.__dataclass_fields__) - {"tau"}))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    return RunConfig(**merged, **compression)


def load_script(path: str) -> list[ModelStep]:
    data = read_json(path)
    steps = data.get("steps") if isinstance(data, dict) else data
    try:
        if not isinstance(steps, list):
            raise ValueError("found no step list")
        return [ModelStep.from_dict(s) for s in steps]
    except ValueError as exc:
        raise ValueError(f"{path}: a script is a list (or a {{\"steps\": [...]}} object) "
                         f"of step objects: {exc}") from None


def make_backend(config: RunConfig):
    """Backend factory, called once per case; a bad spec or setting fails here, before any case.

    A scripted backend holds its place in the step list, so each case gets
    its own. The live backend keeps no per-case state, so its cases share one.
    """
    spec = config.backend
    if spec.startswith("scripted:"):
        steps = load_script(spec.split(":", 1)[1])
        return lambda: ScriptedBackend(steps)
    if spec == "live":
        backend = LiveBackend(config.endpoint_url, config.model, config.api_key)
        return lambda: backend
    raise ValueError(f"unknown backend spec: {spec}")


def _safe_name(case_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", case_id)


def _refuse_shared_file_names(kind: str, names: list[str]):
    """Two different names that _safe_name maps to one file would overwrite each other's files."""
    owners: dict[str, str] = {}
    for name in names:
        stem = _safe_name(name)
        if owners.setdefault(stem, name) != name:
            raise ValueError(f"{kind} {owners[stem]} and {name} would share the file name {stem}")


def _write_json(path: str, data: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _new_run_dir(run_dir: str) -> str:
    """Create a directory no other run has: run-<stamp>, or else the first free run-<stamp>-<n>."""
    stamp = os.path.join(run_dir, time.strftime("run-%Y%m%d-%H%M%S"))
    for base in itertools.chain([stamp], (f"{stamp}-{n}" for n in itertools.count(1))):
        try:
            os.makedirs(base)  # of two runs that try one name, exactly one creates it
            return base
        except FileExistsError:
            continue


def _run_paths(config: RunConfig) -> dict:
    if config.run_id:
        base = os.path.join(config.run_dir, config.run_id)
    else:
        base = _new_run_dir(config.run_dir)
    paths = {
        "base": base,
        "cases": os.path.join(base, "cases"),
        "transcripts": os.path.join(base, "transcripts"),
    }
    for p in paths.values():
        os.makedirs(p, exist_ok=True)
    _write_json(os.path.join(base, "config.json"), {
        "backend": config.backend, "model": config.model, "max_turns": config.max_turns,
        "parallelism": config.parallelism, "compression": {"tau": config.tau},
    })
    return paths


def _materialize_repo(repo_field: str, repos_dir: str | None) -> str:
    clone = ev.clone_dir(repo_field)
    if clone is not None:
        if not repos_dir:
            raise ev.DatasetError(
                f"dataset refers to remote repo {repo_field}; pass --repos-dir "
                "with pre-fetched clones (see fetch-datasets)"
            )
        local = os.path.join(repos_dir, clone)
        if not os.path.isdir(local):
            raise ev.DatasetError(f"clone for {repo_field} not found at {local}")
        return local
    return repo_field


def _investigate_one(
    case: CaseSpec, repo: RepoHandle, config: RunConfig, backend_factory, paths: dict
) -> tuple[Prediction, CaseResult]:
    start = time.monotonic()
    prediction, transcript = run_investigation(
        case, repo, load_fix_context(repo, case.fix_commit), backend_factory(),
        max_turns=config.max_turns, tau=config.tau,
    )
    seconds = time.monotonic() - start

    transcript_path = os.path.join(paths["transcripts"], _safe_name(case.case_id) + ".jsonl")
    record_transcript(transcript, prediction, transcript_path)

    result = CaseResult(
        case_id=case.case_id,
        predicted=[prediction.resolved_id] if prediction.resolved_id else [],
        transcript_ref=transcript_path,
        cost={
            "tokens": transcript.total_tokens,
            "prompt_tokens": transcript.prompt_tokens,
            "completion_tokens": transcript.completion_tokens,
            "turns": transcript.total_turns,
            "tool_turns": transcript.tool_turns,
            "seconds": seconds,
        },
        error=transcript.error,
    )
    _write_json(os.path.join(paths["cases"], _safe_name(case.case_id) + ".json"),
                {**result.to_dict(), "prediction": asdict(prediction)})
    return prediction, result


def _print_outcome(case: CaseSpec, prediction: Prediction, result: CaseResult) -> int:
    print(f"case: {case.case_id}")
    print(f"status: {prediction.status}")
    print(f"bic: {prediction.resolved_id or '(none)'}")
    print(f"confidence: {prediction.confidence}")
    print(f"transcript: {result.transcript_ref}")
    if result.error:
        print(f"error: {result.error}", file=sys.stderr)
        return 1
    return 0


def cmd_investigate(args: argparse.Namespace) -> int:
    case = CaseSpec(repo_path=args.repo, fix_commit=args.fix, dataset_tag=args.tag or "adhoc")
    config = build_run_config(args)
    backend_factory = make_backend(config)
    return _print_outcome(case, *_investigate_one(case, RepoHandle(case.repo_path), config,
                                                  backend_factory, _run_paths(config)))


def _run_dataset(cases: list[CaseSpec], repos_dir: str | None, out: str, method: str,
                 run_case, workers: int = 1) -> int:
    """Run each case on its clone; append its line to `out` once it and every case before it finished.

    A case's failure becomes its error. A run that dies keeps every case
    before the first unfinished one: it cancels the queued cases, stops the
    running cases' git work (`RepoHandle.stop`) and re-raises without
    waiting for them.
    """
    handles: list[RepoHandle] | None = []  # each started case's; None once the run died
    lock = threading.Lock()

    def run_on_clone(case: CaseSpec) -> CaseResult:
        try:
            path = _materialize_repo(case.repo_path, repos_dir)
            repo = RepoHandle(path)
            with lock:
                if handles is None:
                    repo.stop()
                else:
                    handles.append(repo)
            return run_case(replace(case, repo_path=path), repo)
        except Exception as exc:  # noqa: BLE001 - a dataset run must survive any case
            return CaseResult(case_id=case.case_id, error=str(exc))

    ev.write_results(out, method)
    failures = 0
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    try:
        for i, result in enumerate(pool.map(run_on_clone, cases), start=1):
            ev.append_result(out, result)
            failures += bool(result.error)
            print(f"[{i}/{len(cases)}] {result.case_id}: "
                  f"{'error: ' + result.error if result.error else ','.join(result.predicted) or 'no prediction'}")
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        with lock:
            for repo in handles:
                repo.stop()
            handles = None
        raise
    pool.shutdown()
    print(f"results: {out}")
    if failures:
        print(f"{failures} case(s) failed infrastructure-wise", file=sys.stderr)
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    cases = load_dataset(args.dataset)
    # Each case writes cases/<name>.json and transcripts/<name>.jsonl.
    _refuse_shared_file_names("cases", [case.case_id for case in cases])
    backend_factory = make_backend(config)
    paths = _run_paths(config)
    return _run_dataset(cases, args.repos_dir, os.path.join(paths["base"], "results.jsonl"),
                        f"agent-{config.backend.split(':', 1)[0]}",
                        lambda case, repo: _investigate_one(case, repo, config, backend_factory,
                                                            paths)[1],
                        config.parallelism)


def cmd_baseline(args: argparse.Namespace) -> int:
    cases = load_dataset(args.dataset)
    algorithm = {"b": szz.b_szz, "r": szz.r_szz, "l": szz.l_szz}[args.algorithm]

    def run_case(case: CaseSpec, repo: RepoHandle) -> CaseResult:
        start = time.monotonic()
        outcome = algorithm(repo, load_fix_context(repo, case.fix_commit))
        return CaseResult(
            case_id=case.case_id,
            predicted=sorted(outcome) if isinstance(outcome, set) else ([outcome] if outcome else []),
            cost={"seconds": time.monotonic() - start},
        )

    return _run_dataset(cases, args.repos_dir, args.out, f"{args.algorithm}-szz", run_case)


def _hard_case_flags(cases: list[CaseSpec], repos_dir: str | None) -> dict[str, dict]:
    """Each dataset case's flags; a case that cannot be classified is named on stderr and left out."""
    flags = {}
    for case in cases:
        try:
            repo = RepoHandle(_materialize_repo(case.repo_path, repos_dir))
            flags[case.case_id] = ev.hard_case_flags(repo, case, load_fix_context(repo, case.fix_commit))
        except USER_ERRORS as exc:
            print(f"{case.case_id}: not classified, so in no hard-case subset: {exc}", file=sys.stderr)
    return flags


def _report_names(runs: list[tuple[str, str, list]]) -> list[str]:
    """Each results file's report name: its method, with its path where methods repeat."""
    methods = [method for _, method, _ in runs]
    names = [method if methods.count(method) == 1 else f"{method}:{path}" for path, method, _ in runs]
    _refuse_shared_file_names("reports", names)
    return names


def cmd_evaluate(args: argparse.Namespace) -> int:
    cases = load_dataset(args.dataset)
    price = build_run_config(args).price_table
    runs = [(path, *ev.read_results(path)) for path in args.results]
    names = _report_names(runs)
    flags = _hard_case_flags(cases, args.repos_dir)
    failed = len(flags) < len(cases)
    reports = []
    for (path, _, results), name in zip(runs, names):
        report = ev.aggregate_report(cases, results, flags, name=name, price_table=price)
        errors = sum(1 for r in results if r.error)
        if errors or report.missing:
            # Wrong predictions are a score, not a failure; broken or missing cases are.
            print(f"{path}: {errors} case(s) carry infrastructure errors, "
                  f"{report.missing} dataset case(s) missing", file=sys.stderr)
            failed = True
        reports.append(report)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            stem = os.path.join(args.out, _safe_name(report.name))
            _write_json(f"{stem}.report.json", report.to_dict())
            with open(f"{stem}.report.txt", "w", encoding="utf-8") as f:
                f.write(report.render_table() + "\n")
    if len(reports) == 1:
        print(reports[0].render_table())
    else:
        print(f"{'method':<24} {'n':>5} {'prec':>8} {'recall':>8} {'f1':>8}")
        for report in reports:
            print(f"{report.name:<24} {report.n_cases:>5} {report.precision:>8.4f} "
                  f"{report.recall:>8.4f} {report.f1:>8.4f}")
    return 3 if failed else 0


def cmd_replay(args: argparse.Namespace) -> int:
    header, steps, recording = read_transcript(args.transcript)
    case = CaseSpec(repo_path=args.repo or header["repo"], fix_commit=header["fix"],
                    case_id=header["case_id"])
    # No model runs in a replay, so none is recorded.
    config = replace(build_run_config(args), backend=f"replay:{args.transcript}", model="")
    # Without a run id the replay gets a new directory, so only an explicit one can hold the recording.
    target = os.path.join(config.run_dir, config.run_id, "transcripts",
                          _safe_name(case.case_id) + ".jsonl")
    if config.run_id and os.path.exists(target) and os.path.samefile(target, args.transcript):
        raise ValueError(f"replay would overwrite its recording {args.transcript}; "
                         "pass another --run-id or --run-dir")
    prediction, result = _investigate_one(case, RepoHandle(case.repo_path), config,
                                          lambda: ScriptedBackend(steps), _run_paths(config))
    require_recording(recording, args.transcript, result.transcript_ref)
    return _print_outcome(case, prediction, result)


def cmd_tool(args: argparse.Namespace) -> int:
    names = [t.value for t in ToolName]
    if args.tool not in names:
        raise ValueError(f"unknown tool {args.tool!r}; choose from {', '.join(names)}")
    tool = ToolName(args.tool)
    try:
        tool_args = parse_tool_args(tool, json.loads(args.args))
    except json.JSONDecodeError as exc:
        raise ValueError(f"--args is not valid JSON: {exc}") from None
    except SchemaError as exc:
        # Mirror exactly what the agent would observe.
        print(f"Error (schema): {exc}")
        return 2
    tau = build_run_config(args).tau
    repo = RepoHandle(args.repo)
    fc = load_fix_context(repo, args.fix)
    tool_args = enforce_search_bound(tool_args, fc.fix_date)
    # With --raw no output exceeds tau, so neither extraction nor the clamp runs.
    obs = execute_compressed(repo, tool_args, fc, {}, sys.maxsize if args.raw else tau)
    print(obs.text)
    return 0


def cmd_fetch_datasets(args: argparse.Namespace) -> int:
    cases = load_dataset(args.dataset)
    os.makedirs(args.dest, exist_ok=True)
    failures = 0
    seen = set()
    for case in cases:
        url = case.repo_path
        clone = ev.clone_dir(url)
        if (clone or url) in seen:
            continue
        seen.add(clone or url)
        if clone is None:
            if not os.path.isdir(url):
                print(f"missing local repo: {url}", file=sys.stderr)
                failures += 1
            continue
        target = os.path.join(args.dest, clone)
        if os.path.isdir(target):
            print(f"exists: {target}")
            continue
        created, parent = [], os.path.dirname(target)  # the directories git clone will make
        while not os.path.exists(parent):  # args.dest exists
            created.append(parent)
            parent = os.path.dirname(parent)
        print(f"cloning {url} -> {target}")
        proc = subprocess.run(["git", "clone", "--quiet", url, target], check=False)
        if proc.returncode != 0:
            failures += 1
            for path in created:  # deepest first; git removes the clone directory itself
                os.rmdir(path)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bictrace",
        description="Identify bug-inducing commits from bug-fixing commits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_flags(p):
        p.add_argument("--dataset", required=True)
        p.add_argument("--repos-dir", dest="repos_dir", help="directory of pre-fetched clones")

    def add_backend_flags(p):
        p.add_argument("--backend", help="live | scripted:<path>")
        p.add_argument("--model", help="model name for the live backend")
        p.add_argument("--endpoint-url", dest="endpoint_url", help="chat-completions endpoint URL")

    def add_run_flags(p):
        p.add_argument("--max-turns", dest="max_turns", type=int,
                       help=f"tool-turn budget (default {DEFAULT_MAX_TURNS})")
        p.add_argument("--run-dir", dest="run_dir", help="output directory for runs")
        p.add_argument("--run-id", dest="run_id",
                       help="run identifier (default: a new run-<timestamp>[-<n>])")
        p.add_argument("--config", help="JSON config file (flags and env override it)")

    p = sub.add_parser("investigate", help="run one investigation")
    p.add_argument("--repo", required=True, help="path to the local git repository")
    p.add_argument("--fix", required=True, help="bug-fixing commit ref")
    p.add_argument("--tag", help="dataset tag for the case id")
    add_backend_flags(p)
    add_run_flags(p)
    p.set_defaults(func=cmd_investigate)

    p = sub.add_parser("batch", help="run investigations over a dataset file")
    add_dataset_flags(p)
    p.add_argument("--parallelism", type=int, help="concurrent cases (default 1)")
    add_backend_flags(p)
    add_run_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("baseline", help="run a blame baseline over a dataset file")
    p.add_argument("--algorithm", required=True, choices=["b", "r", "l"])
    add_dataset_flags(p)
    p.add_argument("--out", required=True, help="results JSONL output path")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="compute metrics for result files")
    add_dataset_flags(p)
    p.add_argument("--results", required=True, nargs="+")
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--config", help="JSON config (price_table for dollar costs)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="re-run a recorded transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("--repo", help="override the repository path from the header")
    add_run_flags(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("tool", help="run one tool and print the observation")
    p.add_argument("tool", help="git_show | git_blame | git_log_s | git_log_func | git_grep")
    p.add_argument("--repo", required=True)
    p.add_argument("--args", required=True, help="JSON object of tool arguments")
    p.add_argument("--fix", default="HEAD", help="fix commit providing the search bound")
    p.add_argument("--raw", action="store_true",
                   help="print the observation with extraction and the character clamp off")
    p.add_argument("--config", help="JSON run config file; its compression settings apply")
    p.set_defaults(func=cmd_tool)

    p = sub.add_parser("fetch-datasets", help="clone the repositories a dataset refers to")
    p.add_argument("--dataset", required=True)
    p.add_argument("--dest", required=True)
    p.set_defaults(func=cmd_fetch_datasets)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
