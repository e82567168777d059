"""Offline benchmark of bictrace: per-case latency, throughput and per-layer cost.

    python3 perfbench/run.py --workload agent_small --seed 1 --seconds 25 --trace 0

Generates deterministic synthetic git repositories from --seed, then
drives bictrace through its CLI entry point in-process, in a closed loop:
one client, one op (one CLI invocation on one case) after another. The
backend is always scripted and no network is used.

--trace 0 measures the end-to-end metrics for --seconds. --trace 1
alternates untraced and traced rounds over a fixed set of ops for
--seconds and reports the per-layer metrics (see tracing.py). Either way
every op's output is checked outside the timed region. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import synth  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(HERE)
# Set-up repeats at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so a cheap set-up still gets a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
ALGORITHMS = ("b", "r", "l")
E2E_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "case_p50_s": "s", "cpu_s_per_case": "s",
             "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    kind: str  # "agent" (scripted investigations) or "szz" (blame baselines)
    sizes: dict  # keyword arguments of the synth generator
    trace_cases: int  # cases in the fixed op set of a traced run


WORKLOADS = {
    "agent_small": Workload(
        "agent",
        dict(files=20, functions=6, body=10, commits=200, cases=16, touch=2, full_blame=False),
        trace_cases=16,
    ),
    "agent_large_file": Workload(
        "agent",
        dict(files=3, functions=800, body=19, commits=40, cases=6, touch=40, full_blame=True),
        trace_cases=6,
    ),
    "szz_baselines": Workload(
        "szz", dict(files=10, functions=120, body=19, batches=4, touch=5), trace_cases=12
    ),
}


@dataclass
class Op:
    index: int
    case: int
    algo: str | None  # None for an agent op
    wall: float
    rc: object
    output: str


def invoke(argv: list[str]) -> tuple[object, str, float]:
    """bictrace.cli.main in-process: (exit code, captured output, wall seconds)."""
    from bictrace import cli

    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
        rc = f"{type(exc).__name__}: {exc}"
    return rc, captured.getvalue(), time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten ops beyond it, and that percentile.

    With ten ops or fewer no such percentile exists and the maximum is used.
    """
    ordered = sorted(values)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def prf(intersection: int, predicted: int, truth: int) -> tuple[float, float, float]:
    """Micro precision, recall and F1 from summed counts."""
    return intersection / predicted, intersection / truth, 2 * intersection / (predicted + truth)


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def write_dataset(path: str, repo: str, truth: list[tuple[str, list[str], str]]):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"schema": "bictrace-dataset/v1", "name": "perfbench"}) + "\n")
        for fix, bics, case_id in truth:
            f.write(json.dumps({"repo": repo, "fix_commit": fix, "bics": bics,
                                "dataset_tag": "bench", "case_id": case_id}) + "\n")


class Run:
    """One benchmark run of one workload: inputs, ops and every correctness check."""

    def __init__(self, wl: Workload, seed: int, work: str):
        self.wl, self.seed, self.work = wl, seed, work
        self.attempted = 0
        self.problems: list[str] = []
        self.failed: set[str] = set()
        self.op_count = 0
        self.transcripts: dict[int, tuple[str, bytes]] = {}  # case -> first (path, bytes)
        self.bad_transcripts: set[int] = set()  # cases whose first transcript failed a check
        self.results: dict[tuple[int, str | None], dict] = {}  # last result record per op kind

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> list[float]:
        """Generate repo, datasets and scripts repeatedly; seconds of each set-up.

        Every repetition must produce the same commit ids as the first.
        """
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            rep = len(times)
            dest = os.path.join(self.work, f"setup{rep}")
            os.makedirs(dest)
            start = time.perf_counter()
            gen = self._generate(dest)
            times.append(time.perf_counter() - start)
            if rep == 0:
                self.gen, self.inputs = gen, dest
            else:
                self._check("setup", self._truth(gen) == self._truth(self.gen),
                            f"set-up {rep} produced different commits")
                shutil.rmtree(dest)
        for sub in ("runs", "out"):
            os.makedirs(os.path.join(self.work, sub))
        return times

    def _truth(self, gen: synth.Generated) -> list[tuple[str, list[str], str]]:
        if self.wl.kind == "agent":
            return [(c.fix, [c.bic], c.case_id) for c in gen.agent_cases]
        return [(c.fix, c.bics, c.case_id) for c in gen.szz_cases]

    def _generate(self, dest: str) -> synth.Generated:
        repo = os.path.join(dest, "repo")
        if self.wl.kind == "agent":
            gen = synth.agent_repo(repo, self.seed, **self.wl.sizes)
            for i, case in enumerate(gen.agent_cases):
                with open(os.path.join(dest, f"script{i}.json"), "w", encoding="utf-8") as f:
                    json.dump({"steps": case.steps}, f, sort_keys=True)
        else:
            gen = synth.szz_repo(repo, self.seed, **self.wl.sizes)
        for i, record in enumerate(self._truth(gen)):
            write_dataset(os.path.join(dest, f"dataset{i}.jsonl"), repo, [record])
        return gen

    # -- ops --------------------------------------------------------------------

    def plan(self) -> list[tuple[int, str | None]]:
        """(case, algorithm) of every op in one cycle; algorithms interleave per case."""
        if self.wl.kind == "agent":
            return [(c, None) for c in range(len(self.gen.agent_cases))]
        return [(c, a) for c in range(len(self.gen.szz_cases)) for a in ALGORITHMS]

    def run_op(self, case: int, algo: str | None) -> Op:
        index = self.op_count
        self.op_count += 1
        dataset = os.path.join(self.inputs, f"dataset{case}.jsonl")
        if algo is None:
            # batch on a one-case dataset: unlike investigate it carries the
            # ground truth, so the hard-case classification runs as well.
            argv = ["batch", "--dataset", dataset,
                    "--backend", "scripted:" + os.path.join(self.inputs, f"script{case}.json"),
                    "--run-dir", os.path.join(self.work, "runs"), "--run-id", f"op{index:05d}"]
        else:
            argv = ["baseline", "--algorithm", algo, "--dataset", dataset,
                    "--out", os.path.join(self.work, "out", f"op{index:05d}.jsonl")]
        rc, output, wall = invoke(argv)
        return Op(index, case, algo, wall, rc, output)

    def check(self, op: Op):
        """Every correctness check on one op's outputs; runs outside the timed region."""
        self.attempted += 1
        label = f"op{op.index:05d}"
        if op.rc != 0:
            self._fail(label, f"exit {op.rc}: {op.output.strip()[-300:]}")
            return
        try:
            if op.algo is None:
                self._check_agent(label, op)
            else:
                self._check_baseline(label, op)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self._fail(label, f"unreadable output: {exc!r}")

    def _check_agent(self, label: str, op: Op):
        spec = self.gen.agent_cases[op.case]
        base = os.path.join(self.work, "runs", f"op{op.index:05d}")
        records = read_jsonl(os.path.join(base, "results.jsonl"))[1:]
        case_files = glob.glob(os.path.join(base, "cases", "*.json"))
        transcripts = glob.glob(os.path.join(base, "transcripts", "*.jsonl"))
        if len(records) != 1 or len(case_files) != 1 or len(transcripts) != 1:
            self._fail(label, "expected one result, one case file and one transcript")
            return
        record = self.results[(op.case, None)] = records[0]
        with open(case_files[0], encoding="utf-8") as f:
            resolved = json.load(f)["prediction"]["resolved_id"]
        if record["error"] or record["predicted"] != [spec.bic] or resolved != spec.bic:
            self._fail(label, f"predicted {record['predicted']} ({record['error']}), planted {spec.bic}")
        with open(transcripts[0], "rb") as f:
            data = f.read()
        if op.case not in self.transcripts:
            self.transcripts[op.case] = (transcripts[0], data)
            if not self._check_transcript(label, base, data, spec):
                self.bad_transcripts.add(op.case)
        elif data != self.transcripts[op.case][1]:
            self._fail(label, "transcript differs from the first repetition of its case")
        elif op.case in self.bad_transcripts:
            self._fail(label, "transcript repeats a failed first repetition")

    def _check_transcript(self, label: str, base: str, data: bytes, spec: synth.AgentCase) -> bool:
        """Observation count, size bound and cache hits of a case's first transcript."""
        from bictrace.compress import MAX_OBS_OVERHEAD

        failures = len(self.problems)

        with open(os.path.join(base, "config.json"), encoding="utf-8") as f:
            bound = json.load(f)["compression"]["tau"] + MAX_OBS_OVERHEAD
        records = [json.loads(line) for line in data.decode().splitlines()]
        observations = [r for r in records if r.get("event") == "observation"]
        if len(observations) != len(spec.steps) - 1:
            self._fail(label, f"{len(observations)} observations for {len(spec.steps) - 1} tool calls")
            return False
        for n, obs in enumerate(observations):
            if len(obs["text"]) > bound:
                self._fail(label, f"observation {n} has {len(obs['text'])} characters, bound {bound}")
            if obs["text"].startswith("Error") or obs["cache_hit"] != (n == spec.cache_hit_step):
                self._fail(label, f"observation {n}: cache_hit={obs['cache_hit']} {obs['text'][:80]!r}")
        return len(self.problems) == failures

    def _check_baseline(self, label: str, op: Op):
        spec = self.gen.szz_cases[op.case]
        records = read_jsonl(os.path.join(self.work, "out", f"op{op.index:05d}.jsonl"))[1:]
        record = self.results[(op.case, op.algo)] = records[0] if len(records) == 1 else {}
        expected = {"b": sorted(spec.bics), "r": [spec.latest], "l": [spec.largest]}[op.algo]
        if record.get("error") or record.get("predicted") != expected:
            self._fail(label, f"{op.algo}-szz gave {record.get('predicted')} "
                              f"({record.get('error')}), planted {expected}")

    def _fail(self, label: str, message: str):
        self.failed.add(label)
        self.problems.append(f"{label}: {message}")

    def _check(self, label: str, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self._fail(label, message)

    # -- checks that run once per run ----------------------------------------

    def replay(self):
        """Replay the first case's transcript; it must not desync and must resolve again."""
        if 0 not in self.transcripts:
            self._check("replay", False, "no transcript of the first case to replay")
            return
        spec = self.gen.agent_cases[0]
        rc, output, _ = invoke(["replay", "--transcript", self.transcripts[0][0],
                                "--run-dir", os.path.join(self.work, "runs"), "--run-id", "replay"])
        found = glob.glob(os.path.join(self.work, "runs", "replay", "cases", "*.json"))
        ok = rc == 0 and len(found) == 1
        if ok:
            with open(found[0], encoding="utf-8") as f:
                ok = json.load(f)["prediction"]["resolved_id"] == spec.bic
        self._check("replay", ok, f"replay (exit {rc}) did not reproduce: {output.strip()[-300:]}")

    def evaluate(self):
        """`bictrace evaluate` over the last result of each case must give exact P/R/F1."""
        methods = ALGORITHMS if self.wl.kind == "szz" else (None,)
        cases = sorted({c for c, _ in self.results
                        if all((c, m) in self.results for m in methods)})
        truth = [self._truth(self.gen)[c] for c in cases]
        n = len(cases)
        if n == 0:
            self._check("evaluate", False, "no case has a result of every method to evaluate")
            return
        dest = os.path.join(self.work, "evaluate")
        os.makedirs(dest)
        dataset = os.path.join(dest, "dataset.jsonl")
        write_dataset(dataset, self.gen.repo, truth)
        paths, expected = [], {}
        for method in methods:
            name = f"{method}-szz" if method else "agent"
            paths.append(os.path.join(dest, f"{name}.jsonl"))
            with open(paths[-1], "w", encoding="utf-8") as f:
                f.write(json.dumps({"schema": "bictrace-results/v1", "method": name}) + "\n")
                for c in cases:
                    f.write(json.dumps(self.results[(c, method)]) + "\n")
            # Each SZZ case has four planted BICs; B-SZZ names all, R and L one.
            hits = 4 * n if method == "b" else n
            expected[name] = prf(hits, hits, 4 * n if method else n)
        rc, output, _ = invoke(["evaluate", "--dataset", dataset, "--results", *paths,
                                "--out", os.path.join(dest, "reports")])
        got = {}
        for path in glob.glob(os.path.join(dest, "reports", "*.report.json")):
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
            got[report["name"]] = (report["precision"], report["recall"], report["f1"])
        self._check("evaluate", rc == 0 and got == expected,
                    f"evaluate (exit {rc}) over {n} cases gave {got}, expected {expected}")


def warm_up(run: Run) -> float | None:
    """Untimed first round; returns the model input bytes per agent case.

    Agent workloads run every case once with only the conversation-size
    wrapper installed, and these transcripts are the references that later
    repetitions must match byte for byte. The SZZ workload runs one op per
    algorithm.
    """
    plan = run.plan()[: None if run.wl.kind == "agent" else len(ALGORITHMS)]
    with tracing.Tracer(tracing.SEND_ONLY) as tracer:
        ops = [run.run_op(case, algo) for case, algo in plan]
    for op in ops:
        run.check(op)
    if run.wl.kind != "agent":
        return None
    return sum(s.get("bytes", 0) for s in tracer.spans) / len(plan)


def measure(run: Run, seconds: float) -> dict:
    """Closed loop over the plan for `seconds`; the end-to-end metrics."""
    plan = run.plan()
    ops = []
    cpu0, start = os.times(), time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < len(ALGORITHMS):
        ops.append(run.run_op(*plan[len(ops) % len(plan)]))
    elapsed = time.perf_counter() - start
    cpu1 = os.times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op in ops:
        run.check(op)
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])  # user + system, own and children
    walls = [op.wall for op in ops]
    tail_s, tail_pct = tail(walls)
    return {
        "cases_per_s": len(ops) / elapsed,
        "case_p50_s": statistics.median(walls),
        "cpu_s_per_case": cpu / len(ops),
        "peak_rss_mb": peak_rss_mb,
        "_tail": (tail_s, tail_pct),
        "_ops": [[op.case, op.algo, op.wall] for op in ops],
        "_notes": {"cases_per_s": f"{len(ops)} ops in {elapsed:.2f} s"},
    }


def traced(run: Run, seconds: float, spans_path: str) -> tuple[dict, list[str]]:
    """Alternate untraced and traced rounds of a fixed op set; the per-layer metrics."""
    plan = [op for op in run.plan() if op[0] < run.wl.trace_cases]
    untraced, traced_ops = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while not traced_ops or time.perf_counter() - start < seconds:
        untraced += [run.run_op(case, algo) for case, algo in plan]
        with tracer:
            for case, algo in plan:
                tracer.op = run.op_count
                traced_ops.append(run.run_op(case, algo))
    for op in untraced + traced_ops:
        run.check(op)
    tracer.write(spans_path)
    metrics = tracing.summarize(tracer.spans, len(traced_ops))
    roots = tracing.root_durations(tracer.spans)
    metrics["trace.overhead_s"] = (statistics.median(op.wall for op in traced_ops)
                                   - statistics.median(op.wall for op in untraced))
    metrics["trace.unattributed_s"] = statistics.mean(
        op.wall - roots.get(op.index, 0.0) for op in traced_ops)
    calls = round(metrics["compress.tool_calls_per_case"] * len(traced_ops))
    notes = [f"{len(traced_ops)} traced ops; cache hit ratio over {calls} tool calls",
             f"absent wrappers: {', '.join(tracer.absent) or 'none'}; "
             f"annotation errors: {tracer.annotate_errors}"]
    return metrics, notes


def environment(run: Run, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": synth.git("--version").strip(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repo_digest": run.gen.tip,
    }


def load_bictrace() -> bool:
    """Import bictrace from this checkout's sources, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bictrace", "cli.py")):
        return False
    sys.path.insert(0, src)
    import bictrace

    return os.path.abspath(bictrace.__file__).startswith(src + os.sep)


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_bictrace():
        print(f"error: no bictrace sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    work = os.path.join(ROOT, ".perfbench", f"work-{stem}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    run = Run(workloads[args.workload], args.seed, work)
    try:
        setups = run.setup()
        env = environment(run, args)
        lines = ["perfbench: " + ", ".join(f"{k}={v}" for k, v in env.items())]
        model_bytes = warm_up(run)
        op_walls = []  # (case, algorithm, seconds) of every timed op
        extra = {}  # printed and recorded, but not in BENCHMARK.json
        if args.trace:
            values, notes = traced(run, args.seconds, os.path.join(results_dir, stem + "-spans.jsonl"))
            metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
            lines += [f"{k:<40} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
            lines += notes
        else:
            values = {"setup_s": statistics.median(setups), **measure(run, args.seconds)}
            notes, op_walls = values.pop("_notes"), values.pop("_ops")
            tail_s, tail_pct = values.pop("_tail")
            extra = {"case_tail_s": tail_s, "case_tail_percentile": tail_pct,
                     "model_input_bytes_per_case": model_bytes}
            notes["setup_s"] = f"median of {len(setups)} set-ups"
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            lines += [f"{k:<28} {v['value']:>14.6f} {v['unit']:<5} {notes.get(k, '')}"
                      for k, v in metrics.items()]
            # Printed, not gated: on a homogeneous workload the tail measures host stalls.
            lines.append(f"{'case_tail_s':<28} {tail_s:>14.6f} {'s':<5} "
                         f"p{tail_pct:.1f} of {len(op_walls)} ops")
            lines.append(f"{'model_input_bytes_per_case':<28} " + (
                f"{model_bytes:>14.1f} bytes" if model_bytes is not None
                else f"{'n/a':>14} (no model in this workload)"))
        if run.wl.kind == "agent":
            run.replay()
        run.evaluate()
        failed = len(run.failed)
        lines.append(f"{'error_rate':<28} {failed / run.attempted:>14.6f} "
                     f"({failed} of {run.attempted} ops and checks failed)")
        lines += [f"FAIL {p}" for p in run.problems[:20]]
        result = {"correct": not run.problems, "attempted": run.attempted, "failed": failed,
                  "metrics": metrics}
        extra["error_rate"] = failed / run.attempted
        with open(os.path.join(results_dir, stem + ".json"), "w", encoding="utf-8") as f:
            json.dump({"env": env, "problems": run.problems, "op_walls": op_walls, "extra": extra,
                       **result}, f, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
