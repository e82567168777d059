"""Pass-through span wrappers around bictrace's layers, and their analysis.

The wrappers are installed from outside: every reference to a target
function held by a bictrace module (a module global, or a value of a
module-level dict such as a dispatch table) is swapped for a wrapper that
takes `*args, **kwargs`, records a span and returns the result untouched.
A target that no longer exists is reported as absent and skipped.

Spans are kept in memory and written when the run ends. One span has a
name, start, end, parent span and the op (one CLI invocation on one case)
it belongs to, plus a few counters read from the call's result.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

TOOLS = ("git_show", "git_blame", "git_log_s", "git_log_func", "git_grep")
LAYERS = ("gitio", "tools", "compress", "caseprep", "agent", "resolve", "szz", "evaluate", "cli")


def _spawn_attrs(result, args, kwargs):
    # _spawn(root, args, timeout): args[1][0] is the git subcommand.
    return {"sub": args[1][0], "bytes": len(result.stdout), "status": result.status.value}


def _len_attrs(result, args, kwargs):
    return {"bytes": len(result)}


def _format_attrs(result, args, kwargs):
    return {"bytes": len(result[0])}


def _observation_attrs(result, args, kwargs):
    return {"bytes": len(result.text), "cache_hit": result.cache_hit, "truncated": result.truncated}


def _prompt_attrs(result, args, kwargs):
    return {"bytes": len(result.system_prompt)}


def _investigation_attrs(result, args, kwargs):
    return {"turns": result[1].total_turns}


def _send_attrs(result, args, kwargs):
    # send(self, conversation, tool_specs): the conversation handed to the model.
    return {"bytes": len(json.dumps(args[1]))}


def _candidates_attrs(result, args, kwargs):
    return {"candidates": len(result)}


# (span name, module, attribute path, annotate). gitio._spawn is private but
# it is the one place a git process starts, including the repository probe
# that bypasses run_git, so spawn counts are exact.
TARGETS = [
    ("gitio.spawn", "bictrace.gitio", "_spawn", _spawn_attrs),
    ("gitio.probe_commit", "bictrace.gitio", "probe_commit", None),
    *[(f"tools.{t}", "bictrace.tools", f"exec_{t}", _len_attrs) for t in TOOLS],
    ("compress.execute_compressed", "bictrace.compress", "execute_compressed", _observation_attrs),
    *[(f"compress.format.{t}", "bictrace.compress", f"format_{t[4:]}", _format_attrs) for t in TOOLS],
    ("compress.compress_formatted", "bictrace.compress", "compress_formatted", None),
    ("caseprep.load_fix_context", "bictrace.caseprep", "load_fix_context", None),
    ("caseprep.assemble_initial_context", "bictrace.caseprep", "assemble_initial_context", _prompt_attrs),
    ("agent.run_investigation", "bictrace.agent", "run_investigation", _investigation_attrs),
    ("agent.send", "bictrace.agent", "ScriptedBackend.send", _send_attrs),
    ("agent.parse_final_output", "bictrace.agent", "parse_final_output", None),
    ("agent.record_transcript", "bictrace.agent", "record_transcript", None),
    ("resolve.resolve_prediction", "bictrace.resolve", "resolve_prediction", None),
    ("szz.blame_candidates", "bictrace.szz", "blame_candidates", _candidates_attrs),
    ("szz.b_szz", "bictrace.szz", "b_szz", None),
    ("szz.r_szz", "bictrace.szz", "r_szz", None),
    ("szz.l_szz", "bictrace.szz", "l_szz", None),
    ("evaluate.classify_ghost", "bictrace.evaluate", "classify_ghost", None),
    ("evaluate.classify_cross_file", "bictrace.evaluate", "classify_cross_file", None),
    ("evaluate.load_dataset", "bictrace.evaluate", "load_dataset", None),
    ("evaluate.write_results", "bictrace.evaluate", "write_results", None),
    ("cli.main", "bictrace.cli", "main", None),
]

# Only the conversation size is needed outside the traced run.
SEND_ONLY = [t for t in TARGETS if t[0] == "agent.send"]


class Tracer:
    """Installs wrappers, collects spans, and restores every reference on uninstall."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self.annotate_errors = 0
        self._stack: list[dict] = []
        self._undo: list[tuple] = []
        self._t0 = time.perf_counter()

    def __enter__(self) -> "Tracer":
        self.absent = []
        for name, module, path, annotate in self.targets:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(name, original, annotate)
            if parents:  # a method: patch the class itself
                self._set(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc):
        for kind, holder, key, value in reversed(self._undo):
            if kind == "attr":
                setattr(holder, key, value)
            else:
                holder[key] = value
        self._undo.clear()

    def _set(self, holder, key, value):
        self._undo.append(("attr", holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if not (modname == "bictrace" or modname.startswith("bictrace.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif type(value) is dict:
                    for dkey, dvalue in value.items():
                        if dvalue is original:
                            self._undo.append(("item", value, dkey, dvalue))
                            value[dkey] = wrapper

    def _wrap(self, name, fn, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans) + 1, "parent": stack[-1]["id"] if stack else None,
                    "op": self.op, "name": name}
            spans.append(span)
            stack.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = clock()
                stack.pop()
                span["error"] = getattr(exc, "kind", type(exc).__name__)
                raise
            span["end"] = clock()
            stack.pop()
            if annotate is not None:
                try:
                    span.update(annotate(result, args, kwargs))
                except Exception:  # noqa: BLE001 - a changed result shape must not break the CLI
                    self.annotate_errors += 1
            return result

        return wrapper

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                row = dict(span, start=span["start"] - self._t0, end=span["end"] - self._t0)
                f.write(json.dumps(row, sort_keys=True) + "\n")


def _dur(span) -> float:
    return span["end"] - span["start"]


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(spans: list[dict], n_ops: int) -> dict:
    """Per-layer metrics from the spans of n_ops traced ops.

    `_p50` and `compress.format_s.<tool>` metrics are medians per call;
    `gitio.timeouts` and `gitio.nonzero_exits` are totals; every other
    metric is a total divided by n_ops, so counts repeat exactly when the
    ops do.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def ancestors(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            yield span["name"]

    def per_case(total):
        return total / n_ops if n_ops else 0.0

    def spawns_under(prefix):
        return per_case(sum(1 for s in spawns if any(a.startswith(prefix) for a in ancestors(s))))

    def self_time(span):
        return _dur(span) - sum(_dur(c) for c in children.get(span["id"], []))

    m: dict[str, float] = {}
    spawns = named("gitio.spawn")
    m["gitio.spawns_per_case"] = per_case(len(spawns))
    m["gitio.spawn_s_p50"] = _p50([_dur(s) for s in spawns])
    m["gitio.stdout_bytes_per_case"] = per_case(sum(s.get("bytes", 0) for s in spawns))
    m["gitio.timeouts"] = sum(1 for s in spawns if s.get("status") == "timed_out")
    m["gitio.nonzero_exits"] = sum(1 for s in spawns if s.get("status") == "nonzero_exit")

    tool_errors = 0
    for tool in TOOLS:
        calls = named(f"tools.{tool}")
        tool_errors += sum(1 for s in calls if "error" in s)
        m[f"tools.{tool}.git_s_p50"] = _p50([_dur(s) for s in calls])
        m[f"tools.{tool}.raw_bytes_p50"] = _p50([s["bytes"] for s in calls if "bytes" in s])
    m["tools.errors_per_case"] = per_case(tool_errors)

    pipeline = named("compress.execute_compressed")
    hits = {s["id"] for s in pipeline if s.get("cache_hit")}
    formats = [s for s in spans if s["name"].startswith("compress.format.")]
    for tool in TOOLS:
        m[f"compress.format_s.{tool}"] = _p50([_dur(s) for s in named(f"compress.format.{tool}")])
    m["compress.cache_hit_format_s"] = per_case(sum(_dur(s) for s in formats if s["parent"] in hits))
    m["compress.extract_s"] = per_case(sum(_dur(s) for s in named("compress.compress_formatted")))
    m["compress.cache_hit_ratio"] = len(hits) / len(pipeline) if pipeline else 0.0
    m["compress.tool_calls_per_case"] = per_case(len(pipeline))
    m["compress.formatted_bytes_per_case"] = per_case(sum(s.get("bytes", 0) for s in formats))
    m["compress.observed_bytes_per_case"] = per_case(sum(s.get("bytes", 0) for s in pipeline))
    m["compress.truncated_ratio"] = (
        sum(1 for s in pipeline if s.get("truncated")) / len(pipeline) if pipeline else 0.0
    )

    m["caseprep.load_s"] = per_case(sum(_dur(s) for s in named("caseprep.load_fix_context")))
    m["caseprep.spawns"] = spawns_under("caseprep.")
    m["caseprep.prompt_bytes"] = per_case(
        sum(s.get("bytes", 0) for s in named("caseprep.assemble_initial_context"))
    )

    # The loop's own time keeps the git spawns it makes directly (the fix
    # re-resolution) but not the tool pipeline or the answer resolution.
    loops = named("agent.run_investigation")
    m["agent.loop_self_s"] = per_case(sum(
        _dur(s) - sum(_dur(c) for c in children.get(s["id"], []) if c["name"] != "gitio.spawn")
        for s in loops
    ))
    m["agent.turns_per_case"] = per_case(sum(s.get("turns", 0) for s in loops))
    m["agent.model_input_bytes_per_case"] = per_case(sum(s.get("bytes", 0) for s in named("agent.send")))

    m["resolve.s"] = per_case(sum(_dur(s) for s in named("resolve.resolve_prediction")))
    m["resolve.probes_per_case"] = per_case(sum(
        1 for s in named("gitio.probe_commit")
        if "resolve.resolve_prediction" in ancestors(s)
    ))

    classify = [s for s in spans if s["name"].startswith("evaluate.classify_")]
    m["evaluate.classify_s"] = per_case(sum(_dur(s) for s in classify))
    m["evaluate.classify_spawns"] = spawns_under("evaluate.classify_")

    blames = named("szz.blame_candidates")
    m["szz.blame_candidates_s"] = per_case(sum(_dur(s) for s in blames))
    m["szz.blame_candidates_calls_per_case"] = per_case(len(blames))
    m["szz.candidates_per_case"] = per_case(sum(s.get("candidates", 0) for s in blames))
    m["szz.spawns_per_case"] = spawns_under("szz.")

    writes = named("agent.record_transcript") + named("evaluate.write_results")
    m["cli.write_s"] = per_case(sum(_dur(s) for s in writes))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_time(s)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = per_case(layer_self[layer])
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_s", ".s", "_s_p50")) or name.startswith(("compress.format_s.", "self_s.")):
        return "s"
    return "count"


def root_durations(spans: list[dict]) -> dict[int, float]:
    """Duration of each op's root span (the CLI entry point), by op."""
    return {s["op"]: _dur(s) for s in spans if s["parent"] is None}
