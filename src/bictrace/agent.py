"""The investigation loop and its model backends.

One case runs as an observe-reason-act loop that takes its observations
strictly in order. Two backends share one contract, so the same loop runs
live against a chat-completions endpoint or deterministically from a
scripted step list: `send` returns the steps of one model message, a run
of tool calls (executed through the compression pipeline) or one final
or malformed step. The loop starts the git work of a message's calls at
once, up to the CPU count at a time, and the case's call cache holds each
started call's future until the loop takes it. Those threads run git
alone: formatting and extraction run on the loop's thread as it takes
each observation, so its transcript, cache hits and git process count
stay those of calls taken one at a time. A `git_show` of the fix by its
full id is rendered from the fix read and starts no git. A replay is a
scripted run of a recorded transcript's steps, and it reproduces the
recording when every line of its own transcript after the header is the
recording's line.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import islice, zip_longest

from . import resolve
from .caseprep import HEX_TOKEN_RE, CaseSpec, FixContext, assemble_initial_context, read_json_lines
from .compress import TAU, Observation, canonicalize_args, execute_compressed
from .gitio import GitTimeout, RepoHandle
from .resolve import ResolutionTrace
from .tools import SchemaError, ToolArgs, ToolName, enforce_search_bound, execute_raw, parse_args

TRANSCRIPT_SCHEMA = "bictrace-transcript/v3"

DEFAULT_MAX_TURNS = 15
MALFORMED_RETRIES = 2  # corrective prompts in a row before the case gives up
ENDPOINT_TIMEOUT = 120.0  # seconds per model request

CORRECTIVE_MESSAGE = (
    "Your last message was not a valid single tool call or final answer. "
    "Call exactly one tool with schema-conforming arguments, or give your "
    "final answer in the required BIC/Confidence/Reasoning block."
)

FORCED_ANSWER_MESSAGE = (
    "You have reached the investigation turn limit. Do not call any more "
    "tools. Give your final answer now in the required block:\n"
    "```\nBIC: <commit hash>\nConfidence: <high|medium|low>\n"
    "Reasoning: <brief justification>\n```"
)


class BackendUnavailable(Exception):
    """The model backend cannot serve requests (network, auth, config)."""


class SchemaMismatch(Exception):
    """A recorded transcript does not match the expected file schema."""


class DesyncError(Exception):
    """A replay's transcript differs from its recording (repository state changed?)."""


@dataclass
class ModelStep:
    kind: str  # "tool_call" | "final" | "malformed"
    tool: ToolName | None = None
    args: dict = field(default_factory=dict)
    text: str = ""
    raw: str = ""
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "tool": self.tool.value if self.tool else None,
            "args": self.args,
            "text": self.text,
            "raw": self.raw,
            "usage": {
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelStep":
        usage = data.get("usage", {}) if isinstance(data, dict) else None
        if not (isinstance(usage, dict) and isinstance(data.get("kind"), str)
                and all(type(n) is int for n in usage.values())
                and all(isinstance(data.get(k, ""), str) for k in ("text", "raw"))):
            raise ValueError("a step is an object with a string 'kind', string 'text' and "
                             "'raw', and a 'usage' object of integers")
        if data["kind"] == "tool_call" and not data.get("tool"):
            raise ValueError("a 'tool_call' step needs a 'tool'")
        return cls(
            kind=data["kind"],
            tool=ToolName(data["tool"]) if data.get("tool") else None,
            args=data.get("args", {}),
            text=data.get("text", ""),
            raw=data.get("raw", ""),
            prompt_tokens=usage.get("prompt_tokens", 0),
            completion_tokens=usage.get("completion_tokens", 0),
        )


def tool_step(tool: ToolName, **args) -> ModelStep:
    """Convenience constructor for scripted tool-call steps."""
    return ModelStep(kind="tool_call", tool=tool, args=args)


def final_step(text: str) -> ModelStep:
    return ModelStep(kind="final", text=text)


@dataclass
class Prediction:
    raw_hash_text: str
    confidence: str  # high | medium | low | unstated
    reasoning: str
    status: str  # resolved | discarded | no_prediction
    resolved_id: str | None = None
    trace: ResolutionTrace | None = None


@dataclass
class Transcript:
    case_id: str
    repo_path: str
    fix_commit: str
    turns: list = field(default_factory=list)  # {"step": ModelStep, "observation": Observation|None}
    tool_turns: int = 0
    total_turns: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    error: str | None = None

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def add(self, step: ModelStep, observation: Observation | None):
        self.turns.append({"step": step, "observation": observation})
        self.total_turns += 1
        self.prompt_tokens += step.prompt_tokens
        self.completion_tokens += step.completion_tokens
        # Only turns that produced an observation executed a tool; a stray
        # tool call on the forced-answer turn is recorded but never run.
        if step.kind == "tool_call" and observation is not None:
            self.tool_turns += 1


class ScriptedBackend:
    """Deterministic step list; the workhorse for tests and fixtures."""

    def __init__(self, steps: list[ModelStep]):
        self.steps = list(steps)
        self.index = 0

    def send(self, conversation: list[dict], tool_specs: list[dict]) -> Iterator[ModelStep]:
        """The next run of consecutive tool calls, or one other step; past the end, an empty answer.

        `index` moves past a step as the loop reads it, so the rest of a run
        that the turn budget cuts comes first in the next message.
        """
        steps = self.steps[self.index:]
        if not steps:
            yield final_step("")
        for n, step in enumerate(steps):
            if n and step.kind != "tool_call":
                return
            self.index += 1
            yield step
            if step.kind != "tool_call":
                return


class LiveBackend:
    """Chat-completions endpoint with function calling."""

    def __init__(self, endpoint_url: str, model: str, api_key: str):
        self.endpoint_url = endpoint_url
        self.model = model
        self.api_key = api_key
        missing = [
            name
            for name, value in (
                ("endpoint URL", self.endpoint_url),
                ("model name", self.model),
                ("API key", self.api_key),
            )
            if not value
        ]
        if missing:
            raise BackendUnavailable(f"live backend not configured: missing {', '.join(missing)}")

    def send(self, conversation: list[dict], tool_specs: list[dict]) -> list[ModelStep]:
        # Imported here, not at module level: this is the only HTTP call, and
        # requests with what it loads (urllib3, http.client, email) would add
        # about 12 MB and 0.1 s to every offline command on Python 3.11.
        import requests

        body: dict = {"model": self.model, "messages": conversation}
        if tool_specs:
            body["tools"] = tool_specs
        try:
            response = requests.post(
                self.endpoint_url,
                json=body,
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=ENDPOINT_TIMEOUT,
            )
            response.raise_for_status()
            data = response.json()
        except (requests.RequestException, ValueError) as exc:
            error, reply = str(exc), getattr(exc, "response", None)
            if reply is not None:  # the endpoint's own explanation, on the error's one line
                body = " ".join(reply.text.split())
                if body:
                    error += f"; endpoint said: {body[:200]}" + ("..." if len(body) > 200 else "")
                if "Retry-After" in reply.headers:
                    error += f"; Retry-After: {reply.headers['Retry-After']}"
            raise BackendUnavailable(f"model endpoint failure: {error}") from exc

        try:
            message = data["choices"][0]["message"]
            usage = data.get("usage") or {}
            # A missing or null count is 0.
            tokens = {k: int(usage.get(k) or 0) for k in ("prompt_tokens", "completion_tokens")}
            content = message.get("content") or ""  # the calls' reasoning, or the answer
            calls = []
            for call in message.get("tool_calls") or []:
                function = call.get("function", {})
                try:
                    tool = ToolName(function.get("name"))
                    args = json.loads(function.get("arguments") or "{}")
                    if not isinstance(args, dict):
                        raise ValueError("arguments must be an object")
                except ValueError:  # the model's mistake: a malformed step it can correct
                    return [ModelStep(kind="malformed", raw=json.dumps(call), **tokens)]
                calls.append(ModelStep(kind="tool_call", tool=tool, args=args))
            if calls:  # the message's text and usage go on its first call
                calls[0] = replace(calls[0], text=content, **tokens)
                return calls
            if not content.strip():
                return [ModelStep(kind="malformed", raw="(empty message)", **tokens)]
            return [ModelStep(kind="final", text=content, **tokens)]
        except (LookupError, TypeError, AttributeError, ValueError) as exc:
            raise BackendUnavailable(f"malformed endpoint response: {exc!r}") from exc


_BIC_FIELD_RE = re.compile(r"^[\s>*`#]*BIC\b[\s*`]*[:=][\s*`]*(.+)$", re.IGNORECASE | re.MULTILINE)
_CONFIDENCE_RE = re.compile(r"\bconfidence\b[\s*`]*[:=][\s*`]*([A-Za-z]+)", re.IGNORECASE)
_REASONING_RE = re.compile(r"\breasoning\b[\s*`]*[:=][\s*`]*(.*)", re.IGNORECASE | re.DOTALL)


def parse_final_output(final_text: str) -> tuple[str, str, str]:
    """Extract (raw hash text, confidence, reasoning) from a final answer.

    Tolerates prose around the mandated block. A labeled BIC field wins
    over any other hash-like token in the text.
    """
    text = final_text or ""
    m = _BIC_FIELD_RE.search(text)
    if m:
        raw_hash_text = m.group(1).strip().strip("`")
    else:
        any_hex = HEX_TOKEN_RE.search(text)
        raw_hash_text = any_hex.group(0) if any_hex else ""
    cm = _CONFIDENCE_RE.search(text)
    confidence = cm.group(1).lower() if cm else "unstated"
    if confidence not in ("high", "medium", "low"):
        confidence = "unstated"
    rm = _REASONING_RE.search(text)
    reasoning = rm.group(1).strip().rstrip("`").strip() if rm else text.strip()
    return raw_hash_text, confidence, reasoning


def _finalize(repo: RepoHandle, fix_date: int, final_text: str) -> Prediction:
    raw_hash_text, confidence, reasoning = parse_final_output(final_text)
    sanitized = resolve.sanitize_hash(raw_hash_text)
    if not sanitized:
        return Prediction(raw_hash_text, confidence, reasoning, "no_prediction")
    status, full_id, trace = resolve.resolve_prediction(repo, sanitized, fix_date, raw_hash_text)
    return Prediction(raw_hash_text, confidence, reasoning, status, full_id, trace)


def _bind(step: ModelStep, fix_date: int) -> tuple[ModelStep, ToolArgs | SchemaError]:
    """A tool-call step with its arguments parsed and bound, or the schema error they raise.

    The step comes back with the bound-enforced arguments, which the
    transcript records: nothing later than the fix date ever reaches git or disk.
    """
    try:
        args = enforce_search_bound(parse_args(step.tool, step.args), fix_date)
    except SchemaError as exc:
        return step, exc
    return replace(step, args={k: v for k, v in asdict(args).items() if v is not None}), args


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def run_investigation(
    case: CaseSpec,
    repo: RepoHandle,
    fc: FixContext,
    backend,
    max_turns: int = DEFAULT_MAX_TURNS,
    tau: int = TAU,
) -> tuple[Prediction, Transcript]:
    """Run the full loop for one case and return its prediction + transcript.

    `repo` and `fc` are the case's handle and fix context as the caller
    loaded them; the prompt and the fix id, parent and date come from `fc`.

    Tool-executing turns are hard-capped at max_turns; corrective and
    forced-answer round-trips are counted separately in total_turns. When
    the budget runs out, one last request without tools asks for the answer.
    A backend failure, or a timeout while resolving the answer, ends the
    case with `transcript.error` set.

    The loop reads at most the tool turns left from each message; calls
    past the budget are not run, recorded or sent back. The git work of
    each call the case's cache holds no entry for starts as the message
    arrives, up to the CPU count at a time, and the cache then holds the
    call's future. Those threads run only `tools.execute_raw`; layers 2
    and 3 run here, as the loop takes each observation in turn, so the
    transcript, cache hits and `repo.process_count` are those of calls
    taken one at a time. A `git_show` of the fix by its full id is `fc`'s
    rendering, with no git process. A case that ends by an exception stops
    `repo`: its running git processes are killed.
    """
    ctx = assemble_initial_context(fc)
    cache: dict[ToolArgs, tuple[str, bool] | Future] = {}
    transcript = Transcript(case_id=case.case_id, repo_path=case.repo_path, fix_commit=fc.fix_id)
    conversation: list[dict] = [
        {"role": "system", "content": ctx.system_prompt},
        {"role": "user", "content": "Begin the investigation."},
    ]
    prediction: Prediction | None = None
    consecutive_malformed = 0

    pool = ThreadPoolExecutor(max_workers=_cpu_count())
    try:
        while transcript.tool_turns < max_turns:
            steps = list(islice(backend.send(conversation, ctx.tool_specs),
                                max_turns - transcript.tool_turns))
            step = steps[0]
            if step.kind == "tool_call":
                consecutive_malformed = 0
                calls = [(f"call_{transcript.total_turns + n}", *_bind(call, fc.fix_date))
                         for n, call in enumerate(steps, start=1)]
                for _, _, args in calls:
                    if not isinstance(args, SchemaError) and (key := canonicalize_args(args)) not in cache:
                        cache[key] = pool.submit(execute_raw, repo, args, fc)
                conversation.append({"role": "assistant", "content": step.text or None, "tool_calls": [
                    {"id": call_id, "type": "function", "function": {
                        "name": call.tool.value, "arguments": json.dumps(call.args, sort_keys=True)}}
                    for call_id, call, _ in calls]})
                for call_id, step, args in calls:
                    if isinstance(args, SchemaError):
                        observation = Observation(f"Error (schema): {args}", truncated=False,
                                                  cache_hit=False)
                    else:
                        observation = execute_compressed(repo, args, fc, cache, tau)
                    conversation.append(
                        {"role": "tool", "tool_call_id": call_id, "content": observation.text})
                    transcript.add(step, observation)
            elif step.kind == "final":
                conversation.append({"role": "assistant", "content": step.text})
                transcript.add(step, None)
                prediction = _finalize(repo, fc.fix_date, step.text)
                break
            else:
                consecutive_malformed += 1
                conversation.append({"role": "user", "content": CORRECTIVE_MESSAGE})
                transcript.add(step, None)
                if consecutive_malformed > MALFORMED_RETRIES:
                    break

        # Only a spent budget ends the loop without a break.
        if transcript.tool_turns >= max_turns:
            conversation.append({"role": "user", "content": FORCED_ANSWER_MESSAGE})
            step = next(iter(backend.send(conversation, [])))
            transcript.add(step, None)
            if step.kind == "final":
                prediction = _finalize(repo, fc.fix_date, step.text)
    except (BackendUnavailable, GitTimeout) as exc:
        transcript.error = str(exc)
    except BaseException:
        repo.stop()  # kills the git work started ahead of its observation
        raise
    finally:
        pool.shutdown(cancel_futures=True)

    if prediction is None:
        prediction = Prediction("", "unstated", "", "no_prediction")
    return prediction, transcript


def record_transcript(transcript: Transcript, prediction: Prediction, path: str):
    """Write the versioned line-delimited transcript record.

    Wall-clock data is deliberately excluded so deterministic backends
    produce byte-identical files run to run; timing lives in case results.
    """
    records: list[dict] = [
        {
            "schema": TRANSCRIPT_SCHEMA,
            "case_id": transcript.case_id,
            "repo": transcript.repo_path,
            "fix": transcript.fix_commit,
        }
    ]
    for turn in transcript.turns:
        records.append({"event": "model_step", "step": turn["step"].to_dict()})
        obs = turn["observation"]
        if obs is not None:
            records.append(
                {
                    "event": "observation",
                    "tool": turn["step"].tool.value,
                    "text": obs.text,
                    "truncated": obs.truncated,
                    "cache_hit": obs.cache_hit,
                }
            )
    records.append(
        {
            "event": "result",
            "prediction": asdict(prediction),
            "tool_turns": transcript.tool_turns,
            "total_turns": transcript.total_turns,
            "total_tokens": transcript.total_tokens,
            "error": transcript.error,
        }
    )
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_transcript(path: str) -> tuple[dict, list[ModelStep], bytes]:
    """A recorded transcript's header, model steps and bytes; SchemaMismatch names what does not fit."""
    with open(path, "rb") as f:
        recording = f.read()
    lines = [record for _, record in read_json_lines(path, SchemaMismatch, data=recording)]
    if not (lines and lines[0].get("schema") == TRANSCRIPT_SCHEMA):
        raise SchemaMismatch(f"{path} is not a {TRANSCRIPT_SCHEMA} file")
    header = lines[0]
    if not (all(isinstance(header.get(k), str) for k in ("repo", "fix", "case_id"))
            and header["case_id"]):
        raise SchemaMismatch(
            f"{path}: the header needs string 'repo' and 'fix' and a nonempty 'case_id'")
    if lines[-1].get("event") != "result":
        raise SchemaMismatch(f"{path} is truncated (no result record)")
    steps = []
    for record in lines[1:-1]:
        if record.get("event") == "model_step":
            try:
                steps.append(ModelStep.from_dict(record.get("step")))
            except ValueError as exc:
                raise SchemaMismatch(f"{path}: bad model_step record: {exc}") from None
        elif record.get("event") == "observation" and not isinstance(record.get("text"), str):
            raise SchemaMismatch(f"{path}: an observation record needs a string 'text'")
    return header, steps, recording


def require_recording(recording: bytes, recording_path: str, replay_path: str):
    """DesyncError at the first line after the header where the replay's transcript differs.

    The header names the repository path, which a replay may move to a copy.
    """
    with open(replay_path, "rb") as f:
        replayed = f.read().split(b"\n")[1:]
    for n, (old, new) in enumerate(zip_longest(recording.split(b"\n")[1:], replayed), start=2):
        if old != new:
            raise DesyncError(f"{replay_path}:{n} differs from the recorded run {recording_path}:{n}")
