"""The investigation loop and its model backends.

One case runs as a strictly sequential observe-reason-act loop: the model
either calls a tool (executed through the compression pipeline) or gives a
final structured answer. Backends share one contract, so the same loop
runs live against a chat-completions endpoint, deterministically from a
scripted step list, or from a recorded transcript.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import asdict, dataclass, field

import requests

from . import resolve
from .caseprep import CaseSpec, FixContext, InitialContext
from .compress import CompressionConfig, Observation, execute_compressed
from .gitio import RepoHandle
from .resolve import ResolutionTrace
from .tools import SchemaError, ToolName, ToolSchema, enforce_search_bound, parse_args

TRANSCRIPT_SCHEMA = "bictrace-transcript/v1"

DEFAULT_MAX_TURNS = 15

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
    """Replay diverged from the recorded run (repository state changed?)."""


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
        usage = data.get("usage", {})
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

    def to_dict(self) -> dict:
        return {
            "raw_hash_text": self.raw_hash_text,
            "confidence": self.confidence,
            "reasoning": self.reasoning,
            "status": self.status,
            "resolved_id": self.resolved_id,
            "trace": self.trace.to_dict() if self.trace else None,
        }


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
    wall_time: float = 0.0
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

    def __init__(self, steps: list[ModelStep], repeat_last: bool = False):
        self.steps = list(steps)
        self.repeat_last = repeat_last
        self.index = 0

    def send(self, conversation: list[dict], tool_specs: list[ToolSchema]) -> ModelStep:
        if self.index < len(self.steps):
            step = self.steps[self.index]
            self.index += 1
            return step
        if self.repeat_last and self.steps:
            return self.steps[-1]
        return final_step("")


class LiveBackend:
    """Chat-completions endpoint with function calling."""

    def __init__(
        self,
        endpoint_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        timeout: float = 120.0,
        extra_params: dict | None = None,
    ):
        self.endpoint_url = endpoint_url or os.environ.get("BICTRACE_ENDPOINT", "")
        self.model = model or os.environ.get("BICTRACE_MODEL", "")
        self.api_key = api_key or os.environ.get("BICTRACE_API_KEY", "")
        self.timeout = timeout
        self.extra_params = extra_params or {}
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

    def send(self, conversation: list[dict], tool_specs: list[ToolSchema]) -> ModelStep:
        body: dict = {"model": self.model, "messages": conversation, **self.extra_params}
        if tool_specs:
            body["tools"] = [schema.as_wire() for schema in tool_specs]
        try:
            response = requests.post(
                self.endpoint_url,
                json=body,
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=self.timeout,
            )
            response.raise_for_status()
            data = response.json()
        except (requests.RequestException, ValueError) as exc:
            raise BackendUnavailable(f"model endpoint failure: {exc}") from exc

        try:
            message = data["choices"][0]["message"]
        except (KeyError, IndexError) as exc:
            raise BackendUnavailable(f"malformed endpoint response: {exc}") from exc
        usage = data.get("usage") or {}
        tokens = {
            "prompt_tokens": int(usage.get("prompt_tokens", 0)),
            "completion_tokens": int(usage.get("completion_tokens", 0)),
        }

        tool_calls = message.get("tool_calls") or []
        if len(tool_calls) > 1:
            return ModelStep(kind="malformed", raw="parallel tool calls", **tokens)
        if tool_calls:
            call = tool_calls[0].get("function", {})
            try:
                tool = ToolName(call.get("name"))
                args = json.loads(call.get("arguments") or "{}")
                if not isinstance(args, dict):
                    raise ValueError("arguments must be an object")
            except (ValueError, KeyError):
                return ModelStep(kind="malformed", raw=json.dumps(tool_calls[0]), **tokens)
            return ModelStep(kind="tool_call", tool=tool, args=args, **tokens)
        content = message.get("content") or ""
        if not content.strip():
            return ModelStep(kind="malformed", raw="(empty message)", **tokens)
        return ModelStep(kind="final", text=content, **tokens)


class ReplayBackend:
    """Plays back a recorded transcript, verifying observations en route."""

    def __init__(self, path: str):
        self.steps: list[ModelStep] = []
        self.observations: dict[int, str] = {}
        self._load(path)
        self.index = 0

    def _load(self, path: str):
        try:
            with open(path, encoding="utf-8") as f:
                lines = [json.loads(ln) for ln in f if ln.strip()]
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaMismatch(f"unreadable transcript {path}: {exc}") from exc
        if not lines or lines[0].get("schema") != TRANSCRIPT_SCHEMA:
            raise SchemaMismatch(f"{path} is not a {TRANSCRIPT_SCHEMA} file")
        if lines[-1].get("event") != "result":
            raise SchemaMismatch(f"{path} is truncated (no result record)")
        for record in lines[1:-1]:
            if record.get("event") == "model_step":
                self.steps.append(ModelStep.from_dict(record["step"]))
            elif record.get("event") == "observation":
                self.observations[len(self.steps) - 1] = record["text"]

    def send(self, conversation: list[dict], tool_specs: list[ToolSchema]) -> ModelStep:
        previous = self.index - 1
        if previous >= 0 and previous in self.observations:
            live = next(
                (m["content"] for m in reversed(conversation) if m.get("role") == "tool"),
                None,
            )
            if live != self.observations[previous]:
                raise DesyncError(
                    f"observation for step {previous} differs from the recorded run"
                )
        if self.index >= len(self.steps):
            raise DesyncError("replay exhausted: live loop requested more steps than recorded")
        step = self.steps[self.index]
        self.index += 1
        return step


_BIC_FIELD_RE = re.compile(r"^[\s>*`#]*BIC\b[\s*`]*[:=][\s*`]*(.+)$", re.IGNORECASE | re.MULTILINE)
_CONFIDENCE_RE = re.compile(r"\bconfidence\b[\s*`]*[:=][\s*`]*([A-Za-z]+)", re.IGNORECASE)
_REASONING_RE = re.compile(r"\breasoning\b[\s*`]*[:=][\s*`]*(.*)", re.IGNORECASE | re.DOTALL)
_ANY_HEX_RE = re.compile(r"\b[0-9a-fA-F]{7,40}\b")


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
        any_hex = _ANY_HEX_RE.search(text)
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
    status, full_id, trace = resolve.resolve_prediction(
        repo, sanitized, fix_date=fix_date, input_text=raw_hash_text
    )
    return Prediction(raw_hash_text, confidence, reasoning, status, full_id, trace)


def run_investigation(
    case: CaseSpec,
    repo: RepoHandle,
    fc: FixContext,
    ctx: InitialContext,
    backend,
    max_turns: int = DEFAULT_MAX_TURNS,
    cfg: CompressionConfig | None = None,
    forced_answer: bool = True,
    malformed_retries: int = 2,
) -> tuple[Prediction, Transcript]:
    """Run the full loop for one case and return its prediction + transcript.

    `repo` and `fc` are the case's handle and fix context as the caller
    loaded them; the loop takes the fix id, parent and date from `fc`.

    Tool-executing turns are hard-capped at max_turns; corrective and
    forced-answer round-trips are counted separately in total_turns.
    """
    cfg = cfg or CompressionConfig()
    cache: dict[str, tuple[str, bool]] = {}
    transcript = Transcript(case_id=case.case_id, repo_path=case.repo_path, fix_commit=fc.fix_id)
    conversation: list[dict] = [
        {"role": "system", "content": ctx.system_prompt},
        {"role": "user", "content": "Begin the investigation."},
    ]
    prediction: Prediction | None = None
    consecutive_malformed = 0
    start = time.monotonic()

    try:
        while transcript.tool_turns < max_turns:
            step = backend.send(conversation, ctx.tool_specs)
            if step.kind == "tool_call":
                consecutive_malformed = 0
                try:
                    args = enforce_search_bound(parse_args(step.tool, step.args), fc.fix_date)
                except SchemaError as exc:
                    observation = Observation(
                        f"Error (schema): {exc}", truncated=False, cache_hit=False,
                        source_tool=step.tool,
                    )
                else:
                    # The transcript records the bound-enforced arguments:
                    # nothing later than the fix date ever reaches git or disk.
                    step = ModelStep(
                        kind=step.kind,
                        tool=step.tool,
                        args={k: v for k, v in asdict(args).items() if v is not None},
                        text=step.text,
                        raw=step.raw,
                        prompt_tokens=step.prompt_tokens,
                        completion_tokens=step.completion_tokens,
                    )
                    observation = execute_compressed(
                        repo, step.tool, args, fc.fix_date, cache, cfg, default_commit=fc.fix_parent
                    )
                call_id = f"call_{transcript.total_turns + 1}"
                conversation.append(
                    {
                        "role": "assistant",
                        "content": step.text or None,
                        "tool_calls": [
                            {
                                "id": call_id,
                                "type": "function",
                                "function": {
                                    "name": step.tool.value,
                                    "arguments": json.dumps(step.args, sort_keys=True),
                                },
                            }
                        ],
                    }
                )
                conversation.append(
                    {"role": "tool", "tool_call_id": call_id, "content": observation.text}
                )
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
                if consecutive_malformed > malformed_retries:
                    prediction = Prediction("", "unstated", "", "no_prediction")
                    break

        if prediction is None and forced_answer:
            conversation.append({"role": "user", "content": FORCED_ANSWER_MESSAGE})
            step = backend.send(conversation, [])
            transcript.add(step, None)
            if step.kind == "final":
                prediction = _finalize(repo, fc.fix_date, step.text)
    except BackendUnavailable as exc:
        transcript.error = str(exc)
        prediction = Prediction("", "unstated", "", "no_prediction")

    if prediction is None:
        prediction = Prediction("", "unstated", "", "no_prediction")
    transcript.wall_time = time.monotonic() - start
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
                    "tool": obs.source_tool.value if obs.source_tool else None,
                    "text": obs.text,
                    "truncated": obs.truncated,
                    "cache_hit": obs.cache_hit,
                }
            )
    records.append(
        {
            "event": "result",
            "prediction": prediction.to_dict(),
            "tool_turns": transcript.tool_turns,
            "total_turns": transcript.total_turns,
            "total_tokens": transcript.total_tokens,
            "error": transcript.error,
        }
    )
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")
