"""Byte-for-byte pins of one scripted investigation and of the tool schemas.

One deterministic repository and one scripted run that covers all five
tools, a cache hit, a line-cap truncation notice, the character clamp, a
schema error, a malformed step and a final answer. The transcript (with
the repository path replaced by a placeholder) and the system prompt must
equal the files under `tests/golden/`. Any change to observation text,
argument recording, prompt assembly or answer resolution shows here as a
diff. The run avoids git error messages, whose wording differs between
git versions. The tool schemas the model receives are pinned as the text
of `json.dumps(tool_schemas(), indent=2)`, so key order counts too.

Regenerate the golden files only for an intended behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import tempfile

from repo_helpers import RepoBuilder

from bictrace import agent
from bictrace.cli import main
from bictrace.tools import tool_schemas

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TRANSCRIPT_GOLDEN = os.path.join(GOLDEN_DIR, "investigate_scripted.jsonl")
PROMPT_GOLDEN = os.path.join(GOLDEN_DIR, "investigate_prompt.txt")
SCHEMAS_GOLDEN = os.path.join(GOLDEN_DIR, "tool_schemas.json")
REPO_PLACEHOLDER = "<repo>"

CALC_V1 = """\
int add(int a, int b) {
  return a + b;
}

int scale(int x, int k) {
  return x * k;
}
"""

CALC_BUGGY = CALC_V1.replace("a + b;", "a + b + 1;")


def build_repo(path) -> tuple[RepoBuilder, dict]:
    rb = RepoBuilder(path)
    table = "".join(f"row {i:03d} needle\n" for i in range(1, 151))
    base = rb.commit({"src/calc.c": CALC_V1, "data/table.txt": table}, "import calc and table")
    bic = rb.commit(
        {"src/calc.c": CALC_BUGGY},
        "add: count the carry\n\nSigned-off-by: Fixture Author <fixture@example.test>\n",
    )
    listing = "".join(f"l{i:03d}\n" for i in range(1, 251))
    bulk = rb.commit({"gen/list.txt": listing}, "generate listing")
    fix = rb.commit(
        {"src/calc.c": CALC_V1},
        f"fix add: drop stray +1\n\nFixes: {bic[:12]} (\"add: count the carry\")\n"
        "Reviewed-by: Fixture Committer <fixture@example.test>\n",
    )
    return rb, {"base": base, "bic": bic, "bulk": bulk, "fix": fix}


def script_steps(info: dict) -> list[dict]:
    def call(tool, **args):
        return {"kind": "tool_call", "tool": tool, "args": args}

    return [
        call("git_show", commit=info["bulk"]),  # 250 added lines: line-cap notice
        call("git_blame", file_path="src/calc.c"),
        call("git_log_s", search_string="+ 1", path="src/calc.c",
             after="2020-01-01", before="2030-01-01"),  # before is capped at the fix date
        call("git_log_func", function_name="add", file_path="src/calc.c", after="2020-01-01"),
        call("git_grep", search_string="needle"),  # 150 matches: cap, extract and clamp
        call("git_grep", search_string="scale", path="src/calc.c"),
        call("git_blame", file_path="src/calc.c"),  # cache hit
        call("git_show", commit="HEAD", colour=True),  # schema error
        {"kind": "malformed", "raw": "two tool calls at once"},
        {"kind": "final", "text": f"BIC: {info['bic'][:12]}\nConfidence: high\nReasoning: the +1"},
    ]


def run_scripted(workdir) -> tuple[str, str]:
    """Transcript text (repo path replaced) and system prompt of one scripted run."""
    rb, info = build_repo(os.path.join(workdir, "repo"))
    script = os.path.join(workdir, "script.json")
    with open(script, "w", encoding="utf-8") as f:
        json.dump(script_steps(info), f)

    prompts = []
    send = agent.ScriptedBackend.send

    def recording_send(self, conversation, tool_specs):
        if not prompts:
            prompts.append(conversation[0]["content"])
        return send(self, conversation, tool_specs)

    agent.ScriptedBackend.send = recording_send
    try:
        code = main([
            "investigate", "--repo", rb.path, "--fix", info["fix"],
            "--backend", f"scripted:{script}",
            "--run-dir", os.path.join(workdir, "runs"), "--run-id", "golden",
        ])
    finally:
        agent.ScriptedBackend.send = send
    assert code == 0
    transcripts = os.path.join(workdir, "runs", "golden", "transcripts")
    (name,) = os.listdir(transcripts)
    with open(os.path.join(transcripts, name), encoding="utf-8") as f:
        text = f.read()
    return text.replace(rb.path, REPO_PLACEHOLDER), prompts[0]


def read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def test_scripted_run_matches_golden(tmp_path, monkeypatch):
    for var in ("BICTRACE_ENDPOINT", "BICTRACE_API_KEY", "BICTRACE_MODEL"):
        monkeypatch.delenv(var, raising=False)
    transcript, prompt = run_scripted(str(tmp_path))
    assert transcript == read(TRANSCRIPT_GOLDEN)
    assert prompt == read(PROMPT_GOLDEN)


def schemas_text() -> str:
    return json.dumps(tool_schemas(), indent=2) + "\n"


def test_tool_schemas_match_golden():
    assert schemas_text() == read(SCHEMAS_GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        transcript, prompt = run_scripted(tmp)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    goldens = ((TRANSCRIPT_GOLDEN, transcript), (PROMPT_GOLDEN, prompt),
               (SCHEMAS_GOLDEN, schemas_text()))
    for path, text in goldens:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        print(f"wrote {path}")
