"""Seeded synthetic git repositories with planted bug-inducing commits.

Ground truth comes from construction, never from bictrace's own output.
Every line is unique text. A planted line is added by its bug-inducing
commit (BIC) and no later commit touches it until the fix rewrites or
deletes it. The same seed gives the same bytes and the same commit ids:
identities and dates are fixed, and the history is streamed through one
`git fast-import` process.

This module deliberately does not share code with the test helpers, so
a change there cannot move the benchmark's inputs.
"""

from __future__ import annotations

import os
import random
import subprocess
from dataclasses import dataclass, field

BASE_EPOCH = 1600000000  # 2020-09-13T12:26:40Z
COMMIT_GAP = 3600
IDENT = "Bench Author <bench@example.test>"
# Letters only, none of them a hex digit: no generated name looks like a commit id.
ALPHABET = "ghijklmnopqrstuvwxyz"


def git_env() -> dict:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": os.environ.get("HOME", "/"),
        "LC_ALL": "C",
        "TZ": "UTC",
        "GIT_CONFIG_GLOBAL": os.devnull,
        "GIT_CONFIG_SYSTEM": os.devnull,
        "GIT_CONFIG_NOSYSTEM": "1",
    }


def git(*args: str) -> str:
    proc = subprocess.run(
        ["git", *args], capture_output=True, text=True, env=git_env(), check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args[:3])} failed: {proc.stderr.strip()}")
    return proc.stdout


@dataclass
class Function:
    name: str
    var: str
    body: list[str]

    def lines(self) -> list[str]:
        return [
            f"int fn_{self.name}(int a, int b)",
            "{",
            f"\tint v_{self.var} = a + b;",
            *self.body,
            f"\treturn v_{self.var};",
            "}",
            "",
        ]


class History:
    """A C-like source tree whose commits stream into `git fast-import`.

    Use as a context manager: entering creates the repository, each
    commit() writes the changed files at once (memory stays flat however
    large the files), and finish() returns the commit ids in order.
    """

    def __init__(self, dest: str, rng: random.Random):
        self.dest = dest
        self.rng = rng
        self.files: dict[str, list[Function]] = {}
        self.reserved: set[str] = set()  # planted lines no noise edit may touch
        self.n_commits = 0
        self._names: set[str] = set()
        self._counter = 0
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "History":
        git("init", "-q", "-b", "main", self.dest)
        self._proc = subprocess.Popen(
            ["git", "-C", self.dest, "fast-import", "--quiet", "--date-format=raw"],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=git_env(),
        )
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._proc is not None:
            self._proc.kill()
            self._proc.communicate()
            self._proc = None

    def name(self, width: int = 6) -> str:
        while True:
            candidate = "".join(self.rng.choice(ALPHABET) for _ in range(width))
            if candidate not in self._names:
                self._names.add(candidate)
                return candidate

    def body_line(self, var: str) -> str:
        self._counter += 1
        return f"\tv_{var} = v_{var} * 31 + {self._counter:06d};"

    def add_file(self, path: str, n_functions: int, body_lines: int):
        funcs = []
        for _ in range(n_functions):
            var = self.name()
            funcs.append(Function(self.name(), var, [self.body_line(var) for _ in range(body_lines)]))
        self.files[path] = funcs

    def render(self, path: str) -> str:
        return "\n".join(ln for fn in self.files[path] for ln in fn.lines()) + "\n"

    def touch(self, path: str, n_lines: int):
        """Rewrite n_lines random unreserved body lines of one file."""
        funcs = self.files[path]
        for _ in range(n_lines):
            fn = self.rng.choice(funcs)
            free = [i for i, ln in enumerate(fn.body) if ln not in self.reserved]
            fn.body[self.rng.choice(free)] = self.body_line(fn.var)

    def plant(self, path: str, fn: Function, text: str):
        fn.body.insert(self.rng.randrange(len(fn.body) + 1), text)
        self.reserved.add(text)

    def commit(self, message: str, paths: list[str]) -> int:
        """Record the current content of paths; returns the commit index."""
        when = BASE_EPOCH + self.n_commits * COMMIT_GAP
        msg = message.encode() + b"\n"
        chunks = [
            b"commit refs/heads/main\n",
            f"author {IDENT} {when} +0000\ncommitter {IDENT} {when} +0000\n".encode(),
            b"data %d\n" % len(msg),
            msg,
        ]
        for path in paths:
            data = self.render(path).encode()
            chunks += [f"M 100644 inline {path}\n".encode(), b"data %d\n" % len(data), data]
        chunks.append(b"\n")
        self._proc.stdin.write(b"".join(chunks))
        self.n_commits += 1
        return self.n_commits - 1

    def finish(self) -> list[str]:
        proc, self._proc = self._proc, None
        proc.stdin.close()
        err = proc.stderr.read()
        if proc.wait() != 0:
            raise RuntimeError(f"git fast-import failed: {err.decode(errors='replace')}")
        ids = git("-C", self.dest, "rev-list", "--reverse", "main").split()
        if len(ids) != self.n_commits:
            raise RuntimeError(f"expected {self.n_commits} commits, found {len(ids)}")
        return ids


# -- workloads ----------------------------------------------------------------

@dataclass
class AgentCase:
    """One investigation: the fix, its planted BIC and the scripted steps."""

    case_id: str
    fix: str
    bic: str
    steps: list[dict]
    cache_hit_step: int  # index of the repeated tool call


@dataclass
class SzzCase:
    case_id: str
    fix: str
    bics: list[str]  # all four planting commits, oldest first
    latest: str  # R-SZZ answer: most recent planting commit
    largest: str  # L-SZZ answer: the commit that planted most lines


@dataclass
class Generated:
    repo: str
    tip: str  # digest: the tip commit id pins every byte of the history
    agent_cases: list[AgentCase] = field(default_factory=list)
    szz_cases: list[SzzCase] = field(default_factory=list)


def _schedule(n_commits: int, n_cases: int) -> tuple[list[int], list[int]]:
    """Disjoint BIC and fix slots; every BIC precedes its fix by half the history."""
    half = (n_commits - 1) // 2
    step = max(1, half // n_cases)
    if (n_cases - 1) * step >= half:
        raise ValueError("too many cases for the history length")
    bics = [1 + c * step for c in range(n_cases)]
    return bics, [b + half for b in bics]


def _final(bic: str) -> dict:
    return {
        "kind": "final",
        "text": (
            f"BIC: {bic[:12]}\nConfidence: high\n"
            "Reasoning: the fix rewrites the guard that this commit added."
        ),
    }


def _call(tool: str, **args) -> dict:
    return {"kind": "tool_call", "tool": tool, "args": args}


def agent_repo(dest: str, seed: int, *, files: int, functions: int, body: int,
               commits: int, cases: int, touch: int, full_blame: bool) -> Generated:
    """History of `commits` commits with `cases` planted BIC/fix pairs.

    Noise commits each rewrite `touch` random lines of one file. With
    full_blame the script blames the whole file twice (the second call is
    the cache hit); otherwise it blames a small range around the planted
    line and repeats that.
    """
    rng = random.Random(seed)
    with History(dest, rng) as h:
        paths = [f"src/{h.name()}.c" for _ in range(files)]
        for p in paths:
            h.add_file(p, functions, body)
        h.commit("Initial import", paths)
        bic_slots, fix_slots = _schedule(commits, cases)
        events = {}
        for c, (b, f) in enumerate(zip(bic_slots, fix_slots)):
            events[b] = ("bic", c)
            events[f] = ("fix", c)
        order = rng.sample(paths, len(paths))
        planted: dict[int, dict] = {}
        for slot in range(1, commits):
            kind, c = events.get(slot, ("noise", None))
            if kind == "noise":
                path = paths[slot % len(paths)]
                h.touch(path, touch)
                h.commit(f"Refactor arithmetic in {path}", [path])
            elif kind == "bic":
                path = order[c % len(order)]
                fn = rng.choice(h.files[path])
                token = h.name()
                text = f"\tif (v_{fn.var} > chk_{token}) v_{fn.var} = 0;"
                h.plant(path, fn, text)
                planted[c] = {"path": path, "fn": fn, "token": token, "text": text,
                              "commit": h.commit(f"Clamp fn_{fn.name} results", [path])}
            else:
                p = planted[c]
                lines = h.render(p["path"]).split("\n")
                line = lines.index(p["text"]) + 1
                p["range"] = (max(1, line - 6), min(len(lines) - 1, line + 6))
                fn = p["fn"]
                fixed = p["text"].replace(" > ", " >= ")
                fn.body[fn.body.index(p["text"])] = fixed
                h.reserved.discard(p["text"])
                p["fix"] = h.commit(f"Fix off-by-one guard in fn_{fn.name}", [p["path"]])
        ids = h.finish()

    out = Generated(repo=dest, tip=ids[-1])
    for c in range(cases):
        p = planted[c]
        path, fn, token = p["path"], p["fn"], p["token"]
        fix, bic = ids[p["fix"]], ids[p["commit"]]
        searches = [
            _call("git_log_s", search_string=f"chk_{token}", path=path),
            _call("git_log_func", function_name=f"fn_{fn.name}", file_path=path),
            _call("git_grep", search_string=f"chk_{token}"),
        ]
        if full_blame:
            blame = _call("git_blame", file_path=path)
            steps = [_call("git_show", commit=fix), blame, blame, *searches]
            hit = 2
        else:
            blame = _call("git_blame", file_path=path, line_start=p["range"][0],
                          line_end=p["range"][1])
            steps = [_call("git_show", commit=fix, file_filter=path), blame, *searches, blame]
            hit = len(steps) - 1
        out.agent_cases.append(AgentCase(f"bench:{fix[:12]}", fix, bic, steps + [_final(bic)], hit))
    return out


PLANT_COUNTS = (1, 2, 3, 4)


def szz_repo(dest: str, seed: int, *, files: int, functions: int, body: int,
             batches: int, touch: int) -> Generated:
    """One case per file per batch; each fix deletes lines from four BICs.

    Within a batch, BIC k of every case lands before BIC k+1 of any case,
    then one noise commit per file, then the fixes. Each case's four BICs
    plant a seeded permutation of 1..4 lines, so L-SZZ has one answer, and
    commit dates strictly increase, so R-SZZ's answer is the fourth BIC.
    """
    rng = random.Random(seed)
    cases = []
    with History(dest, rng) as h:
        paths = [f"pkg/{h.name()}.c" for _ in range(files)]
        for p in paths:
            h.add_file(p, functions, body)
        h.commit("Initial import", paths)
        for _ in range(batches):
            batch = [{"path": p, "counts": rng.sample(PLANT_COUNTS, 4), "bics": [], "lines": []}
                     for p in paths]
            for k in range(4):
                for case in batch:
                    for _ in range(case["counts"][k]):
                        fn = rng.choice(h.files[case["path"]])
                        text = f"\tv_{fn.var} ^= mask_{h.name()};"
                        h.plant(case["path"], fn, text)
                        case["lines"].append((fn, text))
                    case["bics"].append(h.commit(f"Mask state in {case['path']}", [case["path"]]))
            for p in paths:
                h.touch(p, touch)
                h.commit(f"Refactor arithmetic in {p}", [p])
            for case in batch:
                for fn, text in case["lines"]:
                    fn.body.remove(text)
                    h.reserved.discard(text)
                case["fix"] = h.commit(f"Revert state masking in {case['path']}", [case["path"]])
            cases += batch
        ids = h.finish()

    out = Generated(repo=dest, tip=ids[-1])
    # File-major order: any run of consecutive cases spans every batch, so a
    # timed loop that stops early still sees short and long histories alike.
    cases.sort(key=lambda case: paths.index(case["path"]))
    for case in cases:
        bics = [ids[i] for i in case["bics"]]
        fix = ids[case["fix"]]
        largest = bics[case["counts"].index(max(PLANT_COUNTS))]
        out.szz_cases.append(SzzCase(f"bench:{fix[:12]}", fix, bics, bics[-1], largest))
    return out
