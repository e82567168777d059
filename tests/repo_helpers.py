"""Deterministic synthetic git repositories for tests.

All fixture repos pin author/committer identity and dates so commit ids
and tool output are reproducible run to run.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess

from bictrace.caseprep import FixContext

BASE_EPOCH = 1577836800  # 2020-01-01T00:00:00Z
FAR_FUTURE = 2_000_000_000  # 2033-05-18: later than every fixture commit

GIT_ENV = {
    "GIT_AUTHOR_NAME": "Fixture Author",
    "GIT_AUTHOR_EMAIL": "fixture@example.test",
    "GIT_COMMITTER_NAME": "Fixture Committer",
    "GIT_COMMITTER_EMAIL": "fixture@example.test",
    "GIT_CONFIG_GLOBAL": os.devnull,
    "GIT_CONFIG_SYSTEM": os.devnull,
    "GIT_CONFIG_NOSYSTEM": "1",
    "TZ": "UTC",
}


class RepoBuilder:
    """Write-side helper for constructing fixture repositories."""

    def __init__(self, path):
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        self.tick = 0
        self.git("init", "-q", "-b", "main")

    def git(self, *args, date: int | None = None, check: bool = True, stdin: str | None = None) -> str:
        env = {**GIT_ENV, "PATH": os.environ["PATH"], "HOME": os.environ.get("HOME", "/")}
        if date is not None:
            stamp = f"{date} +0000"
            env["GIT_AUTHOR_DATE"] = stamp
            env["GIT_COMMITTER_DATE"] = stamp
        proc = subprocess.run(
            ["git", "-C", self.path, *args],
            capture_output=True,
            text=True,
            env=env,
            input=stdin,
        )
        if check and proc.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)} failed:\n{proc.stderr}")
        return proc.stdout

    def next_date(self) -> int:
        self.tick += 1
        return BASE_EPOCH + self.tick * 86400

    def write(self, files: dict[str, str]):
        for rel, content in files.items():
            full = os.path.join(self.path, rel)
            if os.path.dirname(rel):
                os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(content)

    def commit(
        self,
        files: dict[str, str] | None = None,
        message: str = "change",
        delete: tuple[str, ...] = (),
        date: int | None = None,
    ) -> str:
        if files:
            self.write(files)
        for rel in delete:
            os.remove(os.path.join(self.path, rel))
        self.git("add", "-A")
        self.git("commit", "-q", "-m", message, date=date if date is not None else self.next_date())
        return self.head()

    def move(self, src: str, dst: str, message: str = "rename", date: int | None = None) -> str:
        dst_dir = os.path.dirname(dst)
        if dst_dir:
            os.makedirs(os.path.join(self.path, dst_dir), exist_ok=True)
        self.git("mv", src, dst)
        self.git("commit", "-q", "-m", message, date=date if date is not None else self.next_date())
        return self.head()

    def branch(self, name: str):
        self.git("checkout", "-q", "-b", name)

    def checkout(self, name: str):
        self.git("checkout", "-q", name)

    def merge(self, branch: str, message: str = "merge", date: int | None = None) -> str:
        self.git(
            "merge", "--no-ff", "-q", "-m", message, branch,
            date=date if date is not None else self.next_date(),
        )
        return self.head()

    def head(self) -> str:
        return self.git("rev-parse", "HEAD").strip()

    def write_loose_commit(self, body: bytes) -> str:
        """Store a hand-built commit object (for prefix-collision fixtures)."""
        proc = subprocess.run(
            ["git", "-C", self.path, "hash-object", "-t", "commit", "-w", "--stdin"],
            input=body,
            capture_output=True,
            env={**GIT_ENV, "PATH": os.environ["PATH"], "HOME": os.environ.get("HOME", "/")},
        )
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode())
        return proc.stdout.decode().strip()


def committer_time(repo_path: str, commit: str) -> int:
    """Committer timestamp read with git directly, not through bictrace."""
    proc = subprocess.run(
        ["git", "-C", str(repo_path), "show", "-s", "--format=%ct", commit],
        capture_output=True, text=True, check=True,
    )
    return int(proc.stdout)


def object_set_digest(repo_path: str) -> str:
    """Digest of the repository's object database and refs."""
    digest = hashlib.sha256()
    root = os.path.join(repo_path, ".git")
    paths = []
    for entry in ("objects", "refs", "packed-refs", "HEAD"):
        full = os.path.join(root, entry)
        if os.path.isfile(full):
            paths.append(full)
        elif os.path.isdir(full):
            for dirpath, _, files in os.walk(full):
                paths.extend(os.path.join(dirpath, name) for name in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def find_colliding_commits(tree: str, parent: str, prefix_len: int = 7) -> tuple[bytes, bytes]:
    """Two raw commit objects whose ids share a prefix of prefix_len chars."""
    seen: dict[str, bytes] = {}
    for n in itertools.count(1):
        body = (
            f"tree {tree}\n"
            f"parent {parent}\n"
            f"author Fixture Author <fixture@example.test> {BASE_EPOCH} +0000\n"
            f"committer Fixture Committer <fixture@example.test> {BASE_EPOCH} +0000\n"
            f"\ncollision probe {n}\n"
        ).encode()
        full = hashlib.sha1(b"commit %d\x00" % len(body) + body).hexdigest()
        prefix = full[:prefix_len]
        if prefix in seen and seen[prefix] != body:
            return seen[prefix], body
        seen[prefix] = body


# -- randomized history generation for oracle equivalence --------------------

FILE_POOL = ("src/alpha.c", "src/beta.c", "lib/core.c", "lib/util.c", "docs/notes.txt")


def generate_random_repo(path, seed: int) -> tuple[RepoBuilder, list[str]]:
    """A random history with merges, renames, deletions and rewrites.

    Every line payload is unique, so diff algorithms agree on edit scripts
    and blame attribution is unambiguous.
    """
    rng = random.Random(seed)
    rb = RepoBuilder(path)
    counter = itertools.count(1)
    shadow: dict[str, list[str]] = {}

    def fresh_line(stem: str) -> str:
        return f"{stem} payload {next(counter):05d} {rng.randrange(1 << 30):08x}"

    def snapshot(paths) -> dict[str, str]:
        return {p: "\n".join(shadow[p]) + "\n" for p in paths}

    def edit(path: str):
        lines = shadow[path]
        op = rng.choice(("insert", "replace", "delete", "replace", "insert"))
        if op == "delete" and len(lines) > 2:
            del lines[rng.randrange(len(lines))]
        elif op == "replace":
            lines[rng.randrange(len(lines))] = fresh_line(path)
        else:
            lines.insert(rng.randrange(len(lines) + 1), fresh_line(path))

    first = rng.sample(FILE_POOL, 2)
    for p in first:
        shadow[p] = [fresh_line(p) for _ in range(rng.randint(4, 8))]
    commits = [rb.commit(snapshot(first), "initial import")]

    n_commits = rng.randint(5, 50)
    while len(commits) < n_commits:
        roll = rng.random()
        if roll < 0.12 and len(commits) + 4 <= n_commits and len(shadow) >= 2:
            # Merge block: side branch and mainline edit disjoint files.
            side_file, main_file = rng.sample(sorted(shadow), 2)
            branch = f"side{len(commits)}"
            rb.branch(branch)
            edit(side_file)
            commits.append(rb.commit(snapshot([side_file]), f"side edit {side_file}"))
            rb.checkout("main")
            edit(main_file)
            commits.append(rb.commit(snapshot([main_file]), f"main edit {main_file}"))
            commits.append(rb.merge(branch, f"merge {branch}"))
        elif roll < 0.2:
            unused = [p for p in FILE_POOL if p not in shadow]
            if unused:
                path = rng.choice(unused)
                shadow[path] = [fresh_line(path) for _ in range(rng.randint(3, 6))]
                commits.append(rb.commit(snapshot([path]), f"add {path}"))
                continue
            edit(rng.choice(sorted(shadow)))
            commits.append(rb.commit(snapshot(sorted(shadow)), "touch up"))
        elif roll < 0.28 and len(shadow) >= 2:
            old = rng.choice(sorted(shadow))
            new = old + ".renamed" if not old.endswith(".renamed") else old[: -len(".renamed")]
            if new in shadow:
                continue
            shadow[new] = shadow.pop(old)
            commits.append(rb.move(old, new, f"rename {old} to {new}"))
        else:
            path = rng.choice(sorted(shadow))
            before = list(shadow[path])
            for _ in range(rng.randint(1, 3)):
                edit(path)
            if shadow[path] == before:  # an insert/delete pair cancelled out
                edit(path)
            commits.append(rb.commit(snapshot([path]), f"edit {path}"))
    return rb, commits


def parent_context(parent: str) -> FixContext:
    """A fix context whose parent revision is `parent`, the one field the tool pipeline reads."""
    return FixContext(fix_id="", fix_parent=parent, fix_date=FAR_FUTURE,
                      message_redacted="", diff_text="", changed_files=[])
