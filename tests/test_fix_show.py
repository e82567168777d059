"""`git_show` of the fix, rendered from the fix read: git's bytes, or a git spawn."""

import os
import random
import subprocess

import pytest

from repo_helpers import BASE_EPOCH, GIT_ENV, RepoBuilder

from bictrace import gitio, tools
from bictrace.caseprep import load_fix_context, render_message
from bictrace.gitio import RepoHandle, run_git
from bictrace.tools import ShowArgs

AUTHOR = b"Fixture Author <fixture@example.test>"
MAILMAP = "Mapped Name <mapped@example.test> Fixture Author <fixture@example.test>\n"

# Message lines git's medium format rewrites: blank ones, trailing whitespace, tabs
# (expanded by display width), a CR, an escape sequence, a form feed, non-ASCII.
FRAGMENTS = ("", " ", "\t", "\r", "subject", "a\tb\tc", "  trailing \t ", "\tlead",
             "x\r\ry", "café \t tab", "\x1b[31mred\x1b[m\tx", "\f", "1234567\t8",
             "wide 界\tx", "end\r")


def commit_object(rb: RepoBuilder, message: bytes, headers: bytes = b"", tick: int = 0) -> str:
    """Commit the staged work tree as a hand-built object: any message bytes, any extra header."""
    tree = rb.git("write-tree").strip()
    stamp = b"%d +0000" % (BASE_EPOCH + tick * 60)
    body = (b"tree %s\nparent %s\nauthor %s %s\ncommitter %s %s\n%s\n"
            % (tree.encode(), rb.head().encode(), AUTHOR, stamp, AUTHOR, stamp, headers) + message)
    proc = subprocess.run(["git", "-C", rb.path, "hash-object", "-t", "commit", "-w", "--stdin"],
                          input=body, capture_output=True, check=True,
                          env={**GIT_ENV, "PATH": os.environ["PATH"]})
    sha = proc.stdout.decode().strip()
    rb.git("update-ref", "HEAD", sha)
    return sha


def random_message(rng: random.Random) -> bytes:
    lines = [rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 6))]
    lines = [""] * rng.randint(0, 2) + lines + [""] * rng.randint(0, 3)
    text = "\n".join(lines).encode()
    if rng.random() < 0.2:
        text += b"\xe9 latin-1 \xff"  # not UTF-8
    return text + (b"\n" if rng.random() < 0.8 else b"")


def build(path, seed: int) -> tuple[RepoBuilder, list[str]]:
    """A repository whose fixes cover every kind of change and message the renderer meets."""
    rng = random.Random(seed)
    rb = RepoBuilder(path)
    rb.commit({"keep.c": "one\ntwo\nthree\n", "old.c": "".join(f"line {n}\n" for n in range(20)),
               "gone.c": "bye\n", "tool.sh": "echo\n", "café.c": "x\n", "dir": "file\n",
               "link": "target\n"}, "seed")
    fixes = []

    def stage_and_commit(message: bytes, headers: bytes = b""):
        rb.git("add", "-A")
        fixes.append(commit_object(rb, message, headers, tick=len(fixes) + 1))

    # A rename with an edit, a mode change, a binary file, a deletion, a creation, non-ASCII
    # and not-UTF-8 names, a file replaced by a directory and a file replaced by a symlink.
    rb.git("mv", "old.c", "new.c")
    rb.write({"new.c": "".join(f"line {n}\n" for n in range(19)) + "changed\n",
              "keep.c": "one\n2\nthree\n", "café.c": "y\n", "added.c": "new\n"})
    os.chmod(os.path.join(rb.path, "tool.sh"), 0o755)
    with open(os.path.join(rb.path, "blob.bin"), "wb") as f:
        f.write(bytes(range(256)))
    with open(os.path.join(rb.path.encode(), b"caf\xe9.c"), "wb") as f:
        f.write(b"latin\n")
    os.remove(os.path.join(rb.path, "gone.c"))
    os.remove(os.path.join(rb.path, "dir"))
    rb.write({"dir/inner.c": "inner\n"})
    os.remove(os.path.join(rb.path, "link"))
    os.symlink("target", os.path.join(rb.path, "link"))
    stage_and_commit(b"every kind of change\n")
    # Random messages on ordinary edits.
    for n in range(6):
        rb.write({"keep.c": f"one\n{n}-{rng.randrange(1000)}\nthree\n"})
        stage_and_commit(random_message(rng))
    # An empty diff, with a message and with none.
    stage_and_commit(b"\n\nnothing changed\t\n\n")
    stage_and_commit(b"")
    # An empty message over a diff; an encoding header; a message with no line break.
    rb.write({"keep.c": "one\nempty message\nthree\n"})
    stage_and_commit(b"")
    rb.write({"keep.c": "one\nlatin-1\nthree\n"})
    stage_and_commit(b"caf\xe9\n", b"encoding ISO-8859-1\n")
    rb.write({"keep.c": "one\nno newline\nthree\n"})
    stage_and_commit(b"no newline at the end")
    # Notes, and a merge.
    rb.write({"keep.c": "one\nnoted\nthree\n"})
    stage_and_commit(b"noted\n")
    rb.git("notes", "add", "-m", "a note", fixes[-1])
    rb.branch("side")
    side = rb.commit({"side.c": "side\n"}, "side work")
    rb.checkout("main")
    rb.commit({"keep.c": "one\nmain\nthree\n"}, "main work")
    fixes.append(rb.merge("side", "merge side"))
    assert side != fixes[-1]
    return rb, fixes


def filters(fc) -> list:
    """No filter, every name the fix's sections spell, a directory and pathspec magic."""
    names = sorted({name for names in fc.section_paths for name in names})
    return [None, *names, "dir", "*.c", ":(glob)keep.c", "absent.c"]


def git_show(repo: RepoHandle, commit: str, file_filter: str | None) -> str:
    out = run_git(repo, ["show", "--no-color", commit, *(["--", file_filter] if file_filter else [])])
    assert out.status is gitio.GitStatus.OK, out.stderr
    return out.stdout


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mailmap", [False, True], ids=["plain", "mailmap"])
def test_rendered_show_is_gits_bytes_or_spawns(tmp_path, seed, mailmap):
    rb, fixes = build(tmp_path / "r", seed)
    if mailmap:
        rb.write({".mailmap": MAILMAP})  # read from the work tree, not from a commit
    repo = RepoHandle(rb.path)
    rendered = set()
    for fix in fixes:
        fc = load_fix_context(repo, fix)
        for file_filter in filters(fc):
            before = repo.process_count
            text = tools.execute_raw(repo, ShowArgs(commit=fix, file_filter=file_filter), fc)
            if repo.process_count == before:
                assert text == git_show(repo, fix, file_filter), (fix, file_filter)
                rendered.add((fixes.index(fix), file_filter))
    assert ("Mapped Name" in git_show(repo, fixes[0], None)) is mailmap
    # What renders: each plain fix whole; each name of an unrenamed section; never the
    # encoding header, the notes or the merge (the last three fixes but one).
    first = load_fix_context(repo, fixes[0])
    assert {f for i, f in rendered if i == 0} == {None, "keep.c", "tool.sh", "blob.bin", "gone.c",
                                                   "added.c", "café.c", "caf\udce9.c", "link",
                                                   "dir/inner.c"}
    assert ("old.c", "new.c") in first.section_paths
    assert {i for i, f in rendered if f is None} >= {7, 8, 9, 11}
    assert not {i for i, _ in rendered} & {10, 12, 13}


def test_message_rendering_rules():
    assert render_message("\n \n\tsubject \r\n\n body\t\r\n\n\n") == (
        "            subject\n    \n     body\n")
    assert render_message("a\tb\n1234567\t8\n") == "    a       b\n    1234567 8\n"
    assert render_message("") == render_message(" \n\t\n") == ""
    # A tab after a character whose display width only git knows is left to git.
    assert render_message("café\tx\n") is None
    assert render_message("café x\tfine?\n") is None
    assert render_message("café \f\n") == "    café \f\n"


class TestPinnedConfig:
    """Keys that change what `git show` prints are pinned, whatever the repository sets."""

    HOSTILE = {"format.pretty": "oneline", "log.abbrevCommit": "true", "log.date": "relative",
               "log.decorate": "full", "log.showSignature": "true", "log.mailmap": "false",
               "diff.context": "7", "i18n.logOutputEncoding": "ISO-8859-1"}

    def test_fix_show_equals_a_clean_clones_and_gits(self, tmp_path, capsys):
        from bictrace.cli import main

        clean = RepoBuilder(tmp_path / "clean")
        clean.commit({"f.c": "".join(f"{n}\n" for n in range(30))}, "seed")
        fix = clean.commit({"f.c": "".join(f"{n}\n" for n in range(30)).replace("15\n", "x\n")},
                           "fix café")
        clean.write({".mailmap": MAILMAP})
        subprocess.run(["git", "clone", "-q", clean.path, str(tmp_path / "hostile")], check=True,
                       env={**GIT_ENV, "PATH": os.environ["PATH"]})
        hostile = RepoBuilder(tmp_path / "hostile")
        hostile.write({".mailmap": MAILMAP})
        for key, value in self.HOSTILE.items():
            hostile.git("config", key, value)
        shows = []
        for rb in (clean, hostile):
            repo = RepoHandle(rb.path)
            fc = load_fix_context(repo, fix)
            shows.append(tools.execute_raw(repo, ShowArgs(commit=fix), fc))
            shows.append(tools.exec_git_show(repo, ShowArgs(commit=fix)))
        assert len(set(shows)) == 1
        assert shows[0].startswith(f"commit {fix}\nAuthor: Mapped Name <mapped@example.test>\n")
        assert "\n    fix café\n" in shows[0] and "@@ -13,7 +13,7 @@" in shows[0]
        # The whole observation too: the hostile repository's equals the clean clone's.
        observations = []
        for rb in (clean, hostile):
            assert main(["tool", "git_show", "--repo", rb.path, "--fix", fix,
                         "--args", f'{{"commit": "{fix}"}}']) == 0
            observations.append(capsys.readouterr().out)
        assert observations[0] == observations[1]
