"""Cache, trailer stripping, per-tool formatting and extraction bounds."""

import random
import re
import tracemalloc
from concurrent.futures import Future
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repo_helpers import RepoBuilder, parent_context

from bictrace import agent, caseprep, cli, compress, gitio, tools
from bictrace.caseprep import CaseSpec, load_fix_context, strip_trailers
from bictrace.compress import (
    MAX_OBS_OVERHEAD,
    TIMEOUT_HINT,
    canonicalize_args,
    compress_formatted,
    execute_compressed,
    extract_grep,
    extract_log,
    extract_show,
    format_blame,
    format_show,
    split_lines,
)
from bictrace.gitio import RepoHandle
from bictrace.tools import (
    BlameArgs,
    GrepArgs,
    LogSArgs,
    ShowArgs,
    ToolName,
    enforce_search_bound,
)

HEX = "0123456789abcdef"


def random_hash(rng, length=40):
    return "".join(rng.choice(HEX) for _ in range(length))


class TestConfig:
    def test_paper_constants_by_default(self):
        assert compress.TAU == 3000
        assert compress.LINE_CAPS[ToolName.GREP] == 100
        assert compress.LINE_CAPS[ToolName.LOG_FUNC] == 300


class TestCanonicalize:
    def test_default_elision(self):
        a = canonicalize_args(ShowArgs(commit="abc", stat_only=False))
        b = canonicalize_args(ShowArgs(commit="abc"))
        assert a == b

    def test_distinct_ranges_distinct_keys(self):
        a = canonicalize_args(BlameArgs(file_path="a.c", line_start=1, line_end=2))
        b = canonicalize_args(BlameArgs(file_path="a.c", line_start=1, line_end=3))
        assert a != b

    def test_field_order_irrelevant(self):
        a = canonicalize_args(BlameArgs(line_end=9, file_path="a.c", line_start=1))
        b = canonicalize_args(BlameArgs(file_path="a.c", line_start=1, line_end=9))
        assert a == b

    def test_equivalent_dates_collide(self):
        a = canonicalize_args(LogSArgs(search_string="x", before="2020-01-05"))
        b = canonicalize_args(LogSArgs(search_string="x", before="2020-01-05T23:59:59+00:00"))
        assert a == b


class TestStripTrailers:
    def test_signed_off_removed(self):
        msg = "fix the thing\n\nSigned-off-by: A Dev <a@x>\n"
        assert "Signed-off-by" not in strip_trailers(msg)

    def test_no_trailers_identity(self):
        msg = "plain subject\n\nbody text here\n"
        assert strip_trailers(msg) == msg

    def test_mid_sentence_mention_preserved(self):
        msg = "subject\n\nper the Reviewed-by discussion we keep this\n"
        assert strip_trailers(msg) == msg

    def test_diff_context_line_untouched(self):
        # Exactly one leading space marks a diff context line.
        msg = " Signed-off-by: inside a diff context line\n"
        assert strip_trailers(msg) == msg

    def test_indented_trailer_removed(self):
        msg = "    Signed-off-by: A Dev <a@x>\n    real message line\n"
        out = strip_trailers(msg)
        assert "Signed-off-by" not in out
        assert "real message line" in out

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
                max_size=60,
            ),
            max_size=20,
        )
    )
    def test_non_trailer_lines_survive_in_order(self, lines):
        trailer_re = caseprep._TRAILER_RE
        message = "\n".join(lines)
        kept = strip_trailers(message).split("\n")
        expected = [ln for ln in message.split("\n") if not trailer_re.match(ln)]
        assert kept == expected or (expected == [] and kept == [""])


def make_porcelain(records):
    """Minimal --line-porcelain text for (sha, line_no, content) triples."""
    chunks = []
    for sha, line_no, content in records:
        chunks.append(
            f"{sha} {line_no} {line_no} 1\n"
            "author Fixture Author\n"
            "author-mail <fixture@example.test>\n"
            "author-time 1577836800\n"
            "author-tz +0000\n"
            "committer Fixture Committer\n"
            "committer-mail <fixture@example.test>\n"
            "committer-time 1577923200\n"
            "committer-tz +0000\n"
            f"summary subject for {sha[:8]}\n"
            f"filename f.c\n"
            f"\t{content}\n"
        )
    return "".join(chunks)


def make_short_porcelain(records):
    """--porcelain text: each commit's header only on its first record."""
    long = make_porcelain(records).splitlines(keepends=True)
    chunks, seen = [], set()
    for k, (sha, _, _) in enumerate(records):
        block = long[k * 12 : (k + 1) * 12]
        chunks += block if sha not in seen else [block[0], block[-1]]
        seen.add(sha)
    return "".join(chunks)


class TestFormatBlame:
    def test_l_lines_and_legend(self):
        rng = random.Random(7)
        sha_a, sha_b = random_hash(rng), random_hash(rng)
        raw = make_porcelain([(sha_a, 1, "one"), (sha_b, 2, "two"), (sha_a, 3, "three")])
        text, truncated, _ = format_blame(raw)
        lines = text.splitlines()
        assert lines[0] == f"L1: {sha_a[:12]} | one"
        assert lines[1] == f"L2: {sha_b[:12]} | two"
        assert lines[2] == f"L3: {sha_a[:12]} | three"
        assert "Commits:" in lines
        legend = lines[lines.index("Commits:") + 1 :]
        assert len(legend) == 2
        assert legend[0].startswith(sha_a[:12])
        assert "2020-01-02" in legend[0]
        assert not truncated

    def test_empty_input(self):
        text, truncated, _ = format_blame("")
        assert text == "" and not truncated

    def test_cap_and_notice(self):
        rng = random.Random(8)
        sha = random_hash(rng)
        raw = make_porcelain([(sha, i, f"line {i}") for i in range(1, 501)])
        text, truncated, _ = format_blame(raw)
        l_lines = [ln for ln in text.splitlines() if ln.startswith("L")]
        assert truncated
        assert len(l_lines) == compress.LINE_CAPS[ToolName.BLAME]
        assert any(ln.startswith("[output truncated") for ln in text.splitlines())

    def test_short_porcelain_header_once(self):
        rng = random.Random(12)
        sha_a, sha_b = random_hash(rng), random_hash(rng)
        records = [(sha_a, 1, "first")] + [(sha_b, i, f"line {i}") for i in range(2, 251)]
        raw = make_short_porcelain(records)
        assert raw.count(f"summary subject for {sha_b[:8]}") == 1
        text, truncated, _ = format_blame(raw)
        lines = text.splitlines()
        legend = lines[lines.index("Commits:") + 1 :]
        assert legend == [
            f"{sha_a[:12]} 2020-01-02 subject for {sha_a[:8]}",
            f"{sha_b[:12]} 2020-01-02 subject for {sha_b[:8]}",
        ]
        assert truncated
        assert "showing 200 of 250 lines" in text
        assert (text, truncated) == format_blame(make_porcelain(records))[:2]

    def test_malformed_record_past_cap_rejected(self):
        rng = random.Random(13)
        sha = random_hash(rng)
        raw = make_short_porcelain([(sha, i, f"l{i}") for i in range(1, 301)])
        with pytest.raises(tools.MalformedPorcelain):
            format_blame(raw + "not a porcelain header\n\tcontent\n")
        with pytest.raises(tools.MalformedPorcelain, match="missing content line"):
            format_blame(raw + f"{sha} 301 301\n")

    def test_malformed_porcelain(self):
        with pytest.raises(tools.MalformedPorcelain):
            format_blame("this is not porcelain\n")


# The formatter before it stopped building records past the cap: parse every
# record, then render the first `cap`. Kept verbatim as the reference.
_REF_HEAD_RE = re.compile(r"^([0-9a-f]{40}) (\d+) (\d+)(?: (\d+))?$")


def reference_parse(raw):
    records, commit_info = [], {}
    lines = iter(raw.split("\n")[:-1])
    for head in lines:
        m = _REF_HEAD_RE.match(head)
        if not m:
            raise tools.MalformedPorcelain(f"unexpected porcelain line: {head!r}")
        commit = m.group(1)
        info = commit_info.setdefault(commit, {})
        for line in lines:
            if line[:1] == "\t":
                break
            key, _, value = line.partition(" ")
            if key in ("summary", "committer-time"):
                info[key] = value
        else:
            raise tools.MalformedPorcelain("porcelain record missing content line")
        records.append(
            {"commit": commit, "final_line": int(m.group(3)), **info, "content": line[1:]}
        )
    return records


def reference_format_blame(raw, cap):
    if not raw.strip():
        return "", False
    records = reference_parse(raw)
    shown = records[:cap]
    body = [f"L{rec['final_line']}: {rec['commit'][:12]} | {rec['content']}" for rec in shown]
    truncated = len(records) > cap
    if truncated:
        body.append(compress._truncation_notice(cap, len(records)))
    legend, seen = [], set()
    for rec in shown:
        short = rec["commit"][:12]
        if short not in seen:
            seen.add(short)
            when = datetime.fromtimestamp(
                int(rec.get("committer-time", "0")), tz=timezone.utc
            ).strftime("%Y-%m-%d")
            legend.append(f"{short} {when} {rec.get('summary', '')}".rstrip())
    text = "\n".join(body)
    if legend:
        text += "\nCommits:\n" + "\n".join(legend)
    return text, truncated


# Layer 3 before it read what layer 2 parsed: it parsed layer 2's text back.
_REF_L_LINE_RE = re.compile(r"^L\d+: ([0-9a-f]{6,40}) \| ")
_REF_LEGEND_RE = re.compile(r"^([0-9a-f]{6,40}) (\d{4}-\d{2}-\d{2})(?: (.*))?$")


def reference_extract_blame(formatted):
    l_lines, legend = [], {}
    for ln in split_lines(formatted):
        if _REF_L_LINE_RE.match(ln):
            l_lines.append(ln)
        else:
            m = _REF_LEGEND_RE.match(ln)
            if m:
                legend[m.group(1)] = (m.group(2), m.group(3) or "")
    counts = {}
    for ln in l_lines:
        short = _REF_L_LINE_RE.match(ln).group(1)
        counts[short] = counts.get(short, 0) + 1
    summary = [f"Commits in blame ({len(counts)} distinct):"]
    for short, n in counts.items():
        when, subject = legend.get(short, ("", ""))
        summary.append(f"  {short} ({n} lines) {when} {subject}".rstrip())
    body, elided = compress._head_tail(l_lines, compress.BLAME_KEEP)
    return "\n".join(summary + body), elided


# Content characters include tabs, form feeds, carriage returns and the other
# characters str.splitlines() breaks at; none of them ends a porcelain line.
_CONTENT_CHARS = "ab \t\x0c\r\x0b\x1c\x85 é-"


def random_text(rng, longest=8):
    return "".join(rng.choice(_CONTENT_CHARS) for _ in range(rng.randint(0, longest)))


def random_porcelain(rng, n_records, line_porcelain):
    """Valid blame porcelain: `n_records` records over a few recurring commits.

    Final line numbers jump like the output of several `-L` ranges, and
    header blocks may hold empty lines.
    """
    commits = [random_hash(rng) for _ in range(rng.randint(1, 4))]
    seen, chunks, final = set(), [], 0
    for _ in range(n_records):
        sha = rng.choice(commits)
        final += rng.choice((1, 1, 1, 2, 7))
        group = f" {rng.randint(1, 3)}" if rng.random() < 0.5 else ""
        chunks.append(f"{sha} {rng.randint(1, 99)} {final}{group}\n")
        if line_porcelain or sha not in seen:
            headers = [
                f"author {random_text(rng)}",
                f"committer-time {rng.randint(0, 2_000_000_000)}",
                f"summary {random_text(rng)}" if rng.random() < 0.8 else "summary",
                f"previous {random_hash(rng)} f.c",
                "",
                "boundary",
            ]
            rng.shuffle(headers)
            chunks += [h + "\n" for h in headers] + ["filename f.c\n"]
        elif rng.random() < 0.3:
            chunks.append("filename f.c\n")
        seen.add(sha)
        chunks.append(f"\t{random_text(rng)}\n")
    return "".join(chunks)


def outcome(fn, *args):
    try:
        return fn(*args)
    except tools.MalformedPorcelain as exc:
        return ("MalformedPorcelain", str(exc))


class TestFormatBlameMatchesFullParse:
    """The formatter builds only the records it shows, with the old output.

    Its extraction gives what layer 3 gave when it parsed the text back.
    """

    def check(self, raw, cap):
        expected = outcome(reference_format_blame, raw, cap)
        with mock.patch.dict(compress.LINE_CAPS, {ToolName.BLAME: cap}):
            got = outcome(format_blame, raw)
        assert got[:2] == expected
        if callable(got[-1]):  # plus the count of all lines, which the text's re-parse lost
            ref_text, ref_elided = reference_extract_blame(got[0])
            total = len(reference_parse(raw))
            of_total = f", in the first {cap} of {total} lines" if total > cap else ""
            ref_text = ref_text.replace(" distinct):", f" distinct{of_total}):", 1)
            assert got[2]() == (ref_text, ref_elided)
        assert outcome(lambda r: tools.blame_records(r)[0], raw) == outcome(reference_parse, raw)
        return expected

    def test_valid_porcelain(self):
        rng = random.Random(2024)
        truncated = recurring = 0
        for _ in range(400):
            cap = rng.randint(1, 12)
            raw = random_porcelain(rng, rng.randint(0, 30), rng.random() < 0.3)
            text, was_truncated = self.check(raw, cap)
            records = reference_parse(raw)
            truncated += was_truncated
            shown = {rec["commit"] for rec in records[:cap]}
            recurring += any(rec["commit"] in shown for rec in records[cap:])
        assert truncated > 100 and recurring > 100

    def test_malformed_before_at_and_past_the_cap(self):
        rng = random.Random(2025)
        cap = 10
        faults = {
            "unexpected porcelain line: 'not a porcelain header'": "not a porcelain header\n",
            "unexpected porcelain line: '\\tstray content'": "\tstray content\n",
            "unexpected porcelain line: ''": "\n",
            f"unexpected porcelain line: '{'0' * 40} x 3'": f"{'0' * 40} x 3\n",
        }
        for at in (0, cap - 1, cap, cap + 5):
            for message, fault in faults.items():
                raw = random_porcelain(rng, cap + 10, rng.random() < 0.5)
                starts = [m.start() for m in re.finditer(r"^[0-9a-f]{40} ", raw, re.M)]
                broken = raw[: starts[at]] + fault + raw[starts[at] :]
                assert self.check(broken, cap) == ("MalformedPorcelain", message)
            # A last record with no content line.
            raw = random_porcelain(rng, at, rng.random() < 0.5) + f"{'1' * 40} 1 1\nauthor x\n"
            expected = ("MalformedPorcelain", "porcelain record missing content line")
            assert self.check(raw, cap) == expected

    def test_cut_anywhere(self):
        rng = random.Random(2026)
        for _ in range(300):
            cap = rng.randint(1, 8)
            raw = random_porcelain(rng, rng.randint(1, 16), rng.random() < 0.5)
            self.check(raw[: rng.randint(0, len(raw))], cap)

    def test_memory_does_not_grow_with_the_records_past_the_cap(self):
        rng = random.Random(2027)
        sha = [random_hash(rng) for _ in range(50)]
        records = [(sha[i % 50], i, f"    line {i} of a long file;") for i in range(1, 20_001)]
        raw = make_short_porcelain(records)
        tracemalloc.start()
        try:
            format_blame(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestSplitLines:
    @pytest.mark.parametrize("text, lines", [
        ("", []),
        ("a\n", ["a"]),
        ("a\n\n", ["a", ""]),
        ("a\nb", ["a", "b"]),
        ("b\x0cc\ne\rf\x85g\u2028h\x0bi\x1cj\n", ["b\x0cc", "e\rf\x85g\u2028h\x0bi\x1cj"]),
    ])
    def test_cut_at_newline_only(self, text, lines):
        assert split_lines(text) == lines

    @given(st.text(alphabet="ab \n", max_size=40))
    def test_same_as_splitlines_without_other_line_boundaries(self, text):
        assert split_lines(text) == text.splitlines()


class TestExtractShow:
    def test_control_characters_stay_inside_their_line(self):
        formatted = (
            "commit 1111222233334444555566667777888899990000\n\n    subject\n"
            "diff --git a/f.c b/f.c\n@@ -1,42 +1,40 @@\n-b\x0cc\n-e\rf\n"
            + "".join(f" context line {i}\n" for i in range(40))
        )
        assert len(formatted) > 200
        text, _ = compress_formatted(*format_show(formatted), 200)
        assert text.split("\n")[-2:] == ["-b\x0cc", "-e\rf"]

    def test_context_stripped_changes_kept(self):
        diff = (
            "commit 1111222233334444555566667777888899990000\n"
            "Author: someone\n"
            "Date: 2020-01-01\n"
            "\n"
            "    subject line\n"
            "\n"
            "diff --git a/f.c b/f.c\n"
            "index 000..111 100644\n"
            "--- a/f.c\n"
            "+++ b/f.c\n"
            "@@ -1,12 +1,6 @@\n"
            + "".join(f" context line {i}\n" for i in range(10))
            + "-removed one\n-removed two\n+added one\n+added two\n"
        )
        text, _ = extract_show(split_lines(diff))
        assert "-removed one" in text and "+added two" in text
        assert "@@ -1,12 +1,6 @@" in text
        assert "context line 3" not in text
        assert "1111222233334444555566667777888899990000" in text

    def test_short_output_no_elision(self):
        text, elided = extract_show(["commit abc", "+x", "-y"])
        assert not elided and "..." not in text

    def test_head_tail_elision(self):
        body = "\n".join(f"+line {i}" for i in range(200))  # 80 kept at each end
        text, elided = extract_show(split_lines(body))
        assert elided
        assert "[40 lines elided]" in text


class TestExtractBlame:
    def test_single_commit_summary(self):
        rng = random.Random(9)
        sha = random_hash(rng)
        raw = make_porcelain([(sha, i, f"l{i}") for i in range(1, 401)])
        with mock.patch.dict(compress.LINE_CAPS, {ToolName.BLAME: 500}):
            formatted, _, extract = format_blame(raw)
        text, _ = extract()
        head = text.splitlines()[0]
        assert "1 distinct" in head
        assert f"{sha[:12]} (400 lines)" in text

    def test_summary_reflects_layer2_cap(self):
        rng = random.Random(9)
        sha = random_hash(rng)
        raw = make_porcelain([(sha, i, f"l{i}") for i in range(1, 401)])
        formatted, _, extract = format_blame(raw)
        text, _ = extract()
        assert f"{sha[:12]} (200 lines)" in text  # layer-2 cap kept 200

    def test_all_hashes_survive_in_summary(self):
        rng = random.Random(10)
        shas = [random_hash(rng) for _ in range(8)]
        # 60 lines are kept at each end; shas[2:] blame only elided lines.
        owners = [0] * 60 + [2 + i % 6 for i in range(80)] + [1] * 60
        records = [(shas[k], i + 1, f"line {i}") for i, k in enumerate(owners)]
        formatted, _, extract = format_blame(make_porcelain(records))
        text, elided = extract()
        assert elided
        for sha in shas:
            assert sha[:12] in text

    def test_summary_gives_the_length_of_a_whole_file(self):
        sha = random_hash(random.Random(14))
        raw = make_short_porcelain([(sha, i, f"line {i}") for i in range(1, 5001)])
        text, truncated = compress_formatted(*compress._FORMATTERS[ToolName.BLAME](raw),
                                             compress.TAU)
        assert truncated and text.splitlines()[0] == (
            "Commits in blame (1 distinct, in the first 200 of 5000 lines):")

    def test_output_shrinks(self):
        rng = random.Random(11)
        sha = random_hash(rng)
        raw = make_porcelain([(sha, i, "x" * 30) for i in range(1, 301)])
        formatted, _, extract = format_blame(raw)
        text, _ = extract()
        assert len(text) < len(formatted)


class TestExtractLogAndGrep:
    def test_log_entry_cap_with_omitted_note(self):
        formatted = "\n".join(f"{i:07x} 2020-01-01 subject {i}" for i in range(100))
        text, truncated = extract_log(split_lines(formatted))
        entry_lines = [ln for ln in text.splitlines() if not ln.startswith("[output truncated")]
        assert truncated and len(entry_lines) == 30
        assert "70 omitted" in text

    def test_log_block_entries(self):
        blocks = []
        for i in range(35):
            blocks.append(f"commit {i:040x}\n    message {i}\n+change {i}")
        text, truncated = extract_log(split_lines("\n".join(blocks)))
        assert truncated
        assert text.count("commit ") == 30
        assert "5 omitted" in text

    def test_log_under_cap_identity(self):
        formatted = "\n".join(f"{i:07x} 2020-01-01 s" for i in range(5))
        text, truncated = extract_log(split_lines(formatted))
        assert text == formatted and not truncated

    def test_grep_grouping(self):
        lines = [f"abc1234:src/one.c:{i}: hit {i}" for i in range(1, 4)]
        lines += [f"abc1234:src/two.c:{i}: hit {i}" for i in range(1, 3)]
        text, truncated = extract_grep(lines)
        headers = [ln for ln in text.splitlines() if ln.startswith("== ")]
        assert len(headers) == 2
        assert "src/one.c (3 matches)" in headers[0]
        assert not truncated

    def test_log_counts_every_entry_git_printed(self):
        raw = "".join(f"{i:07x} 2020-01-01 subject {i}\n" for i in range(200))
        text, truncated = compress_formatted(*compress._FORMATTERS[ToolName.LOG_S](raw),
                                             compress.TAU)
        assert truncated and text.count(" 2020-01-01 subject ") == 30
        assert "showing first 30 entries, 170 omitted" in text

    def test_grep_counts_every_match_git_printed(self):
        raw = "".join(f"abc1234:src/one.c:{i}: int needle = {i};\n" for i in range(1, 501))
        text, truncated = compress_formatted(*compress._FORMATTERS[ToolName.GREP](raw),
                                             compress.TAU)
        assert truncated and text.count(": int needle = ") == 50
        assert "== src/one.c (500 matches)" in text and "first 50 of 500 matches" in text

    def test_grep_cap(self):
        lines = [f"abc1234:f{i % 2}.c:{i}: m" for i in range(1, 61)]
        text, truncated = extract_grep(lines)
        assert truncated
        kept = [ln for ln in text.splitlines() if not ln.startswith(("==", "[output"))]
        assert len(kept) == 50


def started(call) -> Future:
    """A finished Future of `call`, as a look-ahead thread leaves it."""
    future = Future()
    try:
        future.set_result(call())
    except Exception as exc:
        future.set_exception(exc)
    return future


@pytest.fixture
def pipeline_repo(tmp_path):
    rb = RepoBuilder(tmp_path / "pipeline")
    c1 = rb.commit({"f.c": "int f(void) {\n  return 1;\n}\n"}, "add f")
    c2 = rb.commit({"f.c": "int f(void) {\n  return 2;\n}\n"}, "change f")
    return RepoHandle(rb.path), [c1, c2], rb


class TestExecuteCompressed:
    def test_cache_hit_spawns_no_process(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        cache = {}
        args = BlameArgs(file_path="f.c")
        fc = parent_context(shas[1])
        first = execute_compressed(repo, args, fc, cache)
        count_after_first = repo.process_count
        second = execute_compressed(repo, args, fc, cache)
        assert repo.process_count == count_after_first
        assert not first.cache_hit and second.cache_hit
        assert first.text == second.text

    def test_cache_hit_runs_no_formatter(self, pipeline_repo, monkeypatch):
        repo, shas, _ = pipeline_repo
        calls = []
        for tool, formatter in list(compress._FORMATTERS.items()):
            def counting(raw, tool=tool, formatter=formatter):
                calls.append(tool)
                return formatter(raw)
            monkeypatch.setitem(compress._FORMATTERS, tool, counting)
        cache = {}
        for tool, args in (
            (ToolName.BLAME, BlameArgs(file_path="f.c")),
            (ToolName.SHOW, ShowArgs(commit=shas[0])),
            (ToolName.GREP, GrepArgs(search_string="return")),
        ):
            first = execute_compressed(repo, args, parent_context(shas[1]), cache)
            assert calls == [tool]
            second = execute_compressed(repo, args, parent_context(shas[1]), cache)
            assert calls == [tool]
            assert second.cache_hit and not first.cache_hit
            assert (second.text, second.truncated) == (first.text, first.truncated)
            calls.clear()

    def test_malformed_output_cached(self, pipeline_repo, monkeypatch):
        repo, shas, _ = pipeline_repo
        runs = []
        monkeypatch.setattr(
            tools, "execute_raw", lambda *a: runs.append(a) or "not porcelain\n"
        )
        cache, args = {}, BlameArgs(file_path="f.c")
        first = execute_compressed(repo, args, parent_context(shas[1]), cache)
        second = execute_compressed(repo, args, parent_context(shas[1]), cache)
        assert first.text.startswith("Error (malformed_output)")
        assert second.text == first.text
        assert not first.cache_hit and second.cache_hit
        assert len(runs) == 1

    def test_blame_of_a_line_with_a_lone_carriage_return(self, tmp_path):
        rb = RepoBuilder(tmp_path / "carriage")
        sha = rb.commit({"f.c": "a\nb\rx\nc\n"}, "seed")
        obs = execute_compressed(
            RepoHandle(rb.path), BlameArgs(file_path="f.c"), parent_context(sha), {},
        )
        assert "malformed_output" not in obs.text
        assert obs.text.split("\n")[:3] == [
            f"L1: {sha[:12]} | a", f"L2: {sha[:12]} | b\rx", f"L3: {sha[:12]} | c",
        ]

    def test_timeout_hint_and_no_caching(self, slow_repo, monkeypatch):
        head = slow_repo.head()
        repo = RepoHandle(slow_repo.path)
        cache = {}
        with monkeypatch.context() as m:
            m.setattr(gitio, "DEFAULT_TIMEOUT", 0.001)
            obs = execute_compressed(
                repo, LogSArgs(search_string="f"), parent_context(head), cache,
            )
        assert "Retry with narrower parameters" in obs.text
        assert len(cache) == 0
        # A later call with a sane timeout executes fresh and caches.
        obs2 = execute_compressed(
            repo, LogSArgs(search_string="f"), parent_context(head), cache,
        )
        assert not obs2.cache_hit and len(cache) == 1

    def test_generic_notice_when_extraction_drops_the_cap_notice(self, tmp_path):
        # Layer 2 caps the 300 added lines, and extraction brings the text under tau
        # without the cap's notice, so the generic notice says the output is cut.
        rb = RepoBuilder(tmp_path / "long-diff")
        rb.commit({"f.c": "seed\n"}, "seed")
        sha = rb.commit({"f.c": "seed\n" + "".join(f"line number {i:03d}\n" for i in range(300))},
                        "add")
        obs = execute_compressed(RepoHandle(rb.path), ShowArgs(commit=sha), parent_context(sha),
                                 {})
        assert obs.truncated and len(obs.text) <= compress.TAU
        assert obs.text.endswith("\n" + compress._GENERIC_NOTICE)

    def test_show_keeps_the_blank_line_before_the_diff(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        obs = execute_compressed(repo, ShowArgs(commit=shas[0]), parent_context(shas[1]), {})
        lines = obs.text.split("\n")
        at = lines.index("    add f")
        assert lines[at:at + 3] == ["    add f", "", "diff --git a/f.c b/f.c"]

    def test_small_output_unchanged_by_layer3(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        obs = execute_compressed(
            repo, ShowArgs(commit=shas[0]), parent_context(shas[1]), {},
        )
        from bictrace.tools import exec_git_show

        formatted, _, _ = format_show(exec_git_show(repo, ShowArgs(commit=shas[0])))
        assert len(formatted) <= 3000
        assert obs.text == formatted
        assert not obs.truncated

    def test_error_becomes_observation(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        cache = {}
        for _ in range(2):
            obs = execute_compressed(
                repo, ShowArgs(commit="deadbeef" * 5), parent_context(shas[1]),
                cache,
            )
            assert obs.text.startswith("Error (commit_not_found)")
            assert not obs.cache_hit
        assert len(cache) == 0

    def test_a_git_error_of_no_known_kind_is_shown_with_its_stderr(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        args = BlameArgs(file_path="f.c", line_start=9)  # f.c has 3 lines
        obs = execute_compressed(repo, args, parent_context(shas[1]), {})
        assert obs.text == (
            f"Error (line_out_of_range): git_blame f.c@{shas[1]}: fatal: file f.c has only 3 lines"
        )

    def test_a_started_call_is_formatted_here_then_a_hit(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        args, fc = BlameArgs(file_path="f.c"), parent_context(shas[1])
        fresh = execute_compressed(repo, args, fc, {})
        key = canonicalize_args(args)
        cache = {key: started(lambda: tools.execute_raw(repo, args, fc))}
        count = repo.process_count
        first = execute_compressed(repo, args, fc, cache)
        assert (first.text, first.truncated, first.cache_hit) == (fresh.text, fresh.truncated, False)
        assert cache == {key: (first.text, first.truncated)}
        second = execute_compressed(repo, args, fc, cache)
        assert second.cache_hit and (second.text, second.truncated) == (first.text, first.truncated)
        assert repo.process_count == count

    @pytest.mark.parametrize("times_out", [False, True])
    def test_a_started_call_that_failed_keeps_no_entry(self, pipeline_repo, time_out_git,
                                                       times_out):
        repo, shas, _ = pipeline_repo
        fc = parent_context(shas[1])
        if times_out:
            args = LogSArgs(search_string="return")
            time_out_git(lambda argv: argv[0] == "log")
        else:
            args = ShowArgs(commit="deadbeef" * 5)
        fresh = execute_compressed(repo, args, fc, {})
        key = canonicalize_args(args)
        cache = {key: started(lambda: tools.execute_raw(repo, args, fc))}
        count = repo.process_count
        obs = execute_compressed(repo, args, fc, cache)
        assert (obs.text, obs.truncated, obs.cache_hit) == (fresh.text, False, False)
        assert obs.text.startswith(TIMEOUT_HINT if times_out else "Error (commit_not_found)")
        assert repo.process_count == count and cache == {}
        # The repeat executes fresh: one more git process.
        execute_compressed(repo, args, fc, cache)
        assert repo.process_count == count + 1

    def test_search_bound_applied_once_per_call_at_the_entry_points(
        self, tmp_path, monkeypatch, capsys
    ):
        rb = RepoBuilder(tmp_path / "later")
        rb.commit({"f.txt": "early\n"}, "seed")
        # An ancestor of the fix whose committer date is later than the fix's.
        rb.commit({"f.txt": "early\nLATER\n"}, "add LATER dated after the fix",
                  date=rb.next_date() + 2 * 86400)
        fix = rb.commit({"f.txt": "fixed\nLATER\n"}, "fix")
        repo = RepoHandle(rb.path)
        fc = load_fix_context(repo, fix)
        # The pipeline runs the arguments it is given ...
        unbounded = execute_compressed(repo, LogSArgs(search_string="LATER"), fc, {})
        assert "after the fix" in unbounded.text

        bounds = []

        def counting(args, fix_date):
            bounds.append(fix_date)
            return enforce_search_bound(args, fix_date)

        for module in (tools, agent, cli):
            monkeypatch.setattr(module, "enforce_search_bound", counting)
        # ... so the tool command and the agent loop bound each call, once.
        assert cli.main(["tool", "git_log_s", "--repo", rb.path, "--fix", fix,
                         "--args", '{"search_string": "LATER"}']) == 0
        assert "after the fix" not in capsys.readouterr().out
        backend = agent.ScriptedBackend([agent.tool_step(ToolName.LOG_S, search_string="LATER")])
        _, transcript = agent.run_investigation(CaseSpec(rb.path, fix), repo, fc, backend)
        turn = transcript.turns[0]
        assert turn["step"].args == {"search_string": "LATER", "before": f"@{fc.fix_date}"}
        assert "after the fix" not in turn["observation"].text
        assert bounds == [fc.fix_date, fc.fix_date]


def synth_raw(tool: ToolName, rng: random.Random) -> str:
    """Randomized oversized raw output in each tool's shape."""
    n = rng.randint(120, 600)
    if tool is ToolName.BLAME:
        shas = [random_hash(rng) for _ in range(rng.randint(1, 9))]
        return make_porcelain(
            [(rng.choice(shas), i + 1, "x" * rng.randint(0, 120)) for i in range(n)]
        )
    if tool is ToolName.SHOW:
        lines = [f"commit {random_hash(rng)}", "Author: someone", "", "    subject"]
        lines.append("diff --git a/f.c b/f.c")
        lines.append("@@ -1,5 +1,5 @@")
        for i in range(n):
            lines.append(rng.choice([" ", "+", "-"]) + "code " * rng.randint(1, 30) + str(i))
        return "\n".join(lines)
    if tool is ToolName.LOG_S:
        return "\n".join(
            f"{random_hash(rng)[:7]} 2020-01-01 subject {'y' * rng.randint(0, 90)}"
            for _ in range(n)
        )
    if tool is ToolName.LOG_FUNC:
        blocks = []
        for _ in range(max(2, n // 12)):
            blocks.append(
                f"commit {random_hash(rng)}\nAuthor: a\nDate: d\n\n    msg\n\n"
                "diff --git a/f.c b/f.c\n@@ -1 +1 @@\n-old\n+new"
            )
        return "\n".join(blocks)
    return "\n".join(
        f"{random_hash(rng)[:7]}:src/file{rng.randint(0, 6)}.c:{i + 1}: "
        + "match " * rng.randint(1, 25)
        for i in range(n)
    )


HEX_TOKEN_RE = re.compile(r"\b[0-9a-f]{7,40}\b")


class TestSizeBoundProperty:
    @pytest.mark.parametrize("tool", list(ToolName))
    def test_randomized_outputs_bounded_and_faithful(self, tool):
        rng = random.Random(hash(tool.value) & 0xFFFF)
        for trial in range(200):
            raw = synth_raw(tool, rng)
            text, truncated = compress.compress_formatted(*compress._FORMATTERS[tool](raw), compress.TAU)
            assert len(text) <= compress.TAU + MAX_OBS_OVERHEAD, (tool, trial)
            raw_tokens = set(HEX_TOKEN_RE.findall(raw))
            for token in HEX_TOKEN_RE.findall(text):
                assert any(rt.startswith(token) for rt in raw_tokens), (tool, trial, token)
            if truncated:
                assert text.splitlines()[-1].startswith("[output truncated")
