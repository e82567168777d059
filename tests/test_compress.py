"""Cache, trailer stripping, per-tool formatting and extraction bounds."""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repo_helpers import RepoBuilder

from bictrace import compress
from bictrace.compress import (
    CompressionConfig,
    MAX_OBS_OVERHEAD,
    TIMEOUT_HINT,
    canonicalize_args,
    execute_compressed,
    extract_blame,
    extract_grep,
    extract_log,
    extract_show,
    format_blame,
    strip_trailers,
)
from bictrace.gitio import RepoHandle
from bictrace.tools import (
    BlameArgs,
    GrepArgs,
    LogSArgs,
    ShowArgs,
    ToolName,
)

HEX = "0123456789abcdef"


def random_hash(rng, length=40):
    return "".join(rng.choice(HEX) for _ in range(length))


class TestConfig:
    def test_paper_constants_by_default(self):
        cfg = CompressionConfig()
        assert cfg.tau == 3000
        assert cfg.line_caps[ToolName.GREP] == 100
        assert cfg.line_caps[ToolName.LOG_FUNC] == 300

    def test_overrides(self):
        cfg = CompressionConfig.from_dict({"tau": 500, "line_caps": {"git_grep": 10}})
        assert cfg.tau == 500
        assert cfg.line_caps[ToolName.GREP] == 10
        assert cfg.line_caps[ToolName.SHOW] == 200

    def test_round_trip(self):
        cfg = CompressionConfig()
        assert CompressionConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


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
        trailer_re = compress._TRAILER_RE
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
        text, truncated = format_blame(raw, CompressionConfig())
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
        text, truncated = format_blame("", CompressionConfig())
        assert text == "" and not truncated

    def test_cap_and_notice(self):
        rng = random.Random(8)
        sha = random_hash(rng)
        raw = make_porcelain([(sha, i, f"line {i}") for i in range(1, 501)])
        cfg = CompressionConfig()
        text, truncated = format_blame(raw, cfg)
        l_lines = [ln for ln in text.splitlines() if ln.startswith("L")]
        assert truncated
        assert len(l_lines) == cfg.line_caps[ToolName.BLAME]
        assert any(ln.startswith("[output truncated") for ln in text.splitlines())

    def test_short_porcelain_header_once(self):
        rng = random.Random(12)
        sha_a, sha_b = random_hash(rng), random_hash(rng)
        records = [(sha_a, 1, "first")] + [(sha_b, i, f"line {i}") for i in range(2, 251)]
        raw = make_short_porcelain(records)
        assert raw.count(f"summary subject for {sha_b[:8]}") == 1
        text, truncated = format_blame(raw, CompressionConfig())
        lines = text.splitlines()
        legend = lines[lines.index("Commits:") + 1 :]
        assert legend == [
            f"{sha_a[:12]} 2020-01-02 subject for {sha_a[:8]}",
            f"{sha_b[:12]} 2020-01-02 subject for {sha_b[:8]}",
        ]
        assert truncated
        assert "showing 200 of 250 lines" in text
        assert (text, truncated) == format_blame(make_porcelain(records), CompressionConfig())

    def test_malformed_record_past_cap_rejected(self):
        rng = random.Random(13)
        sha = random_hash(rng)
        raw = make_short_porcelain([(sha, i, f"l{i}") for i in range(1, 301)])
        with pytest.raises(compress.MalformedPorcelain):
            format_blame(raw + "not a porcelain header\n\tcontent\n", CompressionConfig())
        with pytest.raises(compress.MalformedPorcelain, match="missing content line"):
            format_blame(raw + f"{sha} 301 301\n", CompressionConfig())

    def test_malformed_porcelain(self):
        with pytest.raises(compress.MalformedPorcelain):
            format_blame("this is not porcelain\n", CompressionConfig())


class TestExtractShow:
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
        text, _ = extract_show(diff, CompressionConfig())
        assert "-removed one" in text and "+added two" in text
        assert "@@ -1,12 +1,6 @@" in text
        assert "context line 3" not in text
        assert "1111222233334444555566667777888899990000" in text

    def test_short_output_no_elision(self):
        text, elided = extract_show("commit abc\n+x\n-y\n", CompressionConfig())
        assert not elided and "..." not in text

    def test_head_tail_elision(self):
        cfg = CompressionConfig(k1_head=5, k1_tail=5)
        body = "\n".join(f"+line {i}" for i in range(50))
        text, elided = extract_show(body, cfg)
        assert elided
        assert "[40 lines elided]" in text


class TestExtractBlame:
    def test_single_commit_summary(self):
        rng = random.Random(9)
        sha = random_hash(rng)
        raw = make_porcelain([(sha, i, f"l{i}") for i in range(1, 401)])
        cfg = CompressionConfig.from_dict({"line_caps": {"git_blame": 500}})
        formatted, _ = format_blame(raw, cfg)
        text, _ = extract_blame(formatted, cfg)
        head = text.splitlines()[0]
        assert "1 distinct" in head
        assert f"{sha[:12]} (400 lines)" in text

    def test_summary_reflects_layer2_cap(self):
        rng = random.Random(9)
        sha = random_hash(rng)
        raw = make_porcelain([(sha, i, f"l{i}") for i in range(1, 401)])
        cfg = CompressionConfig()
        formatted, _ = format_blame(raw, cfg)
        text, _ = extract_blame(formatted, cfg)
        assert f"{sha[:12]} (200 lines)" in text  # layer-2 cap kept 200

    def test_all_hashes_survive_in_summary(self):
        rng = random.Random(10)
        shas = [random_hash(rng) for _ in range(8)]
        records = [(shas[i % 8], i + 1, f"line {i}") for i in range(160)]
        cfg = CompressionConfig(k2_head=4, k2_tail=4)
        formatted, _ = format_blame(make_porcelain(records), cfg)
        text, elided = extract_blame(formatted, cfg)
        assert elided
        for sha in shas:
            assert sha[:12] in text

    def test_output_shrinks(self):
        rng = random.Random(11)
        sha = random_hash(rng)
        raw = make_porcelain([(sha, i, "x" * 30) for i in range(1, 301)])
        cfg = CompressionConfig(k2_head=10, k2_tail=10)
        formatted, _ = format_blame(raw, cfg)
        text, _ = extract_blame(formatted, cfg)
        assert len(text) < len(formatted)


class TestExtractLogAndGrep:
    def test_log_entry_cap_with_omitted_note(self):
        cfg = CompressionConfig(k3=30)
        formatted = "\n".join(f"{i:07x} 2020-01-01 subject {i}" for i in range(100))
        text, truncated = extract_log(formatted, cfg)
        entry_lines = [ln for ln in text.splitlines() if not ln.startswith("[output truncated")]
        assert truncated and len(entry_lines) == 30
        assert "70 omitted" in text

    def test_log_block_entries(self):
        cfg = CompressionConfig(k3=2)
        blocks = []
        for i in range(5):
            blocks.append(f"commit {i:040x}\n    message {i}\n+change {i}")
        text, truncated = extract_log("\n".join(blocks), cfg)
        assert truncated
        assert text.count("commit ") == 2
        assert "3 omitted" in text

    def test_log_under_cap_identity(self):
        cfg = CompressionConfig(k3=30)
        formatted = "\n".join(f"{i:07x} 2020-01-01 s" for i in range(5))
        text, truncated = extract_log(formatted, cfg)
        assert text == formatted and not truncated

    def test_grep_grouping(self):
        cfg = CompressionConfig(k4=50)
        lines = [f"abc1234:src/one.c:{i}: hit {i}" for i in range(1, 4)]
        lines += [f"abc1234:src/two.c:{i}: hit {i}" for i in range(1, 3)]
        text, truncated = extract_grep("\n".join(lines), cfg)
        headers = [ln for ln in text.splitlines() if ln.startswith("== ")]
        assert len(headers) == 2
        assert "src/one.c (3 matches)" in headers[0]
        assert not truncated

    def test_grep_cap(self):
        cfg = CompressionConfig(k4=5)
        lines = [f"abc1234:f{i % 2}.c:{i}: m" for i in range(1, 20)]
        text, truncated = extract_grep("\n".join(lines), cfg)
        assert truncated
        kept = [ln for ln in text.splitlines() if not ln.startswith(("==", "[output"))]
        assert len(kept) == 5


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
        cfg = CompressionConfig()
        args = BlameArgs(file_path="f.c")
        fix_date = 2_000_000_000
        first = execute_compressed(repo, ToolName.BLAME, args, fix_date, cache, cfg, shas[1])
        count_after_first = repo.process_count
        second = execute_compressed(repo, ToolName.BLAME, args, fix_date, cache, cfg, shas[1])
        assert repo.process_count == count_after_first
        assert not first.cache_hit and second.cache_hit
        assert first.text == second.text

    def test_cache_hit_runs_no_formatter(self, pipeline_repo, monkeypatch):
        repo, shas, _ = pipeline_repo
        calls = []
        for tool, formatter in list(compress._FORMATTERS.items()):
            def counting(raw, cfg, tool=tool, formatter=formatter):
                calls.append(tool)
                return formatter(raw, cfg)
            monkeypatch.setitem(compress._FORMATTERS, tool, counting)
        cache, cfg = {}, CompressionConfig()
        for tool, args in (
            (ToolName.BLAME, BlameArgs(file_path="f.c")),
            (ToolName.SHOW, ShowArgs(commit=shas[0])),
            (ToolName.GREP, GrepArgs(search_string="return")),
        ):
            first = execute_compressed(repo, tool, args, 2_000_000_000, cache, cfg, shas[1])
            assert calls == [tool]
            second = execute_compressed(repo, tool, args, 2_000_000_000, cache, cfg, shas[1])
            assert calls == [tool]
            assert second.cache_hit and not first.cache_hit
            assert (second.text, second.truncated) == (first.text, first.truncated)
            calls.clear()

    def test_malformed_output_cached(self, pipeline_repo, monkeypatch):
        repo, shas, _ = pipeline_repo
        runs = []
        monkeypatch.setattr(
            compress, "execute_raw", lambda *a: runs.append(a) or "not porcelain\n"
        )
        cache, args = {}, BlameArgs(file_path="f.c")
        first = execute_compressed(
            repo, ToolName.BLAME, args, 2_000_000_000, cache, CompressionConfig(), shas[1]
        )
        second = execute_compressed(
            repo, ToolName.BLAME, args, 2_000_000_000, cache, CompressionConfig(), shas[1]
        )
        assert first.text.startswith("Error (malformed_output)")
        assert second.text == first.text
        assert not first.cache_hit and second.cache_hit
        assert len(runs) == 1

    def test_timeout_hint_and_no_caching(self, slow_repo):
        head = slow_repo.head()
        slow = RepoHandle(slow_repo.path, default_timeout=0.001)
        cache = {}
        obs = execute_compressed(
            slow, ToolName.LOG_S, LogSArgs(search_string="f"), 2_000_000_000, cache,
            CompressionConfig(), head,
        )
        assert "Retry with narrower parameters" in obs.text
        assert len(cache) == 0
        # A later call with a sane timeout executes fresh and caches.
        ok = RepoHandle(slow_repo.path)
        obs2 = execute_compressed(
            ok, ToolName.LOG_S, LogSArgs(search_string="f"), 2_000_000_000, cache,
            CompressionConfig(), head,
        )
        assert not obs2.cache_hit and len(cache) == 1

    def test_small_output_unchanged_by_layer3(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        obs = execute_compressed(
            repo, ToolName.SHOW, ShowArgs(commit=shas[0]), 2_000_000_000, {},
            CompressionConfig(), shas[1],
        )
        from bictrace.tools import exec_git_show
        from bictrace.compress import format_show

        formatted, _ = format_show(exec_git_show(repo, ShowArgs(commit=shas[0])), CompressionConfig())
        assert len(formatted) <= 3000
        assert obs.text == formatted
        assert not obs.truncated

    def test_error_becomes_observation(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        cache = {}
        for _ in range(2):
            obs = execute_compressed(
                repo, ToolName.SHOW, ShowArgs(commit="deadbeef" * 5), 2_000_000_000,
                cache, CompressionConfig(), shas[1],
            )
            assert obs.text.startswith("Error (commit_not_found)")
            assert not obs.cache_hit
        assert len(cache) == 0

    def test_search_bound_enforced_in_pipeline(self, pipeline_repo):
        repo, shas, _ = pipeline_repo
        from repo_helpers import BASE_EPOCH

        fix_date = BASE_EPOCH + 86400  # only c1 is within bound
        obs = execute_compressed(
            repo, ToolName.LOG_S, LogSArgs(search_string="return"), fix_date,
            {}, CompressionConfig(), shas[1],
        )
        assert shas[0][:7] in obs.text
        assert shas[1][:7] not in obs.text


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
        cfg = CompressionConfig()
        rng = random.Random(hash(tool.value) & 0xFFFF)
        for trial in range(200):
            raw = synth_raw(tool, rng)
            formatted, truncated = compress._FORMATTERS[tool](raw, cfg)
            text, truncated = compress.compress_formatted(tool, formatted, truncated, cfg)
            assert len(text) <= cfg.tau + MAX_OBS_OVERHEAD, (tool, trial)
            raw_tokens = set(HEX_TOKEN_RE.findall(raw))
            for token in HEX_TOKEN_RE.findall(text):
                assert any(rt.startswith(token) for rt in raw_tokens), (tool, trial, token)
            if truncated:
                assert text.splitlines()[-1].startswith("[output truncated")
