"""Hash sanitizing and the progressive prefix-resolution ladder."""

import re

from hypothesis import given
from hypothesis import strategies as st

from repo_helpers import FAR_FUTURE, committer_time

from bictrace.gitio import RepoHandle
from bictrace.resolve import resolve_prediction, sanitize_hash


class TestSanitize:
    def test_backticked_mixed_case(self):
        assert sanitize_hash("commit `A1B2c3d4e5f6`.") == "a1b2c3d4e5f6"

    def test_no_hex(self):
        assert sanitize_hash("no idea") == ""

    def test_hex_with_year(self):
        assert sanitize_hash("deadbeef (2017)") == "deadbeef"

    def test_longest_run_wins(self):
        assert sanitize_hash("abc or deadbeefcafe") == "deadbeefcafe"

    @given(st.text(max_size=120))
    def test_result_is_lower_hex(self, text):
        out = sanitize_hash(text)
        assert re.fullmatch(r"[0-9a-f]*", out)


class TestLadder:
    def test_full_id_identity(self, linear_handle):
        repo, shas = linear_handle
        status, full, trace = resolve_prediction(repo, shas[0], FAR_FUTURE)
        assert status == "resolved" and full == shas[0]
        assert trace.attempts == [(40, "resolved")]

    def test_corrupt_tail_recovers_at_12(self, linear_handle):
        repo, shas = linear_handle
        target = shas[1]
        corrupted = target[:12] + ("0" if target[12] != "0" else "1") * 28
        status, full, trace = resolve_prediction(repo, corrupted, FAR_FUTURE)
        assert status == "resolved" and full == target
        assert [n for n, _ in trace.attempts] == [40, 12]
        assert trace.attempts[-1] == (12, "resolved")

    def test_ladder_order_descending(self, linear_handle):
        repo, _ = linear_handle
        status, full, trace = resolve_prediction(repo, "f" * 40, FAR_FUTURE)
        assert status == "discarded" and full is None
        assert [n for n, _ in trace.attempts] == [40, 12, 10, 8, 7]
        assert all(outcome == "not_found" for _, outcome in trace.attempts)

    def test_six_chars_discarded_without_query(self, linear_handle):
        repo, _ = linear_handle
        before = repo.process_count
        status, full, trace = resolve_prediction(repo, "abc123", FAR_FUTURE)
        assert status == "discarded" and full is None
        assert trace.attempts == []
        assert repo.process_count == before

    def test_ambiguous_prefix_discarded(self, prefix_repo):
        rb, info = prefix_repo
        repo = RepoHandle(rb.path)
        twins = info["twins"]
        # A tail that neither twin has: the 40-character id and every longer
        # prefix are missing, and only the shared 7-char prefix is ambiguous.
        filler = next(c for c in "0123456789abcdef" if c not in {t[7] for t in twins})
        status, full, trace = resolve_prediction(repo, info["prefix"] + filler * 33, FAR_FUTURE)
        assert status == "discarded"
        assert trace.attempts == [
            (40, "not_found"), (12, "not_found"), (10, "not_found"), (8, "not_found"),
            (7, "ambiguous"),
        ]

    def test_short_input_skips_longer_rungs(self, linear_handle):
        repo, shas = linear_handle
        status, full, trace = resolve_prediction(repo, shas[2][:10], FAR_FUTURE)
        assert status == "resolved" and full == shas[2]
        assert trace.attempts == [(10, "resolved")]

    def test_no_attempts_after_success(self, linear_handle):
        repo, shas = linear_handle
        _, _, trace = resolve_prediction(repo, shas[0][:12] + "ff" * 14, FAR_FUTURE)
        lengths = [n for n, _ in trace.attempts]
        assert lengths == sorted(lengths, reverse=True)
        assert trace.attempts[-1][1] == "resolved"

    def test_postdating_prediction_downgraded(self, linear_handle):
        repo, shas = linear_handle
        early_date = committer_time(repo.root_path, shas[0])
        status, full, trace = resolve_prediction(repo, shas[2], fix_date=early_date)
        assert status == "discarded" and full is None
        assert ("rejected_postdates_fix" in {o for _, o in trace.attempts})

    def test_each_rung_costs_one_spawn(self, linear_handle):
        repo, shas = linear_handle
        fix_date = committer_time(repo.root_path, shas[1])
        corrupted = shas[1][:12] + ("0" if shas[1][12] != "0" else "1") * 28
        cases = [
            ("f" * 40, "discarded", 5),  # five rungs, none resolves
            (corrupted, "resolved", 2),  # resolves at 12, within the bound
            (shas[0], "resolved", 1),
            (shas[2], "discarded", 1),  # resolves, then rejected_postdates_fix
        ]
        for text, expected, spawns in cases:
            before = repo.process_count
            status, _, trace = resolve_prediction(repo, text, fix_date=fix_date)
            assert status == expected
            assert repo.process_count - before == spawns == len({n for n, _ in trace.attempts})
        assert trace.attempts == [(40, "resolved"), (40, "rejected_postdates_fix")]

    def test_within_bound_not_downgraded(self, linear_handle):
        repo, shas = linear_handle
        late_date = committer_time(repo.root_path, shas[2])
        status, full, _ = resolve_prediction(repo, shas[0], fix_date=late_date)
        assert status == "resolved" and full == shas[0]
