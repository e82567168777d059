"""Metrics exactness, hard-case classifiers, dataset and report codecs."""

import json
import re
from fractions import Fraction

import pytest

from repo_helpers import RepoBuilder

from bictrace import evaluate as ev
from bictrace.caseprep import CaseSpec, load_fix_context
from bictrace.evaluate import (
    CaseResult,
    DatasetError,
    aggregate_report,
    classify_cross_file,
    classify_ghost,
    load_dataset,
    metrics,
    read_results,
    write_results,
)
from bictrace.gitio import GitTimeout, RepoHandle


def make_results(pred_map):
    return [CaseResult(case_id=cid, predicted=sorted(p)) for cid, p in pred_map.items()]


def expected_exact(gt, pred):
    inter = sum(len(gt[c] & set(pred[c])) for c in pred)
    p_total = sum(len(pred[c]) for c in pred)
    g_total = sum(len(gt[c]) for c in pred)
    precision = Fraction(inter, p_total) if p_total else Fraction(0)
    recall = Fraction(inter, g_total) if g_total else Fraction(0)
    f1 = Fraction(2 * inter, p_total + g_total) if (p_total + g_total) else Fraction(0)
    return float(precision), float(recall), float(f1)


HAND_TABLES = [
    # (ground truth, predictions)
    ({"c1": {"A"}, "c2": {"B"}}, {"c1": ["A"], "c2": ["C"]}),
    ({"c1": {"A"}}, {"c1": ["A"]}),
    ({"c1": {"A"}, "c2": {"B"}}, {"c1": [], "c2": []}),
    ({"c1": {"A", "B"}}, {"c1": ["A"]}),
    ({"c1": {"A", "B", "C"}}, {"c1": ["A", "B", "C", "D"]}),
    ({"c1": {"A"}, "c2": {"B", "C"}}, {"c1": ["A", "X"], "c2": ["B"]}),
    ({"c1": {"A"}, "c2": {"B"}, "c3": {"C"}}, {"c1": ["Z"], "c2": ["B"], "c3": []}),
    ({"c1": {"A", "B"}, "c2": {"C", "D", "E"}}, {"c1": ["A", "B"], "c2": ["C"]}),
    ({"c1": {"A"}}, {"c1": ["B", "C", "D"]}),
    ({"c1": {"A", "B"}, "c2": {"C"}, "c3": {"D"}}, {"c1": ["B"], "c2": ["C", "C2"], "c3": ["D"]}),
]


class TestMetrics:
    @pytest.mark.parametrize("gt,pred", HAND_TABLES)
    def test_hand_tables_exact(self, gt, pred):
        got = metrics(make_results(pred), gt)
        assert got == expected_exact(gt, pred)

    def test_two_case_half(self):
        gt = {"c1": {"A"}, "c2": {"B"}}
        pred = {"c1": ["A"], "c2": ["C"]}
        assert metrics(make_results(pred), gt) == (0.5, 0.5, 0.5)

    def test_perfect(self):
        gt = {"c1": {"A"}, "c2": {"B", "C"}}
        pred = {"c1": ["A"], "c2": ["B", "C"]}
        assert metrics(make_results(pred), gt) == (1.0, 1.0, 1.0)

    def test_all_empty_predictions(self):
        gt = {"c1": {"A"}, "c2": {"B"}}
        pred = {"c1": [], "c2": []}
        assert metrics(make_results(pred), gt) == (0.0, 0.0, 0.0)

    def test_micro_not_macro(self):
        # Case 1: 1 of 1 correct. Case 2: 1 of 3 correct predictions.
        # micro precision = 2/4; macro would be (1 + 1/3)/2 = 2/3.
        gt = {"c1": {"A"}, "c2": {"B"}}
        pred = {"c1": ["A"], "c2": ["B", "X", "Y"]}
        precision, _, _ = metrics(make_results(pred), gt)
        assert precision == 0.5
        assert precision != pytest.approx(2 / 3)

    def test_bounds(self):
        for gt, pred in HAND_TABLES:
            p, r, f1 = metrics(make_results(pred), gt)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0

    def test_missing_ground_truth(self):
        # metrics() trusts its caller; aggregate_report refuses the result
        # before any score is computed.
        cases = [CaseSpec(repo_path="/r", fix_commit="f", ground_truth={"A"}, case_id="other")]
        with pytest.raises(DatasetError, match="ghost-case"):
            aggregate_report(cases, [CaseResult(case_id="ghost-case")], {}, name="synthetic")


class TestClassifiers:
    def test_ghost_true_on_addition_only(self, ghost_repo):
        rb, info = ghost_repo
        fc = load_fix_context(RepoHandle(rb.path), info["fix"])
        assert classify_ghost(fc) is True

    def test_ghost_false_on_deletion(self, linear_repo):
        rb, shas = linear_repo
        fc = load_fix_context(RepoHandle(rb.path), shas[2])
        assert classify_ghost(fc) is False

    def test_ghost_true_on_mode_only_change(self, tmp_path):
        import os

        rb = RepoBuilder(tmp_path / "mode")
        rb.commit({"run.sh": "#!/bin/sh\necho hi\n"}, "seed")
        os.chmod(f"{rb.path}/run.sh", 0o755)
        rb.git("add", "-A")
        rb.git("commit", "-q", "-m", "mark executable", date=rb.next_date())
        fc = load_fix_context(RepoHandle(rb.path), rb.head())
        assert classify_ghost(fc) is True

    def test_cross_file_true(self, cross_file_repo):
        rb, info = cross_file_repo
        repo = RepoHandle(rb.path)
        case = CaseSpec(
            repo_path=rb.path, fix_commit=info["fix"], ground_truth={info["bic"]}
        )
        fc = load_fix_context(repo, info["fix"])
        assert classify_cross_file(repo, case, fc) is True

    def test_cross_file_false_when_bic_in_history(self, linear_repo):
        rb, shas = linear_repo
        repo = RepoHandle(rb.path)
        case = CaseSpec(repo_path=rb.path, fix_commit=shas[2], ground_truth={shas[1]})
        fc = load_fix_context(repo, shas[2])
        assert classify_cross_file(repo, case, fc) is False

    def test_cross_file_timeout_raises(self, linear_repo, time_out_git):
        rb, shas = linear_repo
        repo = RepoHandle(rb.path)
        case = CaseSpec(repo_path=rb.path, fix_commit=shas[2], ground_truth={shas[1]})
        fc = load_fix_context(repo, shas[2])
        time_out_git()
        with pytest.raises(GitTimeout):
            classify_cross_file(repo, case, fc)

    def test_cross_file_mixed_bics_false(self, cross_file_repo):
        rb, info = cross_file_repo
        repo = RepoHandle(rb.path)
        case = CaseSpec(
            repo_path=rb.path,
            fix_commit=info["fix"],
            ground_truth={info["bic"], info["base"]},  # base touched the driver file
        )
        fc = load_fix_context(repo, info["fix"])
        assert classify_cross_file(repo, case, fc) is False

    def test_cross_file_follows_renames(self, tmp_path):
        rb = RepoBuilder(tmp_path / "renhist")
        bic = rb.commit({"old.c": "v1 line\n"}, "introduce in old path")
        rb.move("old.c", "new.c", "rename old to new")
        fix = rb.commit({"new.c": "v2 line\n"}, "fix in new path")
        repo = RepoHandle(rb.path)
        case = CaseSpec(repo_path=rb.path, fix_commit=fix, ground_truth={bic})
        fc = load_fix_context(repo, fix)
        assert classify_cross_file(repo, case, fc) is False


class TestDatasetIO:
    def test_load_and_uniqueness(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(
            json.dumps({"schema": ev.DATASET_SCHEMA, "name": "mini"}) + "\n"
            + json.dumps({"repo": "/r1", "fix_commit": "a" * 40, "bics": ["b" * 40],
                          "dataset_tag": "x", "case_id": "x:1"}) + "\n"
            + json.dumps({"repo": "/r2", "fix_commit": "c" * 40, "bics": ["d" * 40],
                          "dataset_tag": "x", "case_id": "x:2"}) + "\n"
        )
        # The header's "name" is read by nothing; a report is named by its results file.
        assert [c.case_id for c in load_dataset(str(path))] == ["x:1", "x:2"]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        row = json.dumps({"repo": "/r", "fix_commit": "a" * 40, "bics": ["b" * 40],
                          "case_id": "same"})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(ev.DatasetError, match="duplicate"):
            load_dataset(str(path))

    def test_empty_ground_truth_rejected(self, tmp_path):
        path = tmp_path / "nogt.jsonl"
        path.write_text(json.dumps({"repo": "/r", "fix_commit": "a" * 40, "bics": []}) + "\n")
        with pytest.raises(ev.DatasetError, match="'bics' must be a nonempty list of commit ids"):
            load_dataset(str(path))

    @pytest.mark.parametrize("record", [
        {"fix_commit": "a" * 40, "bics": ["b" * 40]},
        {"repo": "/r", "bics": ["b" * 40]},
        {"repo": "/r", "fix_commit": 7, "bics": ["b" * 40]},
        *({"repo": "/r", "fix_commit": "a" * 40, "bics": ["c" * 40, bic]}
          for bic in ("b" * 12, "b" * 41, "g" * 40, "b" * 40 + "\n", 7)),
        ["not", "an", "object"],
        "a string",
        {"repo": "/r", "fix_commit": "a" * 40, "bics": ["b" * 40], "case_id": 5},
        {"repo": "/r", "fix_commit": "a" * 40, "bics": ["b" * 40], "dataset_tag": 7},
    ])
    def test_malformed_record_names_its_line(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        good = {"repo": "/r", "fix_commit": "a" * 40, "bics": ["b" * 40], "case_id": "ok"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ev.DatasetError, match=re.escape(f"{path}:2: ")):
            load_dataset(str(path))

    def test_case_result_dict_defaults_and_order(self):
        assert CaseResult.from_dict({"case_id": "x:1"}) == CaseResult(case_id="x:1")
        result = CaseResult(case_id="x:1", predicted=["c" * 40, "a" * 40])
        assert result.to_dict() == {
            "case_id": "x:1", "predicted": ["a" * 40, "c" * 40], "transcript_ref": None,
            "cost": {}, "error": None,
        }
        assert result.predicted == ["c" * 40, "a" * 40]

    def test_results_round_trip(self, tmp_path):
        results = [
            CaseResult(case_id="x:1", predicted=["b" * 40],
                       cost={"tokens": 50, "turns": 3, "seconds": 0.5}),
            CaseResult(case_id="x:2", error="repo missing"),
        ]
        path = str(tmp_path / "res.jsonl")
        write_results(path, "b-szz")
        for result in results:
            ev.append_result(path, result)
        method, loaded = read_results(path)
        assert method == "b-szz"
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in results]

    def test_old_category_flags_key_is_ignored(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({"schema": ev.RESULTS_SCHEMA, "method": "b-szz"}) + "\n"
                        + json.dumps({"case_id": "x:1", "predicted": ["b" * 40],
                                      "category_flags": {"ghost": True, "cross_file": True}}) + "\n")
        _, (result,) = read_results(str(path))
        assert result == CaseResult(case_id="x:1", predicted=["b" * 40])
        assert "category_flags" not in result.to_dict()


class TestReport:
    def make_dataset(self):
        return [
            CaseSpec(repo_path="/r", fix_commit="f1", ground_truth={"A"}, case_id="c1"),
            CaseSpec(repo_path="/r", fix_commit="f2", ground_truth={"B"}, case_id="c2"),
        ]

    def test_all_ghost_dataset_recall_match(self):
        ds = self.make_dataset()
        results = [
            CaseResult(case_id="c1", predicted=["A"]),
            CaseResult(case_id="c2", predicted=[]),
        ]
        flags = {"c1": {"ghost": True}, "c2": {"ghost": True}}
        report = aggregate_report(ds, results, flags, name="m")
        assert report.category_recall["ghost"] == {"n_cases": 2, "recall": report.recall}

    def test_subsets_come_from_the_flags_map(self):
        ds = self.make_dataset()
        results = [CaseResult(case_id="c1", predicted=["A"]), CaseResult(case_id="c2")]
        # c2 could not be classified: it is in no subset, but still scored.
        report = aggregate_report(ds, results, {"c1": {"ghost": False, "cross_file": True}},
                                  name="m")
        assert report.category_recall == {"ghost": {"n_cases": 0, "recall": 0.0},
                                          "cross_file": {"n_cases": 1, "recall": 1.0}}
        assert (report.n_cases, report.recall) == (2, 0.5)

    def test_partial_results_score_missing_cases_as_misses(self):
        ds = self.make_dataset()
        flags = {"c1": {"ghost": True}, "c2": {"ghost": True}}
        partial = aggregate_report(ds, [CaseResult(case_id="c1", predicted=["A"])], flags, "m")
        full = aggregate_report(ds, [CaseResult(case_id="c1", predicted=["A"]),
                                     CaseResult(case_id="c2")], flags, "m")
        assert (partial.n_cases, partial.missing, partial.recall) == (2, 1, 0.5)
        assert (full.n_cases, full.missing, full.recall) == (2, 0, 0.5)
        assert partial.category_recall == full.category_recall
        assert "  missing: 1" in partial.render_table().splitlines()
        assert "missing" not in full.render_table()

    def test_turn_mean(self):
        ds = self.make_dataset()
        results = [
            CaseResult(case_id="c1", predicted=["A"], cost={"turns": 4}),
            CaseResult(case_id="c2", predicted=["B"], cost={"turns": 6}),
        ]
        report = aggregate_report(ds, results, {}, name="m")
        assert report.cost_means["turns"] == 5.0

    def test_report_round_trip(self):
        ds = self.make_dataset()
        results = [
            CaseResult(case_id="c1", predicted=["A"],
                       cost={"tokens": 10, "turns": 2, "seconds": 1.25}),
            CaseResult(case_id="c2", predicted=["X"],
                       cost={"tokens": 30, "turns": 4, "seconds": 0.75}),
        ]
        report = aggregate_report(ds, results, {"c1": {"ghost": True}, "c2": {"cross_file": True}},
                                  name="m")
        # `evaluate --out` writes the dict as JSON and the table as text.
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()
        assert report.to_dict()["schema"] == "bictrace-report/v2"
        assert report.to_dict()["missing"] == 0
        assert "precision" in report.render_table()

    def test_unknown_case_id_named_in_error(self):
        ds = self.make_dataset()
        with pytest.raises(DatasetError, match="unknown case ids: c98, c99$"):
            aggregate_report(ds, [CaseResult(case_id="c99"), CaseResult(case_id="c1"),
                                  CaseResult(case_id="c98")], {}, name="m")

    def test_dollar_cost_only_with_prices(self):
        ds = self.make_dataset()
        results = [
            CaseResult(case_id="c1", predicted=["A"],
                       cost={"prompt_tokens": 1000, "completion_tokens": 500}),
        ]
        no_price = aggregate_report(ds, results, {}, name="m")
        assert "dollars" not in no_price.cost_means
        priced = aggregate_report(
            ds, results, {}, name="m",
            price_table={"prompt_usd_per_1k": 0.25, "completion_usd_per_1k": 2.0},
        )
        assert priced.cost_means["dollars"] == pytest.approx(0.25 + 1.0)
