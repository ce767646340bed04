import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from droprec import evaluate
from droprec.corpus import FULL14, AnnotatedSentence, Corpus
from droprec.embeddings import EmbeddingTable, deterministic_fallback_table
from droprec.evaluate import (
    NONE_CLASS,
    evaluate_both,
    evaluate_dpg,
    evaluate_dpi,
    format_report,
    paired_significance,
    report_from_pairs,
    report_to_dict,
    student_t_two_sided_p,
)

from droprec.pipeline import predict_dpi
from test_pipeline import stub_recovery_model


# --- report construction -----------------------------------------------------


def test_report_invariants_on_random_pairs():
    rng = np.random.default_rng(12)
    gold = list(rng.integers(0, 4, size=500))
    pred = list(rng.integers(0, 4, size=500))
    report = report_from_pairs(gold, pred, ("a", "b", "c", "d"))
    # accuracy equals both trace/n and a direct recount
    assert report.accuracy == np.trace(report.confusion) / 500
    assert report.accuracy == sum(g == p for g, p in zip(gold, pred)) / 500
    # row sums equal per-class gold counts
    for c in range(4):
        assert report.confusion[c].sum() == gold.count(c)


def test_micro_recall_equals_accuracy():
    rng = np.random.default_rng(3)
    gold = list(rng.integers(0, 3, size=300))
    pred = list(rng.integers(0, 3, size=300))
    report = report_from_pairs(gold, pred, ("x", "y", "z"))
    micro = sum(report.confusion[c, c] for c in range(3)) / report.n
    assert micro == report.accuracy


def test_uniform_random_predictor_near_chance():
    k, n = 5, 5000
    rng = np.random.default_rng(99)
    gold = list(rng.integers(0, k, size=n))
    pred = list(rng.integers(0, k, size=n))
    report = report_from_pairs(gold, pred, tuple("abcde"))
    p = 1.0 / k
    assert abs(report.accuracy - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_report_rejects_bad_input():
    with pytest.raises(ValueError, match="items"):
        report_from_pairs([0], [0, 1], ("a", "b"))
    with pytest.raises(ValueError, match="zero instances"):
        report_from_pairs([], [], ("a",))


def counted_report(gold, pred, class_names, scoring):
    """A report counted cell by cell, each figure from its row and column."""
    k = len(class_names)
    confusion = np.zeros((k, k), dtype=np.int64)
    for g, p in zip(gold, pred):
        confusion[g, p] += 1
    per_class = {}
    for c, name in enumerate(class_names):
        tp, col, row = (float(confusion[c, c]), float(confusion[:, c].sum()),
                        float(confusion[c, :].sum()))
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[name] = evaluate.ClassMetrics(precision, recall, f1)
    return evaluate.EvalReport(float(np.trace(confusion)) / len(gold), per_class, confusion,
                               len(gold), class_names, scoring)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1,
                         max_size=80))),
       st.booleans())
def test_reports_from_lists_and_from_arrays_are_byte_equal(case, predict_one_class):
    # Classes that are never predicted (or never gold) score 0.0, whatever
    # the input's type.
    k, pairs = case
    gold, pred = map(list, zip(*pairs))
    if predict_one_class:
        pred = [0] * len(pred)
    names = tuple(f"c{i}" for i in range(k))
    want = json.dumps(report_to_dict(counted_report(gold, pred, names, "s")))
    assert json.dumps(report_to_dict(report_from_pairs(gold, pred, names, "s"))) == want
    for make in (np.array, lambda v: np.array(v, dtype=np.int32)):
        got = report_from_pairs(make(gold), make(pred), names, "s")
        assert json.dumps(report_to_dict(got)) == want
    if k == 2:  # a detection report's gold and predictions come as booleans
        got = report_from_pairs(np.array(gold, dtype=bool), np.array(pred, dtype=bool), names, "s")
        assert json.dumps(report_to_dict(got)) == want


def test_report_rejects_a_class_index_outside_its_classes():
    for gold, pred in (([0, 2], [0, 1]), ([0, 1], [0, -1])):
        with pytest.raises(ValueError, match=r"class indices must be in \[0, 2\)"):
            report_from_pairs(gold, pred, ("a", "b"))


# --- detection evaluation ------------------------------------------------------


def ten_percent_corpus():
    # ten sentences x ten gaps, exactly one annotated gap per sentence
    sents = tuple(
        AnnotatedSentence(tuple(f"t{i}" for i in range(9)), ((si % 10, "wo"),))
        for si in range(10)
    )
    return Corpus(FULL14, sents)


def test_scoring_with_the_models_own_table_keeps_the_model():
    table = deterministic_fallback_table(["x"], 4, seed=0)
    model = stub_recovery_model(table)
    assert evaluate._gaps(model, ten_percent_corpus(), table)[0] is model
    other = deterministic_fallback_table(["x"], 4, seed=0)
    scoring = evaluate._gaps(model, ten_percent_corpus(), other)[0]
    assert scoring is not model and scoring.table is other


def test_all_negative_detector_scores_ninety_percent():
    corpus = ten_percent_corpus()
    table = deterministic_fallback_table(["x"], 4, seed=0)
    model = stub_recovery_model(table, dpi_bias=(50.0, -50.0))
    report = evaluate_dpi(model, corpus, table)
    assert report.n == 100
    assert report.accuracy == pytest.approx(0.90, abs=1e-12)


def test_perfect_detector_scores_one():
    # cue-keyed detector: fires exactly between the two P tokens
    table = EmbeddingTable.from_vectors(1, {"P": np.array([1.0]), "N": np.array([-1.0])})
    model = stub_recovery_model(table, window=1, threshold=0.5)
    model.dpi.layers[0].weights[:] = np.array([[0.0, 0.0], [10.0, 10.0]])
    model.dpi.layers[0].bias[:] = np.array([0.0, -15.0])
    sents = tuple(
        AnnotatedSentence(("N", "P", "P", "N"), ((2, "wo"),)) for _ in range(5)
    )
    report = evaluate_dpi(model, Corpus(FULL14, sents), table)
    assert report.accuracy == 1.0
    assert report.per_class["dropped"].f1 == 1.0


def test_dpi_confusion_is_two_by_two():
    corpus = ten_percent_corpus()
    table = deterministic_fallback_table(["x"], 4, seed=0)
    report = evaluate_dpi(stub_recovery_model(table), corpus, table)
    assert report.confusion.shape == (2, 2)
    assert report.class_names == ("not_dropped", "dropped")


# --- generation evaluation -------------------------------------------------------


def test_single_class_constant_predictor_scores_one():
    sents = tuple(AnnotatedSentence(("a", "b"), ((1, "wo"),)) for _ in range(6))
    corpus = Corpus(FULL14, sents)
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    bias = np.zeros(14)
    bias[0] = 30.0  # always predicts 'wo'
    model = stub_recovery_model(table, dpg_bias=bias)
    report = evaluate_dpg(model, corpus, table, positions="gold")
    assert report.accuracy == 1.0
    assert report.n == 6


def test_gold_mode_confusion_shape_is_k_by_k():
    sents = tuple(AnnotatedSentence(("a", "b"), ((1, tag),)) for tag in FULL14.labels)
    corpus = Corpus(FULL14, sents)
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    report = evaluate_dpg(stub_recovery_model(table), corpus, table, positions="gold")
    assert report.confusion.shape == (14, 14)


def test_predicted_mode_counts_misses_and_spurious_gaps():
    # gold at gap 1; the always-fire detector also predicts gaps 0 and 2,
    # so the universe is {0, 1, 2}: one match, two spurious
    sents = (AnnotatedSentence(("a", "b"), ((1, "wo"),)),)
    corpus = Corpus(FULL14, sents)
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    bias = np.zeros(14)
    bias[0] = 30.0
    model = stub_recovery_model(table, threshold=0.0, dpg_bias=bias)
    report = evaluate_dpg(model, corpus, table, positions="predicted")
    assert report.n == 3
    assert report.accuracy == pytest.approx(1 / 3)
    assert report.class_names[-1] == NONE_CLASS
    none_idx = len(FULL14)
    assert report.confusion[none_idx, 0] == 2  # spurious gaps predicted as 'wo'
    assert report.confusion[0, 0] == 1


def test_predicted_mode_missed_gold_is_error():
    sents = (AnnotatedSentence(("a", "b"), ((1, "wo"),)),)
    corpus = Corpus(FULL14, sents)
    table = deterministic_fallback_table(["a", "b"], 4, seed=1)
    model = stub_recovery_model(table, dpi_bias=(50.0, -50.0))  # never fires
    report = evaluate_dpg(model, corpus, table, positions="predicted")
    assert report.n == 1
    assert report.accuracy == 0.0
    assert report.confusion[0, len(FULL14)] == 1  # gold 'wo' scored as <none>


def test_evaluate_dpg_rejects_label_set_mismatch():
    from droprec.corpus import ACTUAL10

    corpus = Corpus(ACTUAL10, (AnnotatedSentence(("a",), ((0, "wo"),)),))
    table = deterministic_fallback_table(["a"], 4, seed=1)
    model = stub_recovery_model(table)  # full14 generator
    with pytest.raises(ValueError, match="label set mismatch"):
        evaluate_dpg(model, corpus, table)


def test_evaluation_is_pure():
    corpus = ten_percent_corpus()
    table = deterministic_fallback_table(["x"], 4, seed=0)
    model = stub_recovery_model(table)
    a = evaluate_dpi(model, corpus, table)
    b = evaluate_dpi(model, corpus, table)
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.confusion, b.confusion)


@pytest.mark.parametrize("positions", ["gold", "predicted"])
def test_evaluate_both_detects_once_and_gives_the_two_reports(monkeypatch, positions):
    table = EmbeddingTable.from_vectors(1, {"P": np.array([1.0]), "N": np.array([-1.0])})
    model = stub_recovery_model(table, window=1, threshold=0.5)
    model.dpi.layers[0].weights[:] = np.array([[0.0, 0.0], [10.0, 10.0]])
    model.dpi.layers[0].bias[:] = np.array([0.0, -15.0])
    model.dpg.layers[0].bias[3] = 1.0
    sents = (AnnotatedSentence(("N", "P", "P", "N"), ((2, "wo"), (4, "ni"))),
             AnnotatedSentence(("P", "P", "P"), ((1, "wo"),)))
    corpus = Corpus(FULL14, sents)
    want = (evaluate_dpi(model, corpus, table), evaluate_dpg(model, corpus, table, positions))
    calls = []
    monkeypatch.setattr(evaluate, "predict_dpi", lambda *a: calls.append(1) or predict_dpi(*a))
    got = evaluate_both(model, corpus, table, positions)
    assert len(calls) == 1
    assert [report_to_dict(r) for r in got] == [report_to_dict(r) for r in want]
    assert got[0].accuracy < 1.0 and got[1].n >= 3


# --- significance ------------------------------------------------------------------


def test_identical_scores_not_significant():
    res = paired_significance([1.0, 0.0, 1.0], [1.0, 0.0, 1.0], alpha=0.05)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert not res.significant
    assert "zero variance" in res.note


def test_maximal_separation_is_significant():
    res = paired_significance([1.0] * 100, [0.0] * 100, alpha=0.05)
    assert res.significant
    assert res.p_value == 0.0
    assert math.isinf(res.statistic)
    assert "zero variance" in res.note


def test_five_item_hand_computation():
    a = [1.0, 1.0, 1.0, 0.0, 1.0]
    b = [0.0, 1.0, 0.0, 0.0, 1.0]
    # d = (1,0,1,0,0): mean 0.4, sample sd sqrt(0.3), t = 0.4/(sd/sqrt(5))
    t_expected = 0.4 / (math.sqrt(0.3) / math.sqrt(5))
    # closed-form two-sided p for df=4 at x = 4/(4+t^2) = 0.6:
    # I_x(2, 1/2) = 3/4 * (4/3 - 2*sqrt(1-x) + 2/3*(1-x)^1.5)
    p_expected = 0.75 * (4 / 3 - 2 * math.sqrt(0.4) + (2 / 3) * 0.4**1.5)
    res = paired_significance(a, b, alpha=0.05)
    assert res.statistic == pytest.approx(t_expected, abs=1e-12)
    assert res.p_value == pytest.approx(p_expected, abs=1e-9)
    assert not res.significant


def test_significance_input_validation():
    with pytest.raises(ValueError, match="length"):
        paired_significance([1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="at least 2"):
        paired_significance([1.0], [0.0])
    with pytest.raises(ValueError, match="alpha"):
        paired_significance([1.0, 0.0], [0.0, 1.0], alpha=0.0)


def test_p_value_matches_scipy_reference():
    stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 4, 9, 29, 99, 999, 1000, 99999, 100000):
        for t in (0.0, 0.3, 1.0, 1.633, 2.5, 6.0, 15.0):
            assert student_t_two_sided_p(t, df) == pytest.approx(
                2 * float(stats.t.sf(t, df)), abs=1e-10
            )


def test_p_value_edges():
    for df in (4, 5):
        assert student_t_two_sided_p(0.0, df) == 1.0
        assert student_t_two_sided_p(math.inf, df) == 0.0
        assert math.isnan(student_t_two_sided_p(math.nan, df))
    for df in (0, 2.5, True):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_two_sided_p(1.0, df)


@settings(max_examples=40)
@given(st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=60), st.data())
def test_significance_symmetry(a, data):
    b = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(a), max_size=len(a)))
    fwd = paired_significance(a, b)
    rev = paired_significance(b, a)
    assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)
    assert fwd.statistic == pytest.approx(-rev.statistic, abs=1e-12)


# --- output formats -------------------------------------------------------------------


def test_report_round_trips_to_json_dict():
    report = report_from_pairs([0, 1, 1], [0, 1, 0], ("neg", "pos"), scoring="demo")
    payload = report_to_dict(report)
    assert payload["accuracy"] == report.accuracy
    assert payload["confusion"] == report.confusion.tolist()
    assert payload["scoring"] == "demo"
    import json

    json.dumps(payload)  # must be serializable as-is


def test_format_report_is_aligned_text():
    report = report_from_pairs([0, 1, 1], [0, 1, 0], ("neg", "pos"))
    text = format_report(report, title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert any("accuracy" in line for line in lines)
    assert any(line.startswith("pos") for line in lines)
