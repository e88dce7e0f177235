"""Metric implementations checked against independent oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_auprc,
    oracle_auroc,
    oracle_build_report,
    oracle_midrank_auroc,
    oracle_pr_curve,
    oracle_precision_recall_f1,
)
from vulrtex.errors import NoPositiveRows, SingleClass
from vulrtex.metrics import (
    MetricsReport,
    ScoredLabel,
    auprc,
    auroc,
    build_report,
    classification_metrics,
    macro_cwe_metrics,
    pr_curve,
    repeated_mean,
)


def row(i, p, truth, truth_cwe=None, pred_cwe=None, latency=0.0):
    return ScoredLabel(f"r#{i}", p, truth, truth_cwe, pred_cwe, latency)


def random_rows(rng, n):
    """At least one row of each class, scores on a coarse grid to force ties."""
    rows = [row(0, rng.choice([0.2, 0.5, 0.8]), True),
            row(1, rng.choice([0.2, 0.5, 0.8]), False)]
    for i in range(2, n):
        rows.append(row(i, rng.choice([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9]),
                        rng.random() < 0.5))
    return rows


# ------------------------------------------------------- classification_metrics

def test_all_correct_is_ones():
    rows = [row(0, 0.9, True), row(1, 0.8, True), row(2, 0.1, False)]
    assert classification_metrics(rows, 0.55) == (1.0, 1.0, 1.0)


def test_no_positive_predictions_is_zeros():
    rows = [row(0, 0.1, True), row(1, 0.2, True), row(2, 0.3, False)]
    assert classification_metrics(rows, 0.55) == (0.0, 0.0, 0.0)


def test_hand_confusion_two_thirds():
    # 2 TP, 1 FP, 1 FN, rest negative
    rows = [row(0, 0.9, True), row(1, 0.8, True), row(2, 0.7, False),
            row(3, 0.2, True), row(4, 0.1, False), row(5, 0.2, False),
            row(6, 0.3, False), row(7, 0.4, False)]
    p, r, f1 = classification_metrics(rows, 0.55)
    assert p == pytest.approx(2 / 3, abs=1e-12)
    assert r == pytest.approx(2 / 3, abs=1e-12)
    assert f1 == pytest.approx(2 / 3, abs=1e-12)


def test_matches_oracle_on_random_fixtures():
    rng = random.Random(11)
    for _ in range(50):
        rows = random_rows(rng, rng.randint(2, 50))
        theta = rng.choice([0.15, 0.4, 0.55, 0.7])
        y_true = [1 if r.truth_vul else 0 for r in rows]
        y_pred = [1 if r.p_yes >= theta else 0 for r in rows]
        want = oracle_precision_recall_f1(y_true, y_pred)
        got = classification_metrics(rows, theta)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)


def test_empty_rows_rejected():
    with pytest.raises(ValueError):
        classification_metrics([], 0.5)


# ----------------------------------------------------------------- auroc/auprc

def test_perfect_separation():
    rows = [row(0, 0.9, True), row(1, 0.8, True), row(2, 0.2, False), row(3, 0.1, False)]
    assert auroc(rows) == pytest.approx(1.0, abs=1e-12)
    assert auprc(rows) == pytest.approx(1.0, abs=1e-12)


def test_identical_scores_auroc_half():
    rows = [row(i, 0.5, i % 2 == 0) for i in range(10)]
    assert auroc(rows) == pytest.approx(0.5, abs=1e-12)


def test_single_class_raises():
    rows = [row(0, 0.9, True), row(1, 0.8, True)]
    with pytest.raises(SingleClass):
        auroc(rows)
    with pytest.raises(SingleClass):
        auprc(rows)


def test_rank_metrics_match_oracles_on_random_fixtures():
    rng = random.Random(23)
    for _ in range(50):
        rows = random_rows(rng, rng.randint(2, 50))
        scores = [r.p_yes for r in rows]
        labels = [1 if r.truth_vul else 0 for r in rows]
        assert auroc(rows) == pytest.approx(oracle_auroc(labels, scores), abs=1e-9)
        assert auprc(rows) == pytest.approx(oracle_auprc(labels, scores), abs=1e-9)


# few distinct scores, so most rows share a tie group with rows of both classes
_tied_rows = st.lists(
    st.tuples(st.sampled_from([0.0, 0.1, 0.3, 1 / 3, 0.5, 0.7, 1.0]), st.booleans()),
    min_size=2, max_size=300,
).filter(lambda pairs: len({vul for _, vul in pairs}) == 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tied_rows)
def test_auroc_bit_equal_to_midrank_oracle_under_heavy_ties(pairs):
    rows = [row(i, p, vul) for i, (p, vul) in enumerate(pairs)]
    assert auroc(rows).hex() == oracle_midrank_auroc(rows).hex()


_SCORES = [0.0, 0.1, 0.3, 1 / 3, 0.5, 0.55, 0.7, 1.0]
_CWES = [None, "CWE-79", "CWE-89", "CWE-352"]

# tied scores as above, plus CWE labels, predicted labels and latencies
_report_rows = st.lists(
    st.tuples(st.sampled_from(_SCORES), st.booleans(), st.sampled_from(_CWES),
              st.sampled_from(_CWES), st.sampled_from([0.0, 0.1, 0.25, 1.7, 3.0])),
    min_size=1, max_size=300,
)


def _labeled(tuples):
    return [row(i, p, vul, t_cwe if vul else None, p_cwe, latency)
            for i, (p, vul, t_cwe, p_cwe, latency) in enumerate(tuples)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_report_rows.filter(lambda ts: len({t[1] for t in ts}) == 2
                           and any(t[1] and t[2] for t in ts)),
       st.sampled_from(_SCORES + [0.2, 0.99]))
def test_build_report_bit_equal_to_oracle_under_heavy_ties(tuples, theta_out):
    rows = _labeled(tuples)
    report = build_report(rows, theta_out).to_dict()
    want = oracle_build_report(rows, theta_out)
    assert {k: report[k].hex() for k in want} == {k: v.hex() for k, v in want.items()}
    assert report["n_runs"] == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_report_rows, st.sampled_from([0.05, 0.1, 0.07, 0.3, 1 / 3, 0.55]))
def test_pr_curve_bit_equal_to_oracle_under_heavy_ties(tuples, interval):
    rows = _labeled(tuples)
    got = [tuple(x.hex() for x in point) for point in pr_curve(rows, interval)]
    assert got == [tuple(x.hex() for x in point) for point in oracle_pr_curve(rows, interval)]


# -------------------------------------------------------------------- pr_curve

def test_grid_has_21_rows_at_five_percent():
    rows = [row(0, 0.9, True), row(1, 0.1, False)]
    curve = pr_curve(rows, 0.05)
    assert len(curve) == 21
    assert curve[0][0] == 0.0
    assert curve[-1][0] == 1.0
    assert curve[11][0] == 0.55


def test_grid_rows_equal_classification_metrics():
    rng = random.Random(31)
    rows = random_rows(rng, 30)
    for theta, precision, recall in pr_curve(rows, 0.05):
        p, r, _ = classification_metrics(rows, theta)
        assert precision == p
        assert recall == r


def test_uneven_interval_still_ends_at_one():
    rows = [row(0, 0.9, True), row(1, 0.1, False)]
    thetas = [t for t, _, _ in pr_curve(rows, 0.3)]
    assert thetas == [0.0, 0.3, 0.6, 0.9, 1.0]


def test_interval_bounds_checked():
    rows = [row(0, 0.9, True), row(1, 0.1, False)]
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            pr_curve(rows, bad)


# ------------------------------------------------------------------ macro CWE

def test_macro_hand_case():
    rows = [
        row(0, 0.9, True, "CWE-79", "CWE-79"),
        row(1, 0.9, True, "CWE-79", "CWE-79"),
        row(2, 0.9, True, "CWE-89", "CWE-79"),
        row(3, 0.9, True, "CWE-89", "CWE-89"),
        row(4, 0.1, False),
    ]
    macro_p, macro_r, macro_f1 = macro_cwe_metrics(rows)
    # CWE-79: p=2/3 r=1; CWE-89: p=1 r=1/2
    assert macro_p == pytest.approx((2 / 3 + 1.0) / 2, abs=1e-12)
    assert macro_r == pytest.approx((1.0 + 0.5) / 2, abs=1e-12)
    f79 = 2 * (2 / 3) * 1.0 / (2 / 3 + 1.0)
    f89 = 2 * 1.0 * 0.5 / 1.5
    assert macro_f1 == pytest.approx((f79 + f89) / 2, abs=1e-12)


def test_never_predicted_label_contributes_zero_precision():
    rows = [
        row(0, 0.9, True, "CWE-79", "CWE-79"),
        row(1, 0.9, True, "CWE-352", None),
    ]
    macro_p, macro_r, _ = macro_cwe_metrics(rows)
    assert macro_p == pytest.approx(0.5, abs=1e-12)
    assert macro_r == pytest.approx(0.5, abs=1e-12)


def test_macro_needs_labeled_positive_rows():
    with pytest.raises(NoPositiveRows):
        macro_cwe_metrics([row(0, 0.2, False)])


# ------------------------------------------------------ report and averaging

def test_build_report_composes_everything():
    rows = [
        row(0, 0.9, True, "CWE-79", "CWE-79", latency=1.0),
        row(1, 0.8, True, "CWE-89", "CWE-89", latency=3.0),
        row(2, 0.2, False, latency=2.0),
    ]
    report = build_report(rows, 0.55)
    assert report.precision == 1.0 and report.recall == 1.0 and report.f1 == 1.0
    assert report.auroc == 1.0
    assert report.mean_latency == pytest.approx(2.0, abs=1e-12)
    assert report.n_runs == 1


def test_repeated_mean_is_fieldwise():
    a = MetricsReport(1.0, 0.5, 0.6, 0.9, 0.8, 0.7, 0.6, 0.5, 2.0)
    b = MetricsReport(0.0, 0.5, 0.4, 0.7, 0.6, 0.3, 0.4, 0.5, 4.0)
    mean = repeated_mean([a, b])
    assert mean.precision == pytest.approx(0.5)
    assert mean.f1 == pytest.approx(0.5)
    assert mean.auroc == pytest.approx(0.8)
    assert mean.mean_latency == pytest.approx(3.0)
    assert mean.n_runs == 2


def test_repeated_mean_rejects_empty():
    with pytest.raises(ValueError):
        repeated_mean([])


def test_scored_label_validation():
    with pytest.raises(ValueError):
        ScoredLabel("x", 1.2, True)
    with pytest.raises(ValueError):
        ScoredLabel("x", 0.5, True, latency_seconds=-1.0)
