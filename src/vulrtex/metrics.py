"""Classification metrics over scored predictions.

Verdicts derive from p_yes thresholded at theta_out; ranking metrics use the
raw scores. Zero-denominator cases follow the 0-convention throughout so a
degenerate run reports zeros instead of raising.

A run's rows are sorted once, by descending score, and swept once into the
cumulative (tp, fp) counts at each distinct score (_ties). Every metric
reads those points: AUROC and AUPRC share one sweep over them, and the
counts at any threshold are the last point scoring at or above it, so
build_report sorts each run once and pr_curve bisects one sorted order for
all its grid thresholds. Counts are integers, so every float equals that of
counting the rows directly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, fields
from operator import attrgetter

from .errors import NoPositiveRows, SingleClass


# the exact types a JSON number decodes to; bool, an int subclass, is not one
NUMBER_TYPES = (int, float)


@dataclass(slots=True)
class ScoredLabel:
    """One scored row of one run. Its score and latency are checked here,
    the only place those two rules are written."""

    ir_id: str
    p_yes: float
    truth_vul: bool
    truth_cwe: str | None = None
    pred_cwe: str | None = None
    latency_seconds: float = 0.0
    run: int = 0

    def __post_init__(self):
        if type(self.p_yes) not in NUMBER_TYPES or not 0.0 <= self.p_yes <= 1.0:
            raise ValueError(f"{self.ir_id}: p_yes {self.p_yes!r} is not a number in [0, 1]")
        if type(self.latency_seconds) not in NUMBER_TYPES or not self.latency_seconds >= 0.0:
            raise ValueError(f"{self.ir_id}: latency {self.latency_seconds!r} "
                             "is not a number >= 0")


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    auroc: float
    auprc: float
    macro_p: float
    macro_r: float
    macro_f1: float
    mean_latency: float
    n_runs: int = 1

    def to_dict(self) -> dict:
        return asdict(self)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision > 0.0 and recall > 0.0 else 0.0)
    return precision, recall, f1


def _ties(rows: list[ScoredLabel]) -> list[tuple[float, int, int]]:
    """(score, tp, fp) after the last row of each distinct score, in
    descending score order: tp and fp count the positive and negative rows
    scoring at or above it. The one sort of a run's rows."""
    if not rows:
        return []
    ranked = sorted(rows, key=attrgetter("p_yes"), reverse=True)
    points = []
    tp = fp = 0
    score = ranked[0].p_yes
    for r in ranked:
        if r.p_yes != score:
            points.append((score, tp, fp))
            score = r.p_yes
        if r.truth_vul:
            tp += 1
        else:
            fp += 1
    points.append((score, tp, fp))
    return points


def _scored(rows: list[ScoredLabel]) -> list[tuple[float, int, int]]:
    if not rows:
        raise ValueError("no rows to score")
    return _ties(rows)


def _counts_at(points: list[tuple[float, int, int]],
               theta: float) -> tuple[int, int, int]:
    """(tp, fp, fn) of the verdicts p_yes >= theta."""
    k = bisect_right(points, -theta, key=lambda point: -point[0])
    tp, fp = points[k - 1][1:] if k else (0, 0)
    return tp, fp, points[-1][1] - tp


def _rank_areas(points: list[tuple[float, int, int]],
                metric: str) -> tuple[float, float]:
    """AUROC and AUPRC from one sweep over the tie groups.

    AUROC is the tie-corrected rank statistic P(score_pos > score_neg) +
    half-ties: a group holding descending positions [i, j) of n adds its
    midrank (2n - i - j + 1) / 2 once per positive in it. Midranks are
    half-integers, so the rank sum is exact and equals the per-row sum in
    any order. AUPRC is the area under the precision-recall step curve
    (Davis & Goadrich, ICML 2006), a point per group with tp and fp counting
    every row at or above its score.
    """
    n_pos, n_neg = points[-1][1:] if points else (0, 0)
    if not n_pos or not n_neg:
        raise SingleClass(f"{metric} needs both classes")
    n = n_pos + n_neg
    rank_sum = area = prev_recall = 0.0
    prev_tp = prev_end = 0
    for _, tp, fp in points:
        end = tp + fp
        if tp != prev_tp:
            rank_sum += (2 * n - prev_end - end + 1) / 2.0 * (tp - prev_tp)
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / end)
        prev_recall, prev_tp, prev_end = recall, tp, end
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg), area


def classification_metrics(rows: list[ScoredLabel],
                           theta_out: float) -> tuple[float, float, float]:
    return _prf(*_counts_at(_scored(rows), theta_out))


def auroc(rows: list[ScoredLabel]) -> float:
    """Tie-corrected rank statistic: P(score_pos > score_neg) + half-ties."""
    return _rank_areas(_ties(rows), "auroc")[0]


def auprc(rows: list[ScoredLabel]) -> float:
    """Area under the precision-recall step curve over all distinct scores."""
    return _rank_areas(_ties(rows), "auprc")[1]


def pr_curve(rows: list[ScoredLabel],
             interval: float) -> list[tuple[float, float, float]]:
    """One (theta, precision, recall) row per grid point from 0 to 1.

    Grid thetas are rounded to 12 decimals so accumulated float error cannot
    make a grid row disagree with classification_metrics at the same theta.
    """
    if not 0.0 < interval < 1.0:
        raise ValueError("interval must be in (0, 1)")
    points = _scored(rows)
    thetas = []
    i = 0
    while True:
        theta = round(i * interval, 12)
        if theta > 1.0:
            break
        thetas.append(theta)
        i += 1
    if thetas[-1] != 1.0:
        thetas.append(1.0)
    return [(theta, *_prf(*_counts_at(points, theta))[:2]) for theta in thetas]


def macro_cwe_metrics(rows: list[ScoredLabel]) -> tuple[float, float, float]:
    """One-vs-rest macro average over the CWE labels present in the truth.

    Only rows whose truth marks a vulnerability take part; a label the
    predictor never emits contributes zero precision for that label. The
    rows are counted once, by (truth, predicted) label pair.
    """
    pairs = Counter((r.truth_cwe, r.pred_cwe) for r in rows if r.truth_vul and r.truth_cwe)
    if not pairs:
        raise NoPositiveRows("no labeled vulnerable rows for macro metrics")
    truth: Counter[str] = Counter()
    predicted: Counter[str | None] = Counter()
    for (truth_cwe, pred_cwe), k in pairs.items():
        truth[truth_cwe] += k
        predicted[pred_cwe] += k
    p_sum = r_sum = f_sum = 0.0
    for label in sorted(truth):
        tp = pairs[label, label]
        precision, recall, f1 = _prf(tp, predicted[label] - tp, truth[label] - tp)
        p_sum += precision
        r_sum += recall
        f_sum += f1
    n = len(truth)
    return p_sum / n, r_sum / n, f_sum / n


def build_report(rows: list[ScoredLabel], theta_out: float) -> MetricsReport:
    """Every metric of one run from one sort of its rows."""
    points = _scored(rows)
    precision, recall, f1 = _prf(*_counts_at(points, theta_out))
    macro_p, macro_r, macro_f1 = macro_cwe_metrics(rows)
    mean_latency = math.fsum([r.latency_seconds for r in rows]) / len(rows)
    auroc_, auprc_ = _rank_areas(points, "auroc")
    return MetricsReport(precision, recall, f1, auroc_, auprc_,
                         macro_p, macro_r, macro_f1, mean_latency)


def repeated_mean(reports: list[MetricsReport]) -> MetricsReport:
    """Field-wise mean over per-run reports; n_runs becomes the run count."""
    if not reports:
        raise ValueError("no reports to average")
    n = len(reports)
    return MetricsReport(**{f.name: math.fsum(getattr(r, f.name) for r in reports) / n
                            for f in fields(MetricsReport) if f.name != "n_runs"},
                         n_runs=n)
