"""Classification metrics over scored predictions.

Verdicts derive from p_yes thresholded at theta_out; ranking metrics use the
raw scores. Zero-denominator cases follow the 0-convention throughout so a
degenerate run reports zeros instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .errors import NoPositiveRows, SingleClass


@dataclass(slots=True)
class ScoredLabel:
    ir_id: str
    p_yes: float
    truth_vul: bool
    truth_cwe: str | None = None
    pred_cwe: str | None = None
    latency_seconds: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_yes <= 1.0:
            raise ValueError(f"{self.ir_id}: p_yes {self.p_yes} outside [0, 1]")
        if self.latency_seconds < 0.0:
            raise ValueError(f"{self.ir_id}: negative latency")


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
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "auroc": self.auroc,
            "auprc": self.auprc,
            "macro_p": self.macro_p,
            "macro_r": self.macro_r,
            "macro_f1": self.macro_f1,
            "mean_latency": self.mean_latency,
            "n_runs": self.n_runs,
        }


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision > 0.0 and recall > 0.0 else 0.0)
    return precision, recall, f1


def classification_metrics(rows: list[ScoredLabel],
                           theta_out: float) -> tuple[float, float, float]:
    if not rows:
        raise ValueError("no rows to score")
    tp = sum(1 for r in rows if r.truth_vul and r.p_yes >= theta_out)
    fp = sum(1 for r in rows if not r.truth_vul and r.p_yes >= theta_out)
    fn = sum(1 for r in rows if r.truth_vul and r.p_yes < theta_out)
    return _prf(tp, fp, fn)


def auroc(rows: list[ScoredLabel]) -> float:
    """Tie-corrected rank statistic: P(score_pos > score_neg) + half-ties.

    One sort by score; each tie group adds its midrank once per positive in
    it. Midranks are half-integers, so the rank sum is exact and equals the
    per-row sum in any order.
    """
    ranked = sorted(rows, key=attrgetter("p_yes"))
    n = len(ranked)
    n_pos = 0
    rank_sum = 0.0
    i = 0
    while i < n:
        score = ranked[i].p_yes
        j = i
        group_pos = 0
        while j < n and ranked[j].p_yes == score:
            if ranked[j].truth_vul:
                group_pos += 1
            j += 1
        if group_pos:
            rank_sum += (i + 1 + j) / 2.0 * group_pos
            n_pos += group_pos
        i = j
    n_neg = n - n_pos
    if not n_pos or not n_neg:
        raise SingleClass("auroc needs both classes")
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(rows: list[ScoredLabel]) -> float:
    """Area under the precision-recall step curve over all distinct scores.

    One sort and one sweep (Davis & Goadrich, ICML 2006): rows are taken in
    descending score order, and a curve point is emitted after the last row
    of each distinct score, when tp and fp count every row at or above it.
    """
    n_pos = sum(1 for r in rows if r.truth_vul)
    if n_pos == 0 or n_pos == len(rows):
        raise SingleClass("auprc needs both classes")
    ranked = sorted(rows, key=lambda r: r.p_yes, reverse=True)
    area = 0.0
    prev_recall = 0.0
    tp = fp = 0
    for i, r in enumerate(ranked):
        if r.truth_vul:
            tp += 1
        else:
            fp += 1
        if i + 1 < len(ranked) and ranked[i + 1].p_yes == r.p_yes:
            continue
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def pr_curve(rows: list[ScoredLabel],
             interval: float) -> list[tuple[float, float, float]]:
    """One (theta, precision, recall) row per grid point from 0 to 1.

    Grid thetas are rounded to 12 decimals so accumulated float error cannot
    make a grid row disagree with classification_metrics at the same theta.
    """
    if not 0.0 < interval < 1.0:
        raise ValueError("interval must be in (0, 1)")
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
    out = []
    for theta in thetas:
        precision, recall, _ = classification_metrics(rows, theta)
        out.append((theta, precision, recall))
    return out


def macro_cwe_metrics(rows: list[ScoredLabel]) -> tuple[float, float, float]:
    """One-vs-rest macro average over the CWE labels present in the truth.

    Only rows whose truth marks a vulnerability take part; a label the
    predictor never emits contributes zero precision for that label.
    """
    vul_rows = [r for r in rows if r.truth_vul and r.truth_cwe]
    if not vul_rows:
        raise NoPositiveRows("no labeled vulnerable rows for macro metrics")
    labels = sorted({r.truth_cwe for r in vul_rows})
    p_sum = r_sum = f_sum = 0.0
    for label in labels:
        tp = sum(1 for r in vul_rows if r.truth_cwe == label and r.pred_cwe == label)
        fp = sum(1 for r in vul_rows if r.truth_cwe != label and r.pred_cwe == label)
        fn = sum(1 for r in vul_rows if r.truth_cwe == label and r.pred_cwe != label)
        precision, recall, f1 = _prf(tp, fp, fn)
        p_sum += precision
        r_sum += recall
        f_sum += f1
    n = len(labels)
    return p_sum / n, r_sum / n, f_sum / n


def build_report(rows: list[ScoredLabel], theta_out: float) -> MetricsReport:
    precision, recall, f1 = classification_metrics(rows, theta_out)
    macro_p, macro_r, macro_f1 = macro_cwe_metrics(rows)
    mean_latency = sum(r.latency_seconds for r in rows) / len(rows)
    return MetricsReport(precision, recall, f1, auroc(rows), auprc(rows),
                         macro_p, macro_r, macro_f1, mean_latency)


def repeated_mean(reports: list[MetricsReport]) -> MetricsReport:
    """Field-wise mean over per-run reports; n_runs becomes the run count."""
    if not reports:
        raise ValueError("no reports to average")
    n = len(reports)
    return MetricsReport(
        precision=sum(r.precision for r in reports) / n,
        recall=sum(r.recall for r in reports) / n,
        f1=sum(r.f1 for r in reports) / n,
        auroc=sum(r.auroc for r in reports) / n,
        auprc=sum(r.auprc for r in reports) / n,
        macro_p=sum(r.macro_p for r in reports) / n,
        macro_r=sum(r.macro_r for r in reports) / n,
        macro_f1=sum(r.macro_f1 for r in reports) / n,
        mean_latency=sum(r.mean_latency for r in reports) / n,
        n_runs=n,
    )
