"""Slow, obviously-correct re-implementations used to cross-check the library.

Everything here is written the dumb way on purpose: plain loops, exhaustive
enumeration, no shared code with src/. Tests compare library output against
these within tight tolerances.
"""

from __future__ import annotations

import math
import re
from collections import Counter

try:
    from re import _parser as sre_parser
except ImportError:  # Python 3.10 names the parser sre_parse
    import sre_parse as sre_parser

TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")


def oracle_tokenize(text: str, stopwords: frozenset[str]) -> list[str]:
    return [t for t in TOKEN_RE.findall(text.lower()) if t not in stopwords]


def oracle_tfidf_weights(doc_tokens: list[str], corpus_tokens: list[list[str]]) -> dict[str, float]:
    """Raw-count tf times smoothed idf for one document against a corpus."""
    n = len(corpus_tokens)
    tf = Counter(doc_tokens)
    weights = {}
    for term, count in tf.items():
        df = sum(1 for toks in corpus_tokens if term in toks)
        idf = math.log((1 + n) / (1 + df)) + 1.0
        weights[term] = count * idf
    return weights


def oracle_cosine(wa: dict[str, float], wb: dict[str, float]) -> float:
    na = math.sqrt(math.fsum(v * v for v in wa.values()))
    nb = math.sqrt(math.fsum(v * v for v in wb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = math.fsum(wa[t] * wb.get(t, 0.0) for t in wa)
    return dot / (na * nb)


def oracle_similarity(a: str, b: str, corpus: list[str], stopwords: frozenset[str]) -> float:
    corpus_tokens = [oracle_tokenize(d, stopwords) for d in corpus]
    wa = oracle_tfidf_weights(oracle_tokenize(a, stopwords), corpus_tokens)
    wb = oracle_tfidf_weights(oracle_tokenize(b, stopwords), corpus_tokens)
    return oracle_cosine(wa, wb)


def oracle_precision_recall_f1(y_true: list[int], y_pred: list[int]) -> tuple[float, float, float]:
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1


def oracle_auroc(y_true: list[int], scores: list[float]) -> float:
    """All-pairs Mann-Whitney statistic; ties count one half."""
    pos = [s for t, s in zip(y_true, scores) if t == 1]
    neg = [s for t, s in zip(y_true, scores) if t == 0]
    if not pos or not neg:
        raise ValueError("AUROC needs both classes")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_midrank_auroc(rows) -> float:
    """Midrank AUROC the direct way: rows sorted by score, every row's
    midrank stored under id(row), then the positives' midranks summed in row
    order. rows carry .p_yes and .truth_vul; the library must match the
    result bit for bit, not approximately."""
    pos = [r.p_yes for r in rows if r.truth_vul]
    neg = [r.p_yes for r in rows if not r.truth_vul]
    if not pos or not neg:
        raise ValueError("AUROC needs both classes")
    ranked = sorted(rows, key=lambda r: r.p_yes)
    ranks: dict[int, float] = {}
    i = 0
    while i < len(ranked):
        j = i
        while j < len(ranked) and ranked[j].p_yes == ranked[i].p_yes:
            j += 1
        midrank = (i + 1 + j) / 2.0
        for k in range(i, j):
            ranks[id(ranked[k])] = midrank
        i = j
    rank_sum = math.fsum(ranks[id(r)] for r in rows if r.truth_vul)
    n_pos, n_neg = len(pos), len(neg)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _oracle_prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision > 0.0 and recall > 0.0 else 0.0)
    return precision, recall, f1


def _oracle_counts(rows, theta: float) -> tuple[int, int, int]:
    tp = sum(1 for r in rows if r.truth_vul and r.p_yes >= theta)
    fp = sum(1 for r in rows if not r.truth_vul and r.p_yes >= theta)
    fn = sum(1 for r in rows if r.truth_vul and r.p_yes < theta)
    return tp, fp, fn


def _oracle_step_auprc(rows) -> float:
    """Descending sweep with a curve point after each distinct score."""
    n_pos = sum(1 for r in rows if r.truth_vul)
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


def oracle_build_report(rows, theta_out: float) -> dict[str, float]:
    """One run's report fields the direct way: each count by its own pass
    over the rows, each macro label by three more, AUROC by the midrank
    oracle and AUPRC by its own descending sweep. rows carry .p_yes,
    .truth_vul, .truth_cwe, .pred_cwe and .latency_seconds and hold both
    classes and a labeled positive; the library must match bit for bit."""
    precision, recall, f1 = _oracle_prf(*_oracle_counts(rows, theta_out))
    vul_rows = [r for r in rows if r.truth_vul and r.truth_cwe]
    labels = sorted({r.truth_cwe for r in vul_rows})
    p_sum = r_sum = f_sum = 0.0
    for label in labels:
        tp = sum(1 for r in vul_rows if r.truth_cwe == label and r.pred_cwe == label)
        fp = sum(1 for r in vul_rows if r.truth_cwe != label and r.pred_cwe == label)
        fn = sum(1 for r in vul_rows if r.truth_cwe == label and r.pred_cwe != label)
        lp, lr, lf = _oracle_prf(tp, fp, fn)
        p_sum += lp
        r_sum += lr
        f_sum += lf
    n = len(labels)
    return {
        "precision": precision, "recall": recall, "f1": f1,
        "auroc": oracle_midrank_auroc(rows), "auprc": _oracle_step_auprc(rows),
        "macro_p": p_sum / n, "macro_r": r_sum / n, "macro_f1": f_sum / n,
        "mean_latency": math.fsum(r.latency_seconds for r in rows) / len(rows),
    }


def oracle_pr_curve(rows, interval: float) -> list[tuple[float, float, float]]:
    """(theta, precision, recall) at each grid theta, rows re-counted at
    every theta."""
    thetas = []
    i = 0
    while round(i * interval, 12) <= 1.0:
        thetas.append(round(i * interval, 12))
        i += 1
    if thetas[-1] != 1.0:
        thetas.append(1.0)
    return [(theta, *_oracle_prf(*_oracle_counts(rows, theta))[:2]) for theta in thetas]


def oracle_auprc(y_true: list[int], scores: list[float]) -> float:
    """Area under the precision-recall step curve by full threshold re-scan."""
    n_pos = sum(y_true)
    if n_pos == 0:
        raise ValueError("AUPRC needs at least one positive")
    thresholds = sorted(set(scores), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for th in thresholds:
        tp = sum(1 for t, s in zip(y_true, scores) if t == 1 and s >= th)
        fp = sum(1 for t, s in zip(y_true, scores) if t == 0 and s >= th)
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


ADJ_EPSILON = 1e-6


def oracle_adjacency(node_texts: dict[str, str], edge_pairs: list[tuple[str, str]],
                     target_text: str, stopwords: frozenset[str]) -> dict[tuple[str, str], float]:
    """Target-conditioned weight for every connected node pair.

    weight(i, j) = max(0, sim(target, text_i + " " + text_j) - sim(target, text_i))
    plus a 1e-6 floor, with similarities computed over an index whose corpus is
    the target text plus all node texts.
    """
    corpus = [target_text] + [node_texts[n] for n in node_texts]
    out = {}
    for src, dst in edge_pairs:
        joined = node_texts[src] + " " + node_texts[dst]
        s_joined = oracle_similarity(target_text, joined, corpus, stopwords)
        s_src = oracle_similarity(target_text, node_texts[src], corpus, stopwords)
        out[(src, dst)] = max(0.0, s_joined - s_src) + ADJ_EPSILON
    return out


def oracle_edge_probabilities(pair_weights: dict[tuple[str, str], float],
                              multi_edges: list[tuple[str, str]]) -> dict[tuple[str, str], float]:
    """Degree-weighted raw scores normalized per source node.

    raw(i, j) = weight(i, j) * (1/deg(i) + 1/deg(j)) where deg counts every
    incident action in the multigraph (in plus out, parallels separate).
    """
    deg: dict[str, int] = {}
    for src, dst in multi_edges:
        deg[src] = deg.get(src, 0) + 1
        deg[dst] = deg.get(dst, 0) + 1
    raw = {pair: w * (1.0 / deg[pair[0]] + 1.0 / deg[pair[1]])
           for pair, w in pair_weights.items()}
    probs = {}
    for src in {p[0] for p in raw}:
        out_pairs = [p for p in raw if p[0] == src]
        total = math.fsum(raw[p] for p in out_pairs)
        for p in out_pairs:
            probs[p] = raw[p] / total
    return probs


def oracle_terminated_paths(decided: dict[str, bool],
                            edges: list[tuple[str, str, str, str]],
                            root: str = "O1",
                            terminator: str = "AgentTerminator",
                            ) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(node ids, action ids) of every terminated root-to-end path, listed by
    exhaustive recursion and then sorted by node ids.

    decided maps a node id to whether it carries a verdict; edges are
    (action id, src, dst, tool). Parallel actions between one pair count as
    one hop, represented by a terminator if there is one, else the smallest
    action id. A path terminated if its last action is a terminator or its
    end is decided.
    """
    out = []

    def walk(seq: list[str], acts: list[tuple[str, str]]) -> None:
        successors = sorted({dst for _, src, dst, _ in edges if src == seq[-1]})
        if not successors:
            if (acts and acts[-1][1] == terminator) or decided[seq[-1]]:
                out.append((tuple(seq), tuple(a for a, _ in acts)))
            return
        for nxt in successors:
            between = [(a, tool) for a, src, dst, tool in edges
                       if src == seq[-1] and dst == nxt]
            terminators = [x for x in between if x[1] == terminator]
            walk(seq + [nxt], acts + [terminators[0] if terminators else min(between)])

    if root in decided:
        walk([root], [])
    return sorted(out)


def oracle_maximal_paths(edges: list[tuple[str, str]],
                         root: str = "O1") -> list[tuple[str, ...]]:
    """Every root-to-sink node path of the (src, dst) edges, listed by
    exhaustive recursion over a set of paths and then sorted."""
    out = set()

    def walk(seq: tuple[str, ...]) -> None:
        nexts = {dst for src, dst in edges if src == seq[-1]}
        if not nexts:
            out.add(seq)
        for nxt in nexts:
            walk(seq + (nxt,))

    walk((root,))
    return sorted(out)


def oracle_literal_runs(pattern: str) -> list[str]:
    """The runs of consecutive LITERAL items at the top level of the tree
    the stdlib parser makes of `pattern` (with DOTALL, as stub rules are
    compiled), as strings; none when it ignores case. Every match of the
    pattern holds each run."""
    tree = sre_parser.parse(pattern, re.DOTALL)
    if tree.state.flags & re.IGNORECASE:
        return []
    runs, run = [], []
    for op, av in tree:
        if op is sre_parser.LITERAL:
            run.append(chr(av))
        else:
            runs.append("".join(run))
            run = []
    runs.append("".join(run))
    return [r for r in runs if r]


def oracle_template_pieces(pattern: re.Pattern, template: str) -> tuple[str | int, ...]:
    """`template` as alternating literal text and group numbers, as
    Match.expand itself reads it: the template is expanded against a
    stand-in match with the groups of `pattern`, in which group i captures
    a mark, i, a mark, and the result is split at the marks. The mark is a
    character the template lacks, past U+00FF, which is as far as a
    template escape reaches. Raises what Match.expand raises."""
    mark = next(chr(c) for c in range(0x100, 0x110000) if chr(c) not in template)
    names = {i: name for name, i in pattern.groupindex.items()}
    captured = [f"{mark}{i}{mark}" for i in range(pattern.groups + 1)]
    groups = ""
    for i in range(1, pattern.groups + 1):
        opener = f"(?P<{names[i]}>" if i in names else "("
        groups += opener + re.escape(captured[i]) + ")"
    # the groups match inside a lookahead, so group 0 spans captured[0] alone
    stand_in = re.compile(re.escape(captured[0]) + "(?=" + groups + ")")
    expanded = stand_in.match("".join(captured)).expand(template)
    pieces = expanded.split(mark)
    return tuple(int(p) if k % 2 else p for k, p in enumerate(pieces))
