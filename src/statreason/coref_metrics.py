"""Standard coreference metrics over mention partitions: MUC, CEAF, BLANC.

Partitions are collections of disjoint mention sets; both sides must cover
the same mention universe (mentions are given, not predicted). Degenerate
0/0 ratios score 0, so a linkless prediction scored against a gold partition
that has links comes out 0/0/0 under MUC.

Each metric is a formula over the contingency counts: the sizes of the
clusters on each side and the overlaps |g & p| of the gold and predicted
clusters that share a mention (Luo 2005). CEAF's optimal alignment splits into the
connected components of that overlap graph: similarity is zero between
clusters that share no mention and never negative, so the best global
alignment is exactly the sum of the best alignments of the components.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter

from .metrics import PRF, prf
from .model import components

Partition = list[frozenset]


def _as_partition(clusters) -> Partition:
    out = [frozenset(c) for c in clusters if len(c) > 0]
    mentions = [m for c in out for m in c]
    if len(mentions) != len(set(mentions)):
        raise ValueError("clusters are not disjoint")
    return out


def _contingency(gold_clusters, pred_clusters) -> tuple[list[int], list[int], Counter]:
    """The gold cluster sizes, the predicted cluster sizes and the overlaps
    |gold[i] & pred[j]| keyed by (i, j), for the pairs that share a mention;
    both sides are checked to be partitions of the same mentions."""
    gold, pred = _as_partition(gold_clusters), _as_partition(pred_clusters)
    owner = {m: j for j, c in enumerate(pred) for m in c}
    if owner.keys() != {m for c in gold for m in c}:
        raise ValueError("gold and predicted partitions cover different mentions")
    overlaps = Counter((i, owner[m]) for i, c in enumerate(gold) for m in c)
    return [len(c) for c in gold], [len(c) for c in pred], overlaps


def _scores(hit: int, n_pred: int, n_gold: int) -> PRF:
    """Precision, recall and F1 of `hit` matches; a 0/0 ratio scores 0."""
    return prf(hit, n_pred, n_gold) if n_pred or n_gold else PRF(0.0, 0.0, 0.0)


def muc(gold_clusters, pred_clusters) -> PRF:
    """Link-based metric: recall error counts the partitions of each gold
    cluster under the prediction, and symmetrically for precision.

    A cluster of size k split into q parts keeps k - q of its k - 1 links;
    summed over either side, the parts are the nonzero overlaps."""
    gold, pred, overlaps = _contingency(gold_clusters, pred_clusters)
    n = sum(gold)
    kept = n - len(overlaps)
    return _scores(kept, n - len(pred), n - len(gold))


def _components(pairs, n_gold: int, n_pred: int) -> list[tuple[list[int], list[int]]]:
    """(gold indices, pred indices) of each connected component of the
    bipartite graph whose edges are `pairs`; pred j is node n_gold + j."""
    out = []
    for group in components(n_gold + n_pred, ((i, n_gold + j) for i, j in pairs)):
        k = bisect_left(group, n_gold)
        out.append((group[:k], [j - n_gold for j in group[k:]]))
    return out


def _best_assignment(weights: list[list[float]]) -> list[float]:
    """Weights picked by a maximum-weight one-to-one assignment between the
    rows and columns of a non-negative matrix: the Hungarian method with
    potentials (Kuhn 1955; Munkres 1957), O(n^2 m) for n <= m after
    transposing. Every row of the shorter side gets a column."""
    if len(weights) > len(weights[0]):
        weights = [list(column) for column in zip(*weights)]
    n, m = len(weights), len(weights[0])
    u, v = [0.0] * (n + 1), [0.0] * (m + 1)
    row_of = [0] * (m + 1)  # 1-based row assigned to column j; column 0 is a sentinel
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        row_of[0], j0 = i, 0
        minv, used = [math.inf] * (m + 1), [False] * (m + 1)
        while row_of[j0]:
            used[j0] = True
            i0, delta, j1 = row_of[j0], math.inf, 0
            row, ui = weights[i0 - 1], u[i0]
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = -row[j - 1] - ui - v[j]
                    if reduced < minv[j]:
                        minv[j], way[j] = reduced, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    return [weights[row_of[j] - 1][j - 1] for j in range(1, m + 1) if row_of[j]]


def _ceaf(gold_clusters, pred_clusters, similarity) -> PRF:
    """Precision and recall of the best one-to-one cluster alignment: its total
    similarity over each side's self-similarity. `similarity(n, a, b)` scores
    clusters of sizes a and b sharing n mentions."""
    gold, pred, overlaps = _contingency(gold_clusters, pred_clusters)
    self_sim = lambda sizes: sum(similarity(k, k, k) for k in sizes)
    sim = {(i, j): similarity(n, gold[i], pred[j]) for (i, j), n in overlaps.items()}
    picked = []
    for rows, cols in _components(sim, len(gold), len(pred)):
        if len(rows) == 1 or len(cols) == 1:
            # every pair of a one-sided component shares a mention
            picked.append(max(sim[i, j] for i in rows for j in cols))
            continue
        picked.extend(_best_assignment([[sim.get((i, j), 0.0) for j in cols] for i in rows]))
    return prf(math.fsum(picked), self_sim(pred), self_sim(gold))


def _overlap(n: int, a: int, b: int) -> float:
    return float(n)


def _phi4(n: int, a: int, b: int) -> float:
    return 2.0 * n / (a + b)


def ceaf_m(gold_clusters, pred_clusters) -> PRF:
    """Mention-based CEAF: optimal one-to-one cluster alignment, overlap similarity."""
    return _ceaf(gold_clusters, pred_clusters, _overlap)


def ceaf_e(gold_clusters, pred_clusters) -> PRF:
    """Entity-based CEAF: optimal alignment under the normalized phi4 similarity."""
    return _ceaf(gold_clusters, pred_clusters, _phi4)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def blanc(gold_clusters, pred_clusters) -> PRF:
    """Averaged coreference-link and non-coreference-link scores.

    When neither side has coreference links the non-coreference component
    stands alone, and vice versa. Link counts come from cluster sizes: a
    cluster of size k holds C(k, 2) links, and the links both sides share
    are the C(n, 2) within each gold-pred overlap of size n.
    """
    gold, pred, overlaps = _contingency(gold_clusters, pred_clusters)
    all_pairs = _pairs(sum(gold))
    gold_coref = sum(map(_pairs, gold))
    pred_coref = sum(map(_pairs, pred))
    both_coref = sum(map(_pairs, overlaps.values()))
    gold_non, pred_non = all_pairs - gold_coref, all_pairs - pred_coref
    both_non = all_pairs - gold_coref - pred_coref + both_coref

    coref = _scores(both_coref, pred_coref, gold_coref)
    non = _scores(both_non, pred_non, gold_non)
    if not gold_coref and not pred_coref:
        return non if all_pairs else PRF(1.0, 1.0, 1.0)
    if not gold_non and not pred_non:
        return coref
    return PRF(
        (coref.precision + non.precision) / 2,
        (coref.recall + non.recall) / 2,
        (coref.f1 + non.f1) / 2,
    )


COREF_METRICS = {"muc": muc, "ceaf_m": ceaf_m, "ceaf_e": ceaf_e, "blanc": blanc}
