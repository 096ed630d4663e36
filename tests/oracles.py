"""Slow, obviously correct versions that the fast code is checked against:
coreference metrics (MUC cluster by cluster, exhaustive CEAF alignments and
BLANC over explicit mention pairs) and the constant baseline's dollar fit
(the hinge loss evaluated at every candidate)."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from statreason.baselines import hinge_loss


def vilain_muc(gold, pred) -> tuple[float, float, float]:
    """MUC by counting, for each cluster, its parts under the other side."""

    def links(a, b) -> tuple[int, int]:
        owner = {m: i for i, c in enumerate(b) for m in c}
        kept = sum(len(c) - len({owner[m] for m in c}) for c in a)
        return kept, sum(len(c) - 1 for c in a)

    r_num, r_den = links(gold, pred)
    p_num, p_den = links(pred, gold)
    p = p_num / p_den if p_den else 0.0
    r = r_num / r_den if r_den else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def brute_force_ceaf(gold, pred, similarity):
    """Best one-to-one cluster alignment by exhaustive permutation."""
    gold = [frozenset(c) for c in gold]
    pred = [frozenset(c) for c in pred]
    if len(gold) <= len(pred):
        small, large, flip = gold, pred, False
    else:
        small, large, flip = pred, gold, True
    best = 0.0
    for perm in permutations(range(len(large)), len(small)):
        total = sum(
            similarity(small[i], large[j]) if not flip else similarity(large[j], small[i])
            for i, j in enumerate(perm)
        )
        best = max(best, total)
    return best


def subset_ceaf(gold, pred, similarity):
    """Best one-to-one cluster alignment by exhaustive search over the sets of
    clusters of the larger side already taken, memoized: the same optimum as
    `brute_force_ceaf`, reachable for a dozen clusters a side."""
    gold = [frozenset(c) for c in gold]
    pred = [frozenset(c) for c in pred]
    flip = len(gold) > len(pred)
    small, large = (pred, gold) if flip else (gold, pred)
    sim = [
        [similarity(l, s) if flip else similarity(s, l) for l in large]
        for s in small
    ]

    @lru_cache(maxsize=None)
    def best(i: int, taken: int) -> float:
        if i == len(small):
            return 0.0
        return max(
            sim[i][j] + best(i + 1, taken | 1 << j)
            for j in range(len(large))
            if not taken >> j & 1
        )

    return best(0, 0)


def overlap(a, b):
    return len(a & b)


def phi4(a, b):
    return 2 * len(a & b) / (len(a) + len(b))


def _prf(matched: float, total_pred: float, total_gold: float) -> tuple[float, float, float]:
    if total_pred == 0 and total_gold == 0:
        return 1.0, 1.0, 1.0
    p = matched / total_pred if total_pred else 0.0
    r = matched / total_gold if total_gold else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def oracle_ceaf_m(gold, pred) -> tuple[float, float, float]:
    best = subset_ceaf(gold, pred, overlap)
    return _prf(best, sum(len(c) for c in pred), sum(len(c) for c in gold))


def oracle_ceaf_e(gold, pred) -> tuple[float, float, float]:
    best = subset_ceaf(gold, pred, phi4)
    return _prf(best, len(pred), len(gold))


def _links(partition) -> set[frozenset]:
    return {frozenset(pair) for c in partition for pair in combinations(c, 2)}


def pairwise_blanc(gold, pred) -> tuple[float, float, float]:
    """BLANC from explicit sets of coreference and non-coreference links."""
    mentions = {m for c in gold for m in c}
    all_pairs = {frozenset(pair) for pair in combinations(mentions, 2)}
    gold_coref, pred_coref = _links(gold), _links(pred)
    gold_non, pred_non = all_pairs - gold_coref, all_pairs - pred_coref

    def component(gold_set: set, pred_set: set) -> tuple[float, float, float]:
        hit = len(gold_set & pred_set)
        p = hit / len(pred_set) if pred_set else 0.0
        r = hit / len(gold_set) if gold_set else 0.0
        return p, r, (2 * p * r / (p + r) if p + r else 0.0)

    coref = component(gold_coref, pred_coref)
    non = component(gold_non, pred_non)
    if not gold_coref and not pred_coref:
        return non if all_pairs else (1.0, 1.0, 1.0)
    if not gold_non and not pred_non:
        return coref
    return tuple((c + n) / 2 for c, n in zip(coref, non))


def brute_force_constant(targets: list[int]) -> int:
    """The dollar constant as first fitted: build the candidate set, then
    take the smallest candidate of least exact hinge loss, evaluating the
    loss afresh at each one."""
    candidates = {0}
    for y in targets:
        scale = max(Fraction(abs(y)) / 10, Fraction(5000))
        for point in (Fraction(y), y - scale, y + scale):
            for rounded in (int(point), int(point) + 1):
                if rounded >= 0:
                    candidates.add(rounded)
    top = 2 * max(targets)
    step = max(1, top // 200)
    candidates.update(range(0, top + 1, step))
    return min(sorted(candidates), key=lambda c: (hinge_loss(targets, c), c))
