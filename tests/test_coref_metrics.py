import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from statreason.coref_metrics import blanc, ceaf_e, ceaf_m, muc, COREF_METRICS

from generators import random_partition
from oracles import (
    brute_force_ceaf,
    oracle_ceaf_e,
    oracle_ceaf_m,
    overlap,
    pairwise_blanc,
    phi4,
    subset_ceaf,
    vilain_muc,
)


GOLD = [(0, 3), (1,), (2,), (4,), (5,), (6,), (7,)]  # one two-mention argument
SINGLETONS = [(i,) for i in range(8)]


class TestMUC:
    def test_singleton_prediction_is_zero(self):
        assert muc(GOLD, SINGLETONS).as_tuple() == (0.0, 0.0, 0.0)

    def test_perfect(self):
        assert muc(GOLD, GOLD).as_tuple() == (1.0, 1.0, 1.0)

    def test_overmerged_precision(self):
        gold = [(0,), (1,), (2,)]
        pred = [(0, 1, 2)]
        result = muc(gold, pred)
        # Two wrong links; merging cost: pred cluster splits into 3 gold parts.
        assert result.precision == pytest.approx((3 - 3) / 2)
        assert result.recall == 0.0


class Unread:
    """Clusters that fail the test when a metric reads them."""

    def __iter__(self):
        raise AssertionError("the predicted clusters were read before the gold ones were rejected")


@pytest.mark.parametrize("metric", COREF_METRICS.values(), ids=COREF_METRICS.keys())
class TestInputChecks:
    """Every metric rejects clusters that share a mention, gold before
    predicted, and then two sides that cover different mentions."""

    def test_mention_mismatch_rejected(self, metric):
        with pytest.raises(ValueError, match="^gold and predicted partitions cover different mentions$"):
            metric([(0,)], [(1,)])

    @pytest.mark.parametrize(
        "gold, pred",
        [([(0, 1), (1,)], Unread()), ([(0, 1)], [(0,), (0, 2)])],
        ids=["gold", "pred"],
    )
    def test_clusters_sharing_a_mention_rejected(self, metric, gold, pred):
        with pytest.raises(ValueError, match="^clusters are not disjoint$"):
            metric(gold, pred)


class TestCEAF:
    def test_mention_ceaf_singletons(self):
        # Best alignment matches each gold cluster with one of its singletons
        # (7 aligned mentions); both sides normalize by the 8 total mentions.
        result = ceaf_m(GOLD, SINGLETONS)
        assert result.precision == pytest.approx(7 / 8)
        assert result.recall == pytest.approx(7 / 8)

    def test_entity_ceaf_singletons(self):
        result = ceaf_e(GOLD, SINGLETONS)
        best = 6 * 1.0 + 2 / 3  # six exact singletons plus phi4 for the pair
        assert result.precision == pytest.approx(best / 8)
        assert result.recall == pytest.approx(best / 7)

    def test_perfect(self):
        assert ceaf_m(GOLD, GOLD).as_tuple() == (1.0, 1.0, 1.0)
        assert ceaf_e(GOLD, GOLD).as_tuple() == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_alignment_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 9)
        gold = random_partition(rng, n)
        pred = random_partition(rng, n)
        if len(gold) > 6 or len(pred) > 6:
            gold, pred = gold[:6], pred[:6]
            mentions = sorted({m for c in gold for m in c} & {m for c in pred for m in c})
            gold = [tuple(m for m in c if m in mentions) for c in gold]
            gold = [c for c in gold if c]
            pred = [tuple(m for m in c if m in mentions) for c in pred]
            pred = [c for c in pred if c]
            if not gold or not pred:
                return
        m_result = ceaf_m(gold, pred)
        total_mentions = sum(len(c) for c in gold)
        assert m_result.precision * sum(len(c) for c in pred) == pytest.approx(
            brute_force_ceaf(gold, pred, overlap)
        )
        e_result = ceaf_e(gold, pred)
        assert e_result.recall * len(gold) == pytest.approx(brute_force_ceaf(gold, pred, phi4))


class TestBLANC:
    def test_linkless_prediction_halves(self):
        result = blanc(GOLD, SINGLETONS)
        # Coreference component is zero; the non-coreference component is
        # nearly perfect, so precision sits just under one half.
        total_pairs = 8 * 7 // 2
        p_n = (total_pairs - 1) / total_pairs
        assert result.recall == pytest.approx(0.5)
        assert result.precision == pytest.approx(p_n / 2)

    def test_perfect(self):
        assert blanc(GOLD, GOLD).as_tuple() == (1.0, 1.0, 1.0)

    def test_all_coreferent_universe(self):
        one = [(0, 1, 2)]
        assert blanc(one, one).as_tuple() == (1.0, 1.0, 1.0)

    def test_single_mention_universe(self):
        assert blanc([(0,)], [(0,)]).as_tuple() == (1.0, 1.0, 1.0)


def test_all_metrics_perfect_on_random_partitions():
    rng = random.Random(99)
    for _ in range(200):
        clusters = random_partition(rng, rng.randrange(2, 15), ensure_link=True)
        for name, fn in COREF_METRICS.items():
            assert fn(clusters, clusters).as_tuple() == (1.0, 1.0, 1.0), name


def _group(mentions, labels):
    groups: dict[int, list] = {}
    for mention, label in zip(mentions, labels):
        groups.setdefault(label, []).append(mention)
    return [tuple(c) for c in groups.values()]


@st.composite
def block_universes(draw):
    """Gold and predicted partitions of a universe made of several blocks
    (subsections), each partitioned at random on both sides, plus one block
    whose two sides cross, so some overlap component is 2 x 2, 3 x 2 or 2 x 3."""
    gold, pred = [], []
    for b in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 3))
        mentions = [(f"s{b}", i, i + 1) for i in range(n)]
        labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        gold += _group(mentions, draw(labels))
        pred += _group(mentions, draw(labels))
    n, width = draw(st.integers(4, 6)), draw(st.integers(2, 3))
    mentions = [("cross", i, i + 1) for i in range(n)]
    runs, stripes = _group(mentions, [i // width for i in range(n)]), _group(mentions, [i % 2 for i in range(n)])
    if draw(st.booleans()):
        runs, stripes = stripes, runs
    return draw(st.permutations(gold + runs)), draw(st.permutations(pred + stripes))


def assert_matches_oracles(gold, pred):
    for fn, oracle in (
        (muc, vilain_muc), (ceaf_m, oracle_ceaf_m), (ceaf_e, oracle_ceaf_e), (blanc, pairwise_blanc)
    ):
        assert fn(gold, pred).as_tuple() == pytest.approx(oracle(gold, pred), abs=1e-12, rel=0)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(block_universes())
    def test_block_universes_match_oracles(self, universe):
        assert_matches_oracles(*universe)

    @pytest.mark.parametrize(
        "gold, pred",
        [
            ([], []),
            ([(0,)], [(0,)]),
            ([(i,) for i in range(6)], [(i,) for i in range(6)]),
            ([(i,) for i in range(6)], [tuple(range(6))]),
            ([tuple(range(6))], [tuple(range(6))]),
            ([tuple(range(6))], [(i,) for i in range(6)]),
            ([(0, 1), (2, 3)], [(0, 2), (1, 3)]),
        ],
        ids=["empty", "single", "singletons", "singletons-vs-one", "one", "one-vs-singletons", "cross"],
    )
    def test_edge_cases_match_oracles(self, gold, pred):
        assert_matches_oracles(gold, pred)

    @pytest.mark.parametrize("seed", range(20))
    def test_subset_oracle_matches_permutation_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 8)
        gold, pred = random_partition(rng, n), random_partition(rng, n)
        for similarity in (overlap, phi4):
            assert subset_ceaf(gold, pred, similarity) == pytest.approx(
                brute_force_ceaf(gold, pred, similarity)
            )
