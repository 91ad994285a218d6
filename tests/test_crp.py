"""Clustering tests: hand-traced fixtures, reference-loop equivalence, properties."""

import builtins
import math
import pickle

import numpy as np
import pytest

from cogclust import (
    CrpConfig,
    DegenerateInputError,
    Partition,
    ValidationError,
    crp_cluster,
    crp_cluster_with_history,
    evaluate_dataset,
    flat_cluster_threshold,
    pearson,
)

from oracles import crp_reference, flat_reference


def symmetric(entries, n):
    s = np.zeros((n, n))
    for i, j, v in entries:
        s[i, j] = s[j, i] = v
    return s


def random_similarity(rng, n):
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    s = (raw + raw.T) / 2
    np.fill_diagonal(s, rng.uniform(0.0, 1.0, size=n))
    return s


class TestPartition:
    def test_labels_must_be_dense(self):
        with pytest.raises(ValidationError):
            Partition((0, 2))
        with pytest.raises(ValidationError):
            Partition((1, 1))
        with pytest.raises(ValidationError):
            Partition(())
        with pytest.raises(ValidationError, match="not contiguous"):
            Partition((-1, 1))  # as many labels as 0..max, but not those

    def test_from_labels_renumbers_by_first_appearance(self):
        p = Partition.from_labels(["x", "y", "x", "z"])
        assert p.labels == (0, 1, 0, 2)
        assert p.k == 3
        assert p.n == 4

    def test_from_labels_equality_ignores_label_values(self):
        # How tests compare set partitions: renumber both, then compare.
        def same(x, y):
            return Partition.from_labels(x) == Partition.from_labels(y)

        assert same((0, 1, 0), (1, 0, 1))
        assert not same((0, 1, 0), (0, 0, 1))
        assert not same((0, 1), (0, 1, 1))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValidationError):
            Partition((0.0, 1.0))

    def test_k_is_counted_when_made_and_left_out_of_repr_eq_and_hash(self):
        made = [Partition((0,)), Partition((0, 1, 0, 2)), Partition.from_labels("xyxzy"),
                Partition.from_labels([7, 7, 7])]
        for p in made:
            assert p.k == max(p.labels) + 1
        assert repr(Partition((0, 1, 0))) == "Partition(labels=(0, 1, 0))"
        same, other_k = Partition((0, 1, 0)), Partition((0, 1, 0))
        object.__setattr__(other_k, "k", 5)
        assert same == other_k
        assert hash(same) == hash(other_k)

    def test_k_survives_pickle(self):
        # A process pool returns partitions by pickle, which skips __post_init__.
        restored = pickle.loads(pickle.dumps(Partition((0, 1, 1, 2))))
        assert restored == Partition((0, 1, 1, 2))
        assert vars(restored)["k"] == 3


class TestCrpConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CrpConfig(alpha=0.0)
        with pytest.raises(ValidationError):
            CrpConfig(max_scans=0)
        with pytest.raises(ValidationError):
            CrpConfig(linkage="complete")
        with pytest.raises(ValidationError):
            CrpConfig(alpha=float("nan"))
        with pytest.raises(ValidationError, match="shuffle_seed"):
            CrpConfig(shuffle_seed=-1)
        for bad in ({"max_scans": 2.5}, {"max_scans": "3"}, {"max_scans": None},
                    {"shuffle_seed": 1.5}, {"shuffle_seed": "1"}):
            with pytest.raises(ValidationError, match=f"{next(iter(bad))} must be an integer"):
                CrpConfig(**bad)
        for alpha in ("0.5", None, np.array([0.5, 0.6])):
            with pytest.raises(ValidationError, match="alpha must be > 0"):
                CrpConfig(alpha=alpha)
        CrpConfig(shuffle_seed=0)
        cfg = CrpConfig(max_scans=np.int64(2), shuffle_seed=np.uint8(7))
        assert (cfg.max_scans, cfg.shuffle_seed) == (2, 7)
        assert type(cfg.max_scans) is int and type(cfg.shuffle_seed) is int
        assert crp_cluster(np.eye(3), cfg).n == 3

    def test_defaults(self):
        cfg = CrpConfig()
        assert cfg.alpha == 0.01
        assert cfg.max_scans == 3
        assert cfg.linkage == "average"


class TestCrpFixtures:
    def test_single_word(self):
        part = crp_cluster(np.zeros((1, 1)))
        assert part.labels == (0,)

    def test_all_zero_similarities_make_singletons(self):
        part = crp_cluster(np.zeros((4, 4)), CrpConfig(alpha=0.01))
        assert part.k == 4

    def test_hand_trace_pair_plus_outlier(self):
        # w0 joins w1 (similarity 5 >= alpha), w2 stays alone.
        s = symmetric([(0, 1, 5.0)], 3)
        part, history = crp_cluster_with_history(s, CrpConfig())
        assert part.labels == (0, 0, 1)
        assert history[-1] == 0
        assert len(history) <= 3

    def test_hand_trace_two_blocks_of_three(self):
        s = np.zeros((6, 6))
        for block in ((0, 1, 2), (3, 4, 5)):
            for i in block:
                for j in block:
                    if i != j:
                        s[i, j] = 3.0
        part, history = crp_cluster_with_history(s, CrpConfig())
        assert part.labels == (0, 0, 0, 1, 1, 1)
        assert history[-1] == 0
        assert len(history) <= 3

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValidationError):
            crp_cluster(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ValidationError):
            crp_cluster(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
        with pytest.raises(DegenerateInputError):
            crp_cluster(np.zeros((0, 0)))

    @pytest.mark.parametrize("cluster", [crp_cluster, lambda s: flat_cluster_threshold(s, 0.5)],
                             ids=["crp", "flat"])
    def test_non_square_matrix_rejected(self, cluster):
        with pytest.raises(ValidationError, match="must be square"):
            cluster(np.zeros((2, 3)))


class TestCrpAgainstReference:
    def test_random_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            s = random_similarity(rng, n)
            alpha = float(rng.uniform(0.01, 0.9))
            linkage = "average" if rng.random() < 0.5 else "single"
            part = crp_cluster(s, CrpConfig(alpha=alpha, linkage=linkage))
            expected = crp_reference(s.tolist(), alpha=alpha, linkage=linkage)
            assert list(part.labels) == expected
        # Small integer entries make exact ties and linkages equal to alpha
        # common, so the lowest-label and boundary rules decide most visits.
        # The last 20 run 200 scans, so scans that never settle renumber.
        for case in range(60):
            n = int(rng.integers(1, 41))
            raw = rng.integers(0, 4, size=(n, n)).astype(float)
            s = np.triu(raw) + np.triu(raw, 1).T
            alpha = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            max_scans = int(rng.choice([1, 3, 50])) if case < 40 else 200
            for linkage in ("average", "single"):
                config = CrpConfig(alpha=alpha, max_scans=max_scans, linkage=linkage)
                part = crp_cluster(s, config)
                expected = crp_reference(
                    s.tolist(), alpha=alpha, max_scans=max_scans, linkage=linkage
                )
                assert list(part.labels) == expected

    def test_tie_goes_to_lowest_label(self):
        # w0 is equally similar to w1 and w2; the trace in crp_reference and
        # the implementation must agree on which cluster wins.
        s = symmetric([(0, 1, 2.0), (0, 2, 2.0)], 3)
        part = crp_cluster(s, CrpConfig(alpha=0.01))
        assert list(part.labels) == crp_reference(s.tolist())

    def test_single_linkage_tie_across_clusters_goes_to_lowest_label(self):
        # When w3 is visited, its nearest neighbours are w1 (label 1) and w2
        # (label 0, shared with w0); the first neighbour by word index would
        # put it with w1 instead.
        s = symmetric([(0, 2, 3.0), (1, 3, 2.0), (2, 3, 2.0)], 4)
        config = CrpConfig(alpha=1.0, max_scans=1, linkage="single")
        part = crp_cluster(s, config)
        assert part.labels == (0, 1, 0, 0)
        assert list(part.labels) == crp_reference(
            s.tolist(), alpha=1.0, max_scans=1, linkage="single"
        )

    # The scan never settles on this matrix at alpha 1.5: w0, w3 and w4 trade
    # places, two moves per scan, and every other scan one of them opens a new
    # cluster one above the highest label in use.
    NEVER_SETTLES = np.array([
        [0, 0, 0, 1, 3],
        [0, 3, 2, 0, 3],
        [0, 2, 0, 2, 2],
        [1, 0, 2, 1, 2],
        [3, 3, 2, 2, 0],
    ], dtype=float)

    def test_labels_climb_past_the_word_count(self):
        # Within a scan labels climb past n = 5. Left alone they would reach
        # 29 in 50 scans; the scan renumbers them in order after each scan
        # that ends with one at n or above, and no result changes.
        s = self.NEVER_SETTLES
        part, history = crp_cluster_with_history(s, CrpConfig(alpha=1.5, max_scans=50))
        assert list(part.labels) == crp_reference(s.tolist(), alpha=1.5, max_scans=50)
        assert part.labels == (0, 1, 1, 2, 0)
        assert history == [4] + [2] * 49

    def test_labels_stay_below_twice_the_word_count(self, monkeypatch):
        lengths = []
        bincount = np.bincount

        def recording_bincount(*args, **kwargs):
            counts = bincount(*args, **kwargs)
            lengths.append(len(counts))
            return counts

        monkeypatch.setattr(np, "bincount", recording_bincount)
        _, history = crp_cluster_with_history(
            self.NEVER_SETTLES, CrpConfig(alpha=1.5, max_scans=1000)
        )
        assert history == [4] + [2] * 999
        assert len(lengths) == 5 * 1000 and max(lengths) < 2 * 5

    def test_single_linkage_opens_no_label(self, monkeypatch):
        # A word whose row is zero or below alpha is, the matrix being
        # symmetric, no word's nearest neighbour, so it keeps its own label;
        # the other words only take labels of their neighbours. So no label
        # reaches n, and the scan never renumbers.
        raw = []
        from_labels = Partition.from_labels.__func__

        def recording_from_labels(cls, labels):
            raw.append(list(labels))
            return from_labels(cls, labels)

        monkeypatch.setattr(Partition, "from_labels", classmethod(recording_from_labels))
        rng = np.random.default_rng(47)
        for case in range(40):
            n = int(rng.integers(2, 30))
            alpha = float(rng.choice([1.0, 1.5, 2.0]))
            values = rng.integers(0, 4, size=(n, n)).astype(float)
            s = np.triu(values) + np.triu(values, 1).T
            quiet = rng.random(n) < 0.3
            s[quiet] = 0.0
            s[:, quiet] = 0.0
            if case % 2:  # rows entirely below alpha rather than zero
                below = rng.uniform(0.0, alpha, size=(n, n))
                below = np.triu(below) + np.triu(below, 1).T
                s[quiet] = below[quiet]
                s[:, quiet] = below[:, quiet]
            quiet_words = np.flatnonzero(s.max(axis=1) < alpha).tolist()
            for seed in (None, case):
                order = None if seed is None else np.random.default_rng(seed).permutation(n).tolist()
                for max_scans in (1, 3, 50):
                    config = CrpConfig(alpha=alpha, max_scans=max_scans, linkage="single",
                                       shuffle_seed=seed)
                    part, _ = crp_cluster_with_history(s, config)
                    assert list(part.labels) == crp_reference(
                        s.tolist(), alpha=alpha, max_scans=max_scans, linkage="single", order=order
                    )
                    labels = raw[-1]
                    assert max(labels) < n
                    assert all(labels[w] == w and labels.count(w) == 1 for w in quiet_words)


class TestCrpProperties:
    def test_always_a_valid_partition(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            s = random_similarity(rng, n)
            part = crp_cluster(s, CrpConfig(alpha=float(rng.uniform(0.05, 2.0))))
            assert part.n == n
            assert set(part.labels) == set(range(part.k))

    def test_scan_budget_respected(self):
        rng = np.random.default_rng(47)
        s = random_similarity(rng, 10)
        _, history = crp_cluster_with_history(s, CrpConfig(max_scans=1))
        assert len(history) == 1

    def test_stops_at_first_zero_change_scan(self):
        s = symmetric([(0, 1, 5.0)], 3)
        _, history = crp_cluster_with_history(s, CrpConfig(max_scans=50))
        assert history == [1, 0]

    def test_alpha_above_all_entries_gives_singletons(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            s = random_similarity(rng, n)
            part = crp_cluster(s, CrpConfig(alpha=float(s.max()) + 0.5))
            assert part.k == n

    def test_uniform_positive_single_linkage_merges_everything(self):
        for n in (2, 3, 6, 9):
            s = np.full((n, n), 2.0)
            part = crp_cluster(s, CrpConfig(alpha=0.01, linkage="single"))
            assert part.k == 1

    def test_two_tight_pairs_with_weak_bridges_stay_apart(self):
        # Single linkage with alpha below every positive entry does NOT force
        # one cluster: two strongly-bound pairs connected by weak positive
        # links are a fixed point with K=2. Documents actual behaviour of the
        # scan, which reassigns words but never merges whole clusters.
        s = symmetric(
            [(0, 1, 10.0), (2, 3, 10.0),
             (0, 2, 0.1), (0, 3, 0.1), (1, 2, 0.1), (1, 3, 0.1)],
            4,
        )
        part = crp_cluster(s, CrpConfig(alpha=0.05, linkage="single"))
        assert part.labels == (0, 0, 1, 1)

    def test_scale_covariance(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            s = random_similarity(rng, n)
            alpha = float(rng.uniform(0.05, 0.9))
            base = crp_cluster(s, CrpConfig(alpha=alpha))
            for c in (0.5, 2.0, 10.0):
                scaled = crp_cluster(c * s, CrpConfig(alpha=c * alpha))
                assert Partition.from_labels(scaled.labels) == Partition.from_labels(base.labels)

    def test_boundary_alpha_joins_cluster(self):
        # linkage == alpha joins; only strictly-below opens a new cluster
        s = symmetric([(0, 1, 1.0)], 2)
        assert crp_cluster(s, CrpConfig(alpha=1.0)).k == 1
        assert crp_cluster(s, CrpConfig(alpha=1.0000001)).k == 2

    def test_shuffle_seed_is_deterministic_and_valid(self):
        rng = np.random.default_rng(61)
        s = random_similarity(rng, 12)
        a = crp_cluster(s, CrpConfig(shuffle_seed=7))
        b = crp_cluster(s, CrpConfig(shuffle_seed=7))
        assert a == b
        assert a.n == 12

    def test_average_vs_single_linkage_differ_where_expected(self):
        # Chain 0-1-2: single linkage pulls 2 in via its strong link to 1;
        # average linkage dilutes it below alpha.
        s = symmetric([(0, 1, 4.0), (1, 2, 4.0)], 3)
        single = crp_cluster(s, CrpConfig(alpha=2.5, linkage="single"))
        average = crp_cluster(s, CrpConfig(alpha=2.5, linkage="average"))
        assert single.k == 1
        assert average.k != 1


class TestSummation:
    def test_results_do_not_depend_on_builtin_sum(self, monkeypatch):
        # From Python 3.12 on, builtin sum() of floats is compensated, like
        # math.fsum. Each input below is chosen so that a compensated sum
        # changes the outcome; the results must follow plain left-to-right
        # addition whatever sum() does.
        s = np.array(
            [[0.0, 1.0, 1.0, 0.1],
             [1.0, 0.0, 1.0, 0.2],
             [1.0, 1.0, 0.0, 0.3],
             [0.1, 0.2, 0.3, 0.0]]
        )
        config = CrpConfig(alpha=(0.1 + 0.2 + 0.3) / 3, max_scans=50)
        assert math.fsum([0.1, 0.2, 0.3]) / 3 < config.alpha
        predictions = {
            "M0": Partition((0, 1, 1, 2)),
            "M1": Partition((0, 0, 0)),
            "M2": Partition((0, 1, 2, 3)),
        }
        gold = {
            "M0": Partition((0, 1, 2, 0)),
            "M1": Partition((0, 1, 1)),
            "M2": Partition((0, 1, 2, 0)),
        }
        counts = ([3, 1, 4], [3, 2, 3])

        def run():
            return (
                crp_cluster_with_history(s, config),
                evaluate_dataset(predictions, gold),
                pearson(*counts),
            )

        expected = run()
        monkeypatch.setattr(builtins, "sum", math.fsum)
        assert run() == expected

        (partition, history), report, r = expected
        assert partition.labels == (0, 0, 0, 0)
        assert history == [3, 0]
        f_scores = [e.score.f_score for e in report.per_meaning.values()]
        assert f_scores == [0.75, 5 / 7, 6 / 7]
        assert report.aggregate.f_score == (0.75 + 5 / 7 + 6 / 7) / 3
        assert math.fsum(f_scores) != 0.75 + 5 / 7 + 6 / 7
        assert r == report.cluster_count_correlation


class TestFlatThreshold:
    def test_threshold_above_everything_keeps_singletons(self):
        s = symmetric([(0, 1, 5.0)], 3)
        assert flat_cluster_threshold(s, 6.0).k == 3

    def test_threshold_zero_with_positive_similarities_merges_all(self):
        rng = np.random.default_rng(67)
        s = random_similarity(rng, 6) + 0.01
        s = (s + s.T) / 2
        assert flat_cluster_threshold(s, 0.0).k == 1

    def test_hand_trace_pair_plus_outlier(self):
        s = symmetric([(0, 1, 5.0)], 3)
        part = flat_cluster_threshold(s, 1.0)
        assert part.labels == (0, 0, 1)

    def test_average_linkage_merge_order(self):
        # (0,1) merge first (avg 6); cluster {0,1} to {2} then averages
        # (2+4)/2 = 3 >= 2.5, so everything merges at threshold 2.5 but not 3.5.
        s = symmetric([(0, 1, 6.0), (1, 2, 4.0), (0, 2, 2.0)], 3)
        assert flat_cluster_threshold(s, 2.5).k == 1
        assert flat_cluster_threshold(s, 3.5).labels == (0, 0, 1)

    def test_single_item(self):
        assert flat_cluster_threshold(np.zeros((1, 1)), 1.0).k == 1

    def test_matches_the_reference(self):
        # Integer values for even n, dyadic ones (k/8) for odd n: every sum is
        # exact in any order, so the order of addition cannot decide a merge.
        rng = np.random.default_rng(71)
        for n in [*range(1, 41), 120]:
            denominator = 8 if n % 2 else 1
            raw = rng.integers(0, 3 * denominator + 1, size=(n, n)) / denominator
            s = np.triu(raw) + np.triu(raw, 1).T
            entries = rng.choice(s.ravel(), size=2).tolist()  # exact ties
            # The reference takes about 0.4 s per threshold at n = 120.
            thresholds = (0.0, 0.5, 1.0, 2.5, *entries) if n <= 40 else entries
            for threshold in thresholds:
                got = flat_cluster_threshold(s, threshold).labels
                assert list(got) == flat_reference(s.tolist(), threshold), (n, threshold)

    def test_nan_threshold_rejected(self):
        s = symmetric([(0, 1, 5.0)], 3)
        for threshold in (float("nan"), np.float64("nan"), "abc", None, "1.5",
                          np.array([0.5, 0.6])):
            with pytest.raises(ValidationError) as err:
                flat_cluster_threshold(s, threshold)
            assert str(err.value) == f"threshold must be a number, got {threshold!r}"
