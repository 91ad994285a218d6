"""B-cubed scoring, correlation, and report rendering tests."""

import math

import numpy as np
import pytest

from cogclust import (
    BcubedScore,
    Partition,
    ValidationError,
    bcubed,
    evaluate_dataset,
    pearson,
    render_report,
    render_report_kv,
)

from oracles import bcubed_brute

SYNONYM_POLICY = "all transcriptions of a (language, meaning) kept as separate items"


def random_partition(rng, n, max_k=None):
    k = int(rng.integers(1, (max_k or n) + 1))
    labels = rng.integers(0, k, size=n)
    return Partition.from_labels(labels.tolist())


class TestBcubedFixtures:
    def test_identical_partitions_score_ones(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            p = random_partition(rng, int(rng.integers(1, 10)))
            assert bcubed(p, p) == BcubedScore(1.0, 1.0, 1.0)

    def test_all_singletons_against_pair_plus_singleton(self):
        gold = Partition.from_labels(["g1", "g1", "g2"])
        predicted = Partition((0, 1, 2))
        score = bcubed(predicted, gold)
        assert score.precision == 1.0
        assert score.recall == (0.5 + 0.5 + 1.0) / 3
        assert abs(score.f_score - 0.8) < 1e-12

    def test_single_cluster_against_pair_plus_singleton(self):
        gold = Partition.from_labels(["g1", "g1", "g2"])
        predicted = Partition((0, 0, 0))
        score = bcubed(predicted, gold)
        assert score.precision == (2 / 3 + 2 / 3 + 1 / 3) / 3
        assert score.recall == 1.0
        assert abs(score.f_score - 10 / 14) < 1e-12

    def test_item_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            bcubed(Partition((0, 1)), Partition((0, 1, 2)))


class TestBcubedProperties:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            pred = random_partition(rng, n)
            gold = random_partition(rng, n)
            score = bcubed(pred, gold)
            p, r, f = bcubed_brute(pred.labels, gold.labels)
            assert abs(score.precision - p) < 1e-12
            assert abs(score.recall - r) < 1e-12
            assert abs(score.f_score - f) < 1e-12

    def test_matches_brute_force_where_clusters_times_classes_is_large(self):
        # bcubed counts overlaps at cluster * gold.k + class: these pairs take
        # that index up to predicted.k * gold.k, n * n at most, and most have
        # unequal counts of clusters and classes.
        n = 120
        rng = np.random.default_rng(83)
        singletons = Partition(tuple(range(n)))
        one = Partition((0,) * n)
        pairs = [
            (singletons, one),
            (one, singletons),
            (singletons, Partition(tuple(rng.permutation(n).tolist()))),
        ]
        pairs += [(random_partition(rng, n), random_partition(rng, n)) for _ in range(100)]
        for pred, gold in pairs:
            score = bcubed(pred, gold)
            p, r, f = bcubed_brute(pred.labels, gold.labels)
            assert abs(score.precision - p) < 1e-12
            assert abs(score.recall - r) < 1e-12
            assert abs(score.f_score - f) < 1e-12

    def test_perfect_score_iff_identical_clustering(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            pred = random_partition(rng, n)
            gold = random_partition(rng, n)
            perfect = bcubed(pred, gold) == BcubedScore(1.0, 1.0, 1.0)
            assert perfect == (Partition.from_labels(pred.labels) == Partition.from_labels(gold.labels))

    def test_label_invariance(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            pred = random_partition(rng, n)
            gold = random_partition(rng, n)
            perm = rng.permutation(pred.k)
            relabelled = Partition.from_labels([int(perm[l]) for l in pred.labels])
            assert bcubed(pred, gold) == bcubed(relabelled, gold)

    def test_merging_never_raises_precision(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pred = random_partition(rng, n)
            gold = random_partition(rng, n)
            if pred.k < 2:
                continue
            a, b = sorted(rng.choice(pred.k, size=2, replace=False))
            merged = Partition.from_labels(
                [a if l == b else l for l in pred.labels]
            )
            assert bcubed(merged, gold).precision <= bcubed(pred, gold).precision + 1e-12

    def test_splitting_never_raises_recall(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pred = random_partition(rng, n)
            gold = random_partition(rng, n)
            sizes = [sum(1 for l in pred.labels if l == c) for c in range(pred.k)]
            big = [c for c, s in enumerate(sizes) if s >= 2]
            if not big:
                continue
            target = big[0]
            moved = [i for i, l in enumerate(pred.labels) if l == target][0]
            labels = list(pred.labels)
            labels[moved] = pred.k  # carve a singleton off the target cluster
            split = Partition.from_labels(labels)
            assert bcubed(split, gold).recall <= bcubed(pred, gold).recall + 1e-12


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson((1, 2, 3), (1, 2, 3)) == 1.0

    def test_perfect_anticorrelation(self):
        assert pearson((1, 2, 3), (-1, -2, -3)) == -1.0

    def test_hand_computed_value(self):
        assert pearson((1, 2, 3, 4), (2, 1, 4, 3)) == 0.6

    def test_degenerate_inputs_give_nan(self):
        assert math.isnan(pearson((1,), (1,)))
        assert math.isnan(pearson((1, 2), (5, 5)))
        assert math.isnan(pearson((3, 3), (1, 2)))
        assert math.isnan(pearson((1, 2), (1, 2, 3)))


def two_meaning_setup():
    gold = {
        "ALL": Partition.from_labels(["g1", "g1", "g2"]),
        "AND": Partition.from_labels(["g1", "g1", "g2"]),
    }
    predictions = {
        "ALL": Partition((0, 1, 2)),  # F = 0.8
        "AND": Partition((0, 0, 0)),  # F = 10/14
    }
    return predictions, gold


class TestEvaluateDataset:
    def test_identical_predictions_score_ones(self):
        gold = {
            "ALL": Partition((0, 0, 1)),
            "AND": Partition((0, 1, 2)),
            "ANIMAL": Partition((0, 0, 0)),
        }
        report = evaluate_dataset(gold, gold)
        assert report.aggregate == BcubedScore(1.0, 1.0, 1.0)
        assert report.cluster_count_correlation == 1.0

    def test_aggregate_is_arithmetic_mean_of_meaning_scores(self):
        predictions, gold = two_meaning_setup()
        report = evaluate_dataset(predictions, gold)
        f_all = report.per_meaning["ALL"].score.f_score
        f_and = report.per_meaning["AND"].score.f_score
        assert abs(f_all - 0.8) < 1e-12
        assert abs(f_and - 10 / 14) < 1e-12
        assert report.aggregate.f_score == (f_all + f_and) / 2
        assert abs(report.aggregate.f_score - 0.7571428571428571) < 1e-12

    def test_constant_predicted_k_gives_nan_correlation(self):
        gold = {
            "A": Partition((0, 0, 1)),
            "B": Partition((0, 1, 2)),
        }
        predictions = {
            "A": Partition((0, 0, 1)),
            "B": Partition((0, 0, 1)),
        }
        report = evaluate_dataset(predictions, gold)
        assert math.isnan(report.cluster_count_correlation)

    def test_single_meaning_gives_nan_correlation(self):
        gold = {"A": Partition((0, 0, 1))}
        report = evaluate_dataset(gold, gold)
        assert math.isnan(report.cluster_count_correlation)

    def test_gold_meaning_without_prediction_rejected(self):
        predictions, gold = two_meaning_setup()
        del predictions["AND"]
        with pytest.raises(ValidationError, match=r"without a prediction: \['AND'\]"):
            evaluate_dataset(predictions, gold)

    def test_predicted_meaning_without_gold_not_scored(self):
        predictions, gold = two_meaning_setup()
        del gold["ALL"]
        predictions["ZZZ"] = Partition((0, 1))
        report = evaluate_dataset(predictions, gold)
        assert list(report.per_meaning) == ["AND"]
        assert report.aggregate == report.per_meaning["AND"].score
        assert "meanings_evaluated  1" in render_report(report)
        with pytest.raises(ValidationError, match="no meanings to evaluate"):
            evaluate_dataset({"ZZZ": Partition((0, 1))}, {})

    def test_item_count_mismatch_rejected(self):
        predictions, gold = two_meaning_setup()
        gold["ALL"] = Partition((0, 0, 1, 1))
        with pytest.raises(ValidationError, match="ALL"):
            evaluate_dataset(predictions, gold)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_dataset({}, {})

    def test_metadata_carried_through(self):
        predictions, gold = two_meaning_setup()
        assert evaluate_dataset(predictions, gold).metadata["meanings_without_gold"] == 0
        predictions["ZZZ"] = Partition((0, 1))
        assert evaluate_dataset(predictions, gold).metadata == {
            "meanings_without_gold": 1,
            "synonym_policy": SYNONYM_POLICY,
        }


class TestReportRendering:
    def test_text_report_four_decimals(self):
        predictions, gold = two_meaning_setup()
        text = render_report(evaluate_dataset(predictions, gold))
        assert "0.8000" in text
        assert "0.7571" in text
        assert "meanings_evaluated  2" in text

    def test_percent_style_two_decimals(self):
        predictions, gold = two_meaning_setup()
        text = render_report(evaluate_dataset(predictions, gold), percent=True)
        assert "80.00" in text
        assert "75.71" in text

    def test_kv_report_is_tab_parseable(self):
        predictions, gold = two_meaning_setup()
        kv = render_report_kv(evaluate_dataset(predictions, gold))
        rows = [line.split("\t") for line in kv.strip().split("\n")]
        fields = {
            (r[0], r[1], r[2]): r[3] for r in rows if r[0] == "meaning"
        }
        assert fields[("meaning", "ALL", "f_score")] == "0.8000"
        assert fields[("meaning", "AND", "predicted_k")] == "1"
        agg = {r[1]: r[2] for r in rows if r[0] == "aggregate"}
        assert agg["f_score"] == "0.7571"

    def test_nan_correlation_rendered_as_nan(self):
        gold = {"A": Partition((0, 0, 1))}
        text = render_report(evaluate_dataset(gold, gold))
        assert "cluster_count_correlation  nan" in text


def three_meaning_report():
    predictions = {
        "ALL": Partition((0, 0, 1, 1, 2)),
        "AND": Partition((0, 1, 1)),
        "tree bark": Partition((0, 0, 0, 0)),
        "unlabelled": Partition((0, 1)),
    }
    gold = {
        "ALL": Partition((0, 0, 1, 2, 2)),
        "AND": Partition((0, 0, 1)),
        "tree bark": Partition((0, 1, 1, 0)),
    }
    return evaluate_dataset(predictions, gold)


def nan_correlation_report():
    predictions = {"A": Partition((0, 0, 1)), "B": Partition((0, 1, 1))}
    gold = {"A": Partition((0, 0, 1)), "B": Partition((0, 1, 2))}
    return evaluate_dataset(predictions, gold)


class TestReportBytes:
    """Both renderings, byte for byte, on fixed reports."""

    def test_text_report(self):
        report = three_meaning_report()
        assert render_report(report) == (
            "meaning    precision  recall  f_score  pred_K  true_K\n"
            "ALL           0.8000  0.8000   0.8000       3       3\n"
            "AND           0.6667  0.6667   0.6667       2       2\n"
            "tree bark     0.5000  1.0000   0.6667       1       2\n"
            "aggregate     0.6556  0.8222   0.7111\n"
            "\n"
            "cluster_count_correlation  0.8660\n"
            "meanings_evaluated  3\n"
            "meanings_without_gold  1\n"
            f"synonym_policy  {SYNONYM_POLICY}\n"
        )
        assert render_report(report, percent=True) == (
            "meaning    precision  recall  f_score  pred_K  true_K\n"
            "ALL            80.00   80.00    80.00       3       3\n"
            "AND            66.67   66.67    66.67       2       2\n"
            "tree bark      50.00  100.00    66.67       1       2\n"
            "aggregate      65.56   82.22    71.11\n"
            "\n"
            "cluster_count_correlation  86.60\n"
            "meanings_evaluated  3\n"
            "meanings_without_gold  1\n"
            f"synonym_policy  {SYNONYM_POLICY}\n"
        )

    @pytest.mark.parametrize("percent, scores", [
        (False, ("0.8000", "0.6667", "0.5000", "1.0000", "0.6667",
                 "0.6556", "0.8222", "0.7111", "0.8660")),
        (True, ("80.00", "66.67", "50.00", "100.00", "66.67",
                "65.56", "82.22", "71.11", "86.60")),
    ])
    def test_kv_report(self, percent, scores):
        all_, and_, bark_p, bark_r, bark_f, agg_p, agg_r, agg_f, corr = scores
        assert render_report_kv(three_meaning_report(), percent=percent) == (
            f"meaning\tALL\tprecision\t{all_}\n"
            f"meaning\tALL\trecall\t{all_}\n"
            f"meaning\tALL\tf_score\t{all_}\n"
            "meaning\tALL\tpredicted_k\t3\n"
            "meaning\tALL\ttrue_k\t3\n"
            f"meaning\tAND\tprecision\t{and_}\n"
            f"meaning\tAND\trecall\t{and_}\n"
            f"meaning\tAND\tf_score\t{and_}\n"
            "meaning\tAND\tpredicted_k\t2\n"
            "meaning\tAND\ttrue_k\t2\n"
            f"meaning\ttree bark\tprecision\t{bark_p}\n"
            f"meaning\ttree bark\trecall\t{bark_r}\n"
            f"meaning\ttree bark\tf_score\t{bark_f}\n"
            "meaning\ttree bark\tpredicted_k\t1\n"
            "meaning\ttree bark\ttrue_k\t2\n"
            f"aggregate\tprecision\t{agg_p}\n"
            f"aggregate\trecall\t{agg_r}\n"
            f"aggregate\tf_score\t{agg_f}\n"
            f"cluster_count_correlation\t{corr}\n"
            "meanings_evaluated\t3\n"
            "metadata\tmeanings_without_gold\t1\n"
            f"metadata\tsynonym_policy\t{SYNONYM_POLICY}\n"
        )

    def test_nan_correlation_without_metadata(self):
        report = nan_correlation_report()
        assert render_report(report) == (
            "meaning    precision  recall  f_score  pred_K  true_K\n"
            "A             1.0000  1.0000   1.0000       2       2\n"
            "B             0.6667  1.0000   0.8000       2       3\n"
            "aggregate     0.8333  1.0000   0.9000\n"
            "\n"
            "cluster_count_correlation  nan\n"
            "meanings_evaluated  2\n"
            "meanings_without_gold  0\n"
            f"synonym_policy  {SYNONYM_POLICY}\n"
        )
        assert render_report(report, percent=True) == (
            "meaning    precision  recall  f_score  pred_K  true_K\n"
            "A             100.00  100.00   100.00       2       2\n"
            "B              66.67  100.00    80.00       2       3\n"
            "aggregate      83.33  100.00    90.00\n"
            "\n"
            "cluster_count_correlation  nan\n"
            "meanings_evaluated  2\n"
            "meanings_without_gold  0\n"
            f"synonym_policy  {SYNONYM_POLICY}\n"
        )
        assert render_report_kv(report, percent=True) == (
            "meaning\tA\tprecision\t100.00\n"
            "meaning\tA\trecall\t100.00\n"
            "meaning\tA\tf_score\t100.00\n"
            "meaning\tA\tpredicted_k\t2\n"
            "meaning\tA\ttrue_k\t2\n"
            "meaning\tB\tprecision\t66.67\n"
            "meaning\tB\trecall\t100.00\n"
            "meaning\tB\tf_score\t80.00\n"
            "meaning\tB\tpredicted_k\t2\n"
            "meaning\tB\ttrue_k\t3\n"
            "aggregate\tprecision\t83.33\n"
            "aggregate\trecall\t100.00\n"
            "aggregate\tf_score\t90.00\n"
            "cluster_count_correlation\tnan\n"
            "meanings_evaluated\t2\n"
            "metadata\tmeanings_without_gold\t0\n"
            f"metadata\tsynonym_policy\t{SYNONYM_POLICY}\n"
        )
