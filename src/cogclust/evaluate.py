"""B-cubed clustering scores against expert cognate classes.

Per item, precision is the fraction of its predicted cluster that shares its
gold class and recall the fraction of its gold class found in its predicted
cluster (the item counts itself in both). A meaning's precision and recall
are the means of the item values and its F-score their harmonic mean. The
dataset aggregate averages the per-meaning values arithmetically, so the
aggregate F is the mean of per-meaning Fs rather than a harmonic mean of the
aggregate precision and recall. Cluster-count agreement across meanings is
summarized by the Pearson correlation of predicted vs true cluster counts.

Undefined statistics (correlation over fewer than two meanings, or with a
constant count vector) are reported as ``nan``.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .crp import Partition
from .errors import ValidationError

NAN = float("nan")
SYNONYM_POLICY = "all transcriptions of a (language, meaning) kept as separate items"


@dataclass(frozen=True)
class BcubedScore:
    precision: float
    recall: float
    f_score: float


def _total(values) -> float:
    """Sum in index order, rounding after each addition (builtin ``sum`` of
    floats is compensated from Python 3.12 on, so scores would vary)."""
    total = 0.0
    for v in values:
        total += v
    return total


def bcubed(predicted: Partition, gold: Partition) -> BcubedScore:
    """B-cubed precision, recall and F of a predicted partition against gold.

    Both partitions must cover the same items (same length; index i refers to
    the same item in both). Identical partitions score exactly (1, 1, 1).
    """
    if predicted.n != gold.n:
        raise ValidationError(
            f"partitions cover different item sets: {predicted.n} vs {gold.n} items"
        )
    n = predicted.n
    k = gold.k
    pred_size = [0] * predicted.k
    gold_size = [0] * k
    overlap = [0] * (len(pred_size) * k)  # items per (cluster c, class l) at c * k + l
    for c, l in zip(predicted.labels, gold.labels):
        pred_size[c] += 1
        gold_size[l] += 1
        overlap[c * k + l] += 1
    precision_total = 0.0
    recall_total = 0.0
    for c, l in zip(predicted.labels, gold.labels):
        shared = overlap[c * k + l]
        precision_total += shared / pred_size[c]
        recall_total += shared / gold_size[l]
    precision = precision_total / n
    recall = recall_total / n
    # Never 0/0: each item shares its own cluster and class, so precision > 0.
    return BcubedScore(precision, recall, 2.0 * precision * recall / (precision + recall))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; ``nan`` when undefined."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or len(xs) < 2:
        return NAN
    n = len(xs)
    mean_x = _total(xs) / n
    mean_y = _total(ys) / n
    sxx = _total((v - mean_x) ** 2 for v in xs)
    syy = _total((v - mean_y) ** 2 for v in ys)
    if sxx == 0 or syy == 0:
        return NAN
    sxy = _total((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


@dataclass(frozen=True)
class MeaningEval:
    score: BcubedScore
    predicted_k: int
    true_k: int


@dataclass(frozen=True)
class EvalReport:
    """Per-meaning scores plus dataset aggregates.

    ``metadata`` records the evaluation context: ``meanings_without_gold``,
    the number of predicted meanings left out for want of gold, and
    ``synonym_policy``, how synonyms count as items.
    """

    per_meaning: dict[str, MeaningEval]
    aggregate: BcubedScore
    cluster_count_correlation: float
    metadata: dict


def evaluate_dataset(
    predictions: Mapping[str, Partition], gold: Mapping[str, Partition]
) -> EvalReport:
    """Score predicted partitions against gold partitions, meaning by meaning.

    Predicted meanings with gold are scored, in prediction order; the others
    are left out, and the report's metadata counts them. Every gold meaning
    must have a prediction.
    """
    if missing := [m for m in gold if m not in predictions]:
        raise ValidationError(f"gold meanings without a prediction: {missing}")
    per_meaning: dict[str, MeaningEval] = {}
    for meaning in [m for m in predictions if m in gold]:
        pred, true = predictions[meaning], gold[meaning]
        if pred.n != true.n:
            raise ValidationError(
                f"meaning {meaning!r}: predicted partition covers {pred.n} items "
                f"but gold covers {true.n}"
            )
        per_meaning[meaning] = MeaningEval(bcubed(pred, true), pred.k, true.k)
    if not per_meaning:
        raise ValidationError("no meanings to evaluate")
    count = len(per_meaning)
    aggregate = BcubedScore(
        _total(e.score.precision for e in per_meaning.values()) / count,
        _total(e.score.recall for e in per_meaning.values()) / count,
        _total(e.score.f_score for e in per_meaning.values()) / count,
    )
    correlation = pearson(
        [e.predicted_k for e in per_meaning.values()],
        [e.true_k for e in per_meaning.values()],
    )
    metadata = {
        "meanings_without_gold": len(predictions) - count,
        "synonym_policy": SYNONYM_POLICY,
    }
    return EvalReport(per_meaning, aggregate, correlation, metadata)


def _fmt(value: float, percent: bool) -> str:
    if math.isnan(value):
        return "nan"
    return f"{100.0 * value:.2f}" if percent else f"{value:.4f}"


def _report_cells(report: EvalReport, percent: bool):
    """Every formatted value of a report, for both renderings.

    Rows are (name, precision, recall, f_score, predicted K, true K), one per
    meaning and then the aggregate, whose counts are empty. The trailing
    cells are key cells followed by their value.
    """

    def scores(s: BcubedScore) -> tuple[str, str, str]:
        return _fmt(s.precision, percent), _fmt(s.recall, percent), _fmt(s.f_score, percent)

    rows = [
        (meaning, *scores(e.score), str(e.predicted_k), str(e.true_k))
        for meaning, e in report.per_meaning.items()
    ]
    rows.append(("aggregate", *scores(report.aggregate), "", ""))
    trailing = [
        ("cluster_count_correlation", _fmt(report.cluster_count_correlation, percent)),
        ("meanings_evaluated", str(len(report.per_meaning))),
        *(("metadata", f"{key}", f"{report.metadata[key]}") for key in sorted(report.metadata)),
    ]
    return rows, trailing


def render_report(report: EvalReport, percent: bool = False) -> str:
    """Human-readable table; ``percent`` switches to 100-scale, 2 decimals."""
    rows, trailing = _report_cells(report, percent)
    header = ("meaning", "precision", "recall", "f_score", "pred_K", "true_K")
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(6)]
    lines = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(header)).rstrip()]
    for r in rows:
        lines.append(
            r[0].ljust(widths[0])
            + "  "
            + "  ".join(r[c].rjust(widths[c]) for c in range(1, 6)).rstrip()
        )
    lines.append("")
    lines.extend("  ".join(cells[-2:]) for cells in trailing)
    return "\n".join(lines) + "\n"


def render_report_kv(report: EvalReport, percent: bool = False) -> str:
    """Machine-readable tab-separated key/value lines."""
    rows, trailing = _report_cells(report, percent)
    fields = ("precision", "recall", "f_score", "predicted_k", "true_k")
    lines = [
        f"meaning\t{name}\t{field}\t{value}"
        for name, *values in rows[:-1]
        for field, value in zip(fields, values)
    ]
    lines.extend(f"aggregate\t{field}\t{value}" for field, value in zip(fields, rows[-1][1:4]))
    lines.extend("\t".join(cells) for cells in trailing)
    return "\n".join(lines) + "\n"
