"""Threshold-free clustering of a meaning's words from its similarity matrix.

Words start out as singleton clusters and are revisited in scan order: each
word is pulled out of its cluster, its linkage (average or maximum
similarity) to every remaining cluster is computed, and it either joins the
best cluster or opens a new one when even the best linkage falls below
``alpha``. Scanning stops at the first full pass with no membership change,
or after ``max_scans`` passes. Shuffled orders come from numpy's ``Generator``.

The scan's state is one cluster label per word. Average linkage also keeps
each label's size and sums each cluster's similarities in word-index order,
one rounding per addition, so partitions do not depend on the Python
version. A new cluster takes the label above the highest in use; a scan
starts with labels below the word count n and opens at most n, so labels
stay below 2n, and a scan that ends with a label at n or above renumbers the
labels in use in order, which moves no tie. Single linkage joins the lowest
label among a word's nearest neighbours (the words at its row maximum) when
that maximum reaches ``alpha``. It opens no label and renumbers nothing: a
word whose row maximum is below ``alpha`` is, the matrix being symmetric, no
word's nearest neighbour, so it keeps its own label.

A conventional agglomerative average-linkage baseline with a stopping
threshold is provided for comparison.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError, as_number, checked_int, checked_number

_NEG_INF = float("-inf")
LINKAGES = ("average", "single")


@dataclass(frozen=True)
class Partition:
    """Assignment of item indices to dense cluster labels 0..K-1."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValidationError("a partition needs at least one item")
        try:
            labels = tuple(map(operator.index, self.labels))
        except TypeError:
            raise ValidationError("cluster labels must be integers") from None
        object.__setattr__(self, "labels", labels)
        k = max(labels) + 1
        if min(labels) < 0 or len(set(labels)) != k:
            raise ValidationError(f"labels are not contiguous 0..{k - 1}: {labels}")

    @classmethod
    def from_labels(cls, raw_labels) -> "Partition":
        """Renumber arbitrary hashable labels densely by first appearance."""
        mapping: dict = {}
        return cls(tuple(mapping.setdefault(lab, len(mapping)) for lab in raw_labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        return max(self.labels) + 1


@dataclass(frozen=True)
class CrpConfig:
    """Clustering knobs: new-cluster threshold, scan budget, linkage.

    ``shuffle_seed`` switches the scan order from file order to a seeded
    random permutation (the same order is reused in every scan).
    """

    alpha: float = 0.01
    max_scans: int = 3
    linkage: str = "average"
    shuffle_seed: int | None = None

    def __post_init__(self):
        if not as_number(self.alpha) > 0:
            raise ValidationError("alpha must be > 0")
        object.__setattr__(self, "max_scans", checked_int("max_scans", self.max_scans, 1))
        if self.shuffle_seed is not None:
            seed = checked_int("shuffle_seed", self.shuffle_seed, 0)
            object.__setattr__(self, "shuffle_seed", seed)
        if self.linkage not in LINKAGES:
            raise ValidationError(f"unknown linkage {self.linkage!r}")


def _as_similarity_array(sim) -> np.ndarray:
    values = getattr(sim, "values", sim)
    arr = np.array(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"similarity matrix must be square, got shape {arr.shape}")
    if not np.array_equal(arr, arr.T):
        raise ValidationError("similarity matrix must be symmetric")
    if not (arr >= 0).all():
        raise ValidationError("similarity matrix must be non-negative")
    if arr.shape[0] == 0:
        raise DegenerateInputError("empty similarity matrix")
    return arr


def crp_cluster_with_history(sim, config: CrpConfig | None = None) -> tuple[Partition, list[int]]:
    """Like :func:`crp_cluster` but also returns membership changes per scan.

    The history has one entry per executed scan; a trailing zero marks
    convergence (a word re-forming its own singleton counts as no change).
    """
    cfg = config or CrpConfig()
    sims = _as_similarity_array(sim)
    n = sims.shape[0]
    seed = cfg.shuffle_seed
    order = range(n) if seed is None else np.random.default_rng(seed).permutation(n).tolist()

    # A word's own entry adds 0.0 to its label's sum, and as alpha > 0 the
    # word is never its own nearest neighbour.
    np.fill_diagonal(sims, 0.0)
    averaging = cfg.linkage == "average"
    alpha = cfg.alpha
    lab = list(range(n))  # the whole cluster state: one label per word
    if averaging:
        rows = list(sims)  # each word's row, as a view
        labels = np.arange(n)  # the same labels, as bincount reads them
        # Members per label and max(size, 1) as divisors; labels stay below 2n.
        sizes = [1] * n + [0] * n
        divisors = np.ones(2 * n)
        bincount = np.bincount
    else:
        hits = (sims == sims.max(axis=1, keepdims=True)) & (sims >= alpha)
        cols = np.nonzero(hits)[1].tolist()  # row by row, ascending
        bounds = [0, *np.cumsum(hits.sum(axis=1)).tolist()]
        visits = [(w, cols[bounds[w] : bounds[w + 1]]) for w in order if bounds[w] < bounds[w + 1]]
        label_of = lab.__getitem__
    history: list[int] = []
    for _ in range(cfg.max_scans):
        changes = 0
        if not averaging:
            # A word joins the lowest label among its nearest neighbours, the
            # words at its row maximum if that reaches alpha. A word with none
            # is, by symmetry, no word's neighbour: it keeps its own label.
            for w, peers in visits:
                new = min(map(label_of, peers))  # ties: lowest label
                if new != lab[w]:
                    lab[w] = new
                    changes += 1  # peers change exactly when the label does
        else:
            for w in order:
                old = lab[w]
                size = sizes[old]
                divisors[old] = size - 1 or 1  # the word is out of its cluster
                # bincount adds each label's weights in word-index order. An
                # empty label scores 0, and alpha > 0, so it never wins.
                linkage = bincount(labels, weights=rows[w])
                linkage /= divisors[: len(linkage)]
                divisors[old] = size
                new = int(linkage.argmax())  # the first maximum: lowest label
                if linkage.item(new) < alpha:
                    # A just-emptied singleton keeps its label, so that a
                    # zero-change scan leaves the label state untouched; any
                    # other word opens the label above the highest in use.
                    new = old if size == 1 else max(lab) + 1
                if new != old:
                    sizes[old] -= 1
                    sizes[new] += 1
                    divisors[old] = sizes[old] or 1
                    divisors[new] = sizes[new]
                    lab[w] = labels[w] = new
                    changes += 1
        history.append(changes)
        if changes == 0:
            break
        if max(lab) >= n:  # renumber in order, so the next scan stays below 2n
            rank = np.cumsum(np.array(sizes) > 0) - 1  # a label's place among those in use
            labels = rank[labels]
            lab = labels.tolist()
            sizes.sort(key=bool, reverse=True)  # stable: labels in use first, in order
            divisors = np.maximum(sizes, 1.0)
    return Partition.from_labels(lab), history


def crp_cluster(sim, config: CrpConfig | None = None) -> Partition:
    """Cluster one meaning's words; ``sim`` is a SimilarityMatrix or array.

    Ties at the best linkage go to the lowest cluster label. Relabelling at
    the end is dense, by first appearance in word-index order.
    """
    return crp_cluster_with_history(sim, config)[0]


def flat_cluster_threshold(sim, threshold: float) -> Partition:
    """Agglomerative average-linkage baseline with a stopping threshold.

    Repeatedly merges the cluster pair with the highest average inter-cluster
    similarity until that maximum falls below ``threshold`` or one cluster
    remains. A cluster is named by its lowest word index; ties go to the pair
    of names (a, b), a < b, that comes first by a, then by b.
    """
    threshold = checked_number("threshold", threshold)
    cross = _as_similarity_array(sim)  # cross[a, b]: a and b's summed similarity
    n = cross.shape[0]
    # A name no longer in use gets a -inf column in cross, and a -inf row and
    # column in averages, whose diagonal is -inf too. The diagonal of cross
    # holds no -inf, so no sum adds -inf to a +inf similarity.
    averages = cross.copy()
    np.fill_diagonal(averages, _NEG_INF)
    flat = averages.ravel()  # a view: the same cells in row-major order
    sizes = np.ones(n)
    row = np.empty(n)  # a's size products, then its averages
    parent = list(range(n))  # the name each merged-away name went into
    for _ in range(n - 1):
        cell = int(flat.argmax())  # the first maximum in row-major order
        if flat.item(cell) < threshold:
            break
        a, b = divmod(cell, n)  # a < b, as averages is symmetric
        cross[a] += cross[b]
        cross[:, a] = cross[a]
        cross[:, b] = _NEG_INF
        sizes[a] = size = sizes.item(a) + sizes.item(b)
        # Only a's averages change; each is the same sum over the same
        # product of sizes as a full recomputation would give.
        np.divide(cross[a], np.multiply(sizes, size, out=row), out=row)
        averages[a] = averages[:, a] = row
        averages[b] = averages[:, b] = averages[a, a] = _NEG_INF
        parent[b] = a
    for i in range(n):  # a name merges only into a lower one, resolved first
        parent[i] = parent[parent[i]]
    return Partition.from_labels(parent)
