"""Threshold-free clustering of a meaning's words from its similarity matrix.

Words start out as singleton clusters and are revisited in scan order: each
word is pulled out of its cluster, its linkage (average or maximum
similarity) to every remaining cluster is computed, and it either joins the
best cluster or opens a new one when even the best linkage falls below
``alpha``. Scanning stops at the first full pass with no membership change,
or after ``max_scans`` passes.

The scan's whole state is one cluster label per word. Average linkage sums
each cluster's similarities in word-index order, one rounding per addition,
so partitions do not depend on the Python version. A ``shuffle_seed`` scan
order still comes from numpy's ``Generator`` stream.

A conventional agglomerative average-linkage baseline with a stopping
threshold is provided for comparison.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Partition:
    """Assignment of item indices to dense cluster labels 0..K-1."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValidationError("a partition needs at least one item")
        try:
            labels = tuple(operator.index(lab) for lab in self.labels)
        except TypeError:
            raise ValidationError("cluster labels must be integers") from None
        object.__setattr__(self, "labels", labels)
        k = max(labels) + 1
        if min(labels) < 0 or set(labels) != set(range(k)):
            raise ValidationError(f"labels are not contiguous 0..{k - 1}: {labels}")

    @classmethod
    def from_labels(cls, raw_labels) -> "Partition":
        """Renumber arbitrary hashable labels densely by first appearance."""
        mapping: dict = {}
        out = []
        for lab in raw_labels:
            if lab not in mapping:
                mapping[lab] = len(mapping)
            out.append(mapping[lab])
        return cls(tuple(out))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        return max(self.labels) + 1

    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Member indices per cluster, in label order."""
        groups: list[list[int]] = [[] for _ in range(self.k)]
        for idx, lab in enumerate(self.labels):
            groups[lab].append(idx)
        return tuple(tuple(g) for g in groups)

    def same_clustering(self, other: "Partition") -> bool:
        """Set-partition equality; label values are immaterial."""
        if self.n != other.n:
            return False
        return (
            Partition.from_labels(self.labels).labels
            == Partition.from_labels(other.labels).labels
        )


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
        if not self.alpha > 0:
            raise ValidationError("alpha must be > 0")
        if self.max_scans < 1:
            raise ValidationError("max_scans must be >= 1")
        if self.linkage not in ("average", "single"):
            raise ValidationError(f"unknown linkage {self.linkage!r}")
        if self.shuffle_seed is not None and self.shuffle_seed < 0:
            raise ValidationError("shuffle_seed must be >= 0")


def _as_similarity_array(sim) -> np.ndarray:
    values = getattr(sim, "values", sim)
    arr = np.array(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"similarity matrix must be square, got shape {arr.shape}")
    if not np.array_equal(arr, arr.T):
        raise ValidationError("similarity matrix must be symmetric")
    if not (arr >= 0).all():
        raise ValidationError("similarity matrix must be non-negative")
    return arr


def crp_cluster_with_history(sim, config: CrpConfig | None = None) -> tuple[Partition, list[int]]:
    """Like :func:`crp_cluster` but also returns membership changes per scan.

    The history has one entry per executed scan; a trailing zero marks
    convergence (a word re-forming its own singleton counts as no change).
    """
    cfg = config or CrpConfig()
    sims = _as_similarity_array(sim)
    n = sims.shape[0]
    if n == 0:
        raise DegenerateInputError("empty similarity matrix")
    if cfg.shuffle_seed is None:
        order = list(range(n))
    else:
        order = [int(w) for w in np.random.default_rng(cfg.shuffle_seed).permutation(n)]

    np.fill_diagonal(sims, 0.0)  # a word's own entry adds 0.0 to its label's sum
    labels = np.arange(n)  # the whole cluster state: one label per word
    averaging = cfg.linkage == "average"
    history: list[int] = []
    for _ in range(cfg.max_scans):
        changes = 0
        for w in order:
            old = int(labels[w])
            row = sims[w]
            sizes = np.bincount(labels)
            sizes[old] -= 1  # the word itself is out of its cluster
            # An empty label scores 0, and alpha > 0, so it never wins.
            if averaging:
                # bincount adds each label's weights in word-index order
                linkage = np.bincount(labels, weights=row) / np.maximum(sizes, 1)
            else:
                linkage = np.zeros(len(sizes))
                np.maximum.at(linkage, labels, row)
            best = int(np.argmax(linkage))  # the first maximum: lowest label
            if linkage[best] >= cfg.alpha:
                new = best
            elif sizes[old] == 0:
                # Re-use the label of a just-emptied singleton so that a
                # zero-change scan leaves the label state untouched.
                new = old
            else:
                new = len(sizes)  # one above the highest label in use
            labels[w] = new
            changes += new != old  # peers change exactly when the label does
        history.append(changes)
        if changes == 0:
            break
    return Partition.from_labels(labels.tolist()), history


def crp_cluster(sim, config: CrpConfig | None = None) -> Partition:
    """Cluster one meaning's words; ``sim`` is a SimilarityMatrix or array.

    Ties at the best linkage go to the lowest cluster label. Relabelling at
    the end is dense, by first appearance in word-index order.
    """
    partition, _ = crp_cluster_with_history(sim, config)
    return partition


def flat_cluster_threshold(sim, threshold: float) -> Partition:
    """Agglomerative average-linkage baseline with a stopping threshold.

    Repeatedly merges the cluster pair with the highest average inter-cluster
    similarity until that maximum falls below ``threshold`` or one cluster
    remains. Ties go to the earliest-created cluster pair.
    """
    sims = _as_similarity_array(sim)
    n = sims.shape[0]
    if n == 0:
        raise DegenerateInputError("empty similarity matrix")
    threshold = float(threshold)
    if np.isnan(threshold):
        raise ValidationError("threshold must be a number, got nan")
    cross = sims.copy()  # cross[a, b] = summed similarity between clusters a and b
    sizes = np.ones(n, dtype=float)
    active = list(range(n))
    cluster_members: dict[int, list[int]] = {i: [i] for i in range(n)}
    while len(active) > 1:
        act = np.array(active)
        averages = cross[np.ix_(act, act)] / np.outer(sizes[act], sizes[act])
        np.fill_diagonal(averages, _NEG_INF)
        flat = int(np.argmax(averages))
        best = averages.flat[flat]
        if best < threshold:
            break
        ii, jj = divmod(flat, len(act))
        a, b = active[ii], active[jj]
        cluster_members[a].extend(cluster_members.pop(b))
        cross[a, :] += cross[b, :]
        cross[:, a] += cross[:, b]
        sizes[a] += sizes[b]
        active.remove(b)
    out = [0] * n
    for label, members in cluster_members.items():
        for w in members:
            out[w] = label
    return Partition.from_labels(out)
