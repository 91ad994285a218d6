"""Independent reference implementations used to check the library.

Everything here is deliberately naive and shares no code with the package:
exhaustive enumeration for alignment scores, per-item loops for B-cubed,
literal frequency counting for PMI, and plain re-implementations of the
clustering scan and of the agglomerative baseline.
"""

import math


def alignment_best_score(a, b, substitution, gap_open, gap_extend):
    """Maximum score over every global alignment, by exhaustive recursion.

    An alignment is a sequence of columns, each consuming a symbol from one
    or both sequences; a maximal run of consecutive gap columns in the same
    sequence costs gap_open for its first column and gap_extend for the rest.
    Only practical for short sequences.
    """
    best = [float("-inf")]

    def walk(i, j, score, last):
        if i == len(a) and j == len(b):
            if score > best[0]:
                best[0] = score
            return
        if i < len(a) and j < len(b):
            walk(i + 1, j + 1, score + substitution(a[i], b[j]), "sub")
        if i < len(a):
            cost = gap_extend if last == "gap_a" else gap_open
            walk(i + 1, j, score + cost, "gap_a")
        if j < len(b):
            cost = gap_extend if last == "gap_b" else gap_open
            walk(i, j + 1, score + cost, "gap_b")

    walk(0, 0, 0.0, "start")
    return best[0]


def bcubed_brute(pred_labels, gold_labels):
    """B-cubed precision/recall/F by explicit per-item set computations."""
    n = len(pred_labels)
    precisions = []
    recalls = []
    for i in range(n):
        same_pred = [j for j in range(n) if pred_labels[j] == pred_labels[i]]
        same_gold = [j for j in range(n) if gold_labels[j] == gold_labels[i]]
        shared = len([j for j in same_pred if j in same_gold])
        precisions.append(shared / len(same_pred))
        recalls.append(shared / len(same_gold))
    precision = sum(precisions) / n
    recall = sum(recalls) / n
    if precision + recall == 0:
        f_score = 0.0
    else:
        f_score = 2 * precision * recall / (precision + recall)
    return precision, recall, f_score


def crp_reference(matrix, alpha=0.01, max_scans=3, linkage="average", order=None):
    """Plain re-implementation of the clustering scan over a nested-list matrix.

    Words are visited in ``order`` (default: file order) in every scan.
    Returns labels renumbered densely by first appearance, as a list.
    """
    n = len(matrix)
    assign = list(range(n))
    next_id = n
    for _ in range(max_scans):
        changes = 0
        for w in range(n) if order is None else order:
            mine = assign[w]
            peers_before = frozenset(j for j in range(n) if j != w and assign[j] == mine)
            assign[w] = None
            existing = sorted({c for c in assign if c is not None})
            best_cluster = None
            best_score = float("-inf")
            for c in existing:
                vals = [matrix[w][j] for j in range(n) if assign[j] == c]
                score = sum(vals) / len(vals) if linkage == "average" else max(vals)
                if score > best_score:
                    best_score = score
                    best_cluster = c
            if best_cluster is None or best_score < alpha:
                if mine in existing:
                    assign[w] = next_id
                    next_id += 1
                else:
                    assign[w] = mine  # singleton re-forms under its old id
                peers_after = frozenset()
            else:
                peers_after = frozenset(j for j in range(n) if assign[j] == best_cluster)
                assign[w] = best_cluster
            if peers_after != peers_before:
                changes += 1
        if changes == 0:
            break
    dense = {}
    out = []
    for c in assign:
        if c not in dense:
            dense[c] = len(dense)
        out.append(dense[c])
    return out


def flat_reference(matrix, threshold):
    """Plain agglomerative average linkage over a nested-list matrix.

    Clusters are lists of word indices, ordered by their lowest member. Each
    step merges the first pair, over ascending clusters, whose average (the
    sum of its cross-member similarities over the product of the sizes) is
    strictly greater than every earlier pair's, unless that average is below
    ``threshold``. Returns labels numbered by first appearance, as a list.
    """
    clusters = [[i] for i in range(len(matrix))]
    while len(clusters) > 1:
        best_pair = None
        best_average = float("-inf")
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                total = sum(matrix[i][j] for i in clusters[x] for j in clusters[y])
                average = total / (len(clusters[x]) * len(clusters[y]))
                if average > best_average:
                    best_average = average
                    best_pair = (x, y)
        if best_average < threshold:
            break
        x, y = best_pair
        clusters[x].extend(clusters.pop(y))
    labels = [0] * len(matrix)
    for label, members in enumerate(clusters):  # lowest members ascend
        for i in members:
            labels[i] = label
    return labels


def pmi_by_counting(aligned_pairs):
    """Unsmoothed PMI scores by literal relative-frequency counting.

    Returns a dict over unordered symbol pairs; pairs never co-occurring map
    to -inf. Marginals count every non-gap position of every sequence.
    """
    joint = {}
    marginal = {}
    n_joint = 0
    n_marginal = 0
    for left, right in aligned_pairs:
        assert len(left) == len(right)
        for x, y in zip(left, right):
            if x != "-":
                marginal[x] = marginal.get(x, 0) + 1
                n_marginal += 1
            if y != "-":
                marginal[y] = marginal.get(y, 0) + 1
                n_marginal += 1
            if x != "-" and y != "-":
                key = tuple(sorted((x, y)))
                joint[key] = joint.get(key, 0) + 1
                n_joint += 1
    scores = {}
    symbols = sorted(marginal)
    for i, x in enumerate(symbols):
        for y in symbols[i:]:
            count = joint.get((x, y), 0)
            if count == 0:
                scores[x, y] = float("-inf")
                continue
            p = count / n_joint
            qx = marginal[x] / n_marginal
            qy = marginal[y] / n_marginal
            scores[x, y] = math.log(p / (qx * qy))
    return scores
