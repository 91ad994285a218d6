"""Clustering a similarity matrix without choosing a threshold.

Every word starts in its own cluster. Each scan revisits the words: a word
joins the cluster it is most similar to on average, or opens a new cluster
when even the best average similarity drops below alpha. The run stops at
the first scan that changes nothing, or after max_scans scans (3 by default)
whether or not it converged. Every meaning of the demo word list converges
within 3 scans, but on seed-1 planted benchmark lists 52 of 400 meanings of
12 forms, and all 60 meanings of 100 forms, were still changing at the third.
"""

import numpy as np

from cogclust import CrpConfig, crp_cluster, crp_cluster_with_history, flat_cluster_threshold

rng = np.random.default_rng(0)

# Two planted groups of words: strong similarity inside a group, noise across.
sizes = (4, 3)
n = sum(sizes)
truth = np.repeat(np.arange(len(sizes)), sizes)
sims = rng.uniform(0.0, 0.15, size=(n, n))
sims = (sims + sims.T) / 2
for g in range(len(sizes)):
    idx = np.flatnonzero(truth == g)
    for i in idx:
        for j in idx:
            if i != j:
                sims[i, j] = 3.0
np.fill_diagonal(sims, 3.0)

partition, history = crp_cluster_with_history(sims, CrpConfig(alpha=0.01))
print("planted groups:   ", truth.tolist())
print("recovered labels: ", list(partition.labels))
print("changes per scan: ", history, "(trailing 0 = converged)")

# alpha controls how eagerly new clusters open. Far above every similarity it
# shatters the data into singletons; the default 0.01 merely separates words
# with no positive similarity at all.
for alpha in (0.01, 1.0, 5.0):
    k = crp_cluster(sims, CrpConfig(alpha=alpha)).k
    print(f"alpha={alpha:<5} -> {k} clusters")

# The classical alternative needs a data-dependent threshold: merge clusters
# while the best average inter-cluster similarity stays above it.
print("\nagglomerative baseline:")
for threshold in (0.05, 1.0, 4.0):
    k = flat_cluster_threshold(sims, threshold).k
    print(f"threshold={threshold:<5} -> {k} clusters")
