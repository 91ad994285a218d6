"""Estimating segment-pair PMI scores from aligned word pairs.

Sound correspondences (like p ~ b between related languages) show up as
segment pairs that sit in the same alignment column more often than chance.
PMI turns that into a log-ratio score: positive above chance, negative below.
The estimator consumes pre-aligned pairs; '-' marks a gap. A gap column
adds nothing to the joint (segment-pair) frequencies, but its segment still
counts toward that segment's marginal frequency.
"""

import io

from cogclust import estimate_pmi, load_pmi, nw_score, save_pmi

# A toy corpus of aligned cognate pairs with a planted p ~ b correspondence.
aligned = [
    ("pat", "bat"),
    ("pot-", "bot3"),
    ("lip", "lib"),
    ("pal", "bal"),
    ("tok", "tok"),
    ("mus-", "musi"),
]

# The estimate is a Scorer: the segment-pair table plus default gap costs.
matrix = estimate_pmi(aligned, smoothing=0.1, alphabet=tuple("pbatoliksmu3"))

print("selected segment-pair scores:")
for pair in [("p", "b"), ("p", "p"), ("a", "a"), ("p", "k"), ("a", "u")]:
    print(f"  {pair[0]} ~ {pair[1]}: {matrix.substitution(*pair):+.3f}")

# The matrix round-trips through its file format at full precision.
buffer = io.StringIO()
save_pmi(matrix, buffer)
again = load_pmi(io.StringIO(buffer.getvalue()))
print("\nround-trip equal:", again == matrix)
print("file starts with:", buffer.getvalue().splitlines()[0])

# The estimate drives the aligner directly (Scorer.from_pmi(matrix, gaps)
# would give it other gap costs): p~b now outscores p~k.
print("\nalignment under the estimated matrix:")
print("  pat ~ bat:", round(nw_score("pat", "bat", matrix), 3))
print("  pat ~ kat:", round(nw_score("pat", "kat", matrix), 3))
