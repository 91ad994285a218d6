"""The whole pipeline: word list in, cognate clusters and scores out.

Equivalent command line:

    cogclust evaluate --input demos/data/germanic_romance.tsv --out parts.tsv
"""

import os
import sys

from cogclust import (
    CrpConfig,
    Scorer,
    cluster_wordlist,
    evaluate_dataset,
    gold_partitions,
    parse_wordlist,
    render_report,
    write_partitions,
)

here = os.path.dirname(os.path.abspath(__file__))
wordlist = parse_wordlist(os.path.join(here, "data", "germanic_romance.tsv"))
print(wordlist)

# Cluster every meaning with the default scorer and configuration.
partitions = cluster_wordlist(wordlist, Scorer.vanilla(), CrpConfig())
for meaning, partition in partitions.items():
    groups = [[] for _ in range(partition.k)]
    for form, label in zip(wordlist.forms_for_meaning(meaning), partition.labels):
        groups[label].append(form.segments)
    print(f"{meaning}: {groups}")

print()
write_partitions(wordlist, partitions, sys.stdout)

# The sample file carries expert cognate classes, so the result is scorable.
gold = gold_partitions(wordlist)
report = evaluate_dataset(partitions, gold)
print()
print(render_report(report))
