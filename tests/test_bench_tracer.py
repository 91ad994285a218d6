"""The benchmark's traced run wraps one call per meaning in each per-meaning layer.

``bench/run.py --trace 1`` divides the align layer's work by its time and
takes percentiles of per-meaning spans, so it needs one
``similarity_matrix``, one ``cluster_meaning`` and one scan call per meaning,
each made through the module globals the tracer replaces.
"""

from collections import Counter
from pathlib import Path

from cogclust import Scorer, parse_wordlist, pipeline

ROOT = Path(__file__).resolve().parents[1]


def test_traced_clustering_has_one_span_per_meaning_in_each_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    wordlist = parse_wordlist(ROOT / "demos" / "data" / "germanic_romance.tsv")
    assert len(wordlist.meanings) > 1
    with Tracer().patched() as tracer:
        pipeline.cluster_wordlist(wordlist, Scorer.vanilla(), jobs=1)
    spans = Counter(s.name for s in tracer.spans)
    per_meaning = ("align.similarity_matrix", "pipeline.cluster_meaning", "crp.scan")
    assert [spans[name] for name in per_meaning] == [len(wordlist.meanings)] * 3
