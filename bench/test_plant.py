"""Tests for the planted-cognate generator.

Run from the repository root: ``python3 -m pytest bench/test_plant.py``.
"""

import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cogclust import ASJP_SOUNDS, GAP, estimate_pmi, gold_partitions, parse_wordlist  # noqa: E402

from plant import SOUND_CLASSES, Shape, planted_wordlist  # noqa: E402

SHAPE = Shape(meanings=12, languages=30, proto_len=(3, 9), classes=(1, 8))


def test_same_seed_same_files_and_other_seed_differs():
    first = planted_wordlist(7, SHAPE)
    again = planted_wordlist(7, SHAPE)
    other = planted_wordlist(8, SHAPE)
    assert first.wordlist_tsv() == again.wordlist_tsv()
    assert first.pairs_tsv() == again.pairs_tsv()
    assert first.wordlist_tsv() != other.wordlist_tsv()


def test_sound_classes_cover_asjp_exactly_once():
    symbols = "".join(SOUND_CLASSES)
    assert sorted(symbols) == sorted(ASJP_SOUNDS)


def test_only_asjp_symbols_and_consistent_alignments():
    data = planted_wordlist(3, SHAPE)
    allowed = set(ASJP_SOUNDS)
    for (_, _, word, _), (top, bottom) in zip(data.rows, data.pairs):
        assert word and set(word) <= allowed
        assert len(top) == len(bottom)
        assert set(top) | set(bottom) <= allowed | {GAP}
        assert bottom.replace(GAP, "") == word
        assert all(not (a == GAP and b == GAP) for a, b in zip(top, bottom))


def test_files_are_accepted_by_the_package():
    data = planted_wordlist(5, SHAPE)
    wl = parse_wordlist(io.StringIO(data.wordlist_tsv()))
    assert len(wl) == SHAPE.meanings * SHAPE.languages
    assert len(wl.meanings) == SHAPE.meanings
    pairs = [tuple(line.split("\t")) for line in data.pairs_tsv().splitlines()]
    assert estimate_pmi(pairs).alphabet == ASJP_SOUNDS


def test_gold_is_non_trivial():
    data = planted_wordlist(11, SHAPE)
    gold = gold_partitions(parse_wordlist(io.StringIO(data.wordlist_tsv())))
    counts = [p.k for p in gold.values()]
    assert min(counts) >= SHAPE.classes[0] and max(counts) <= SHAPE.classes[1]
    assert len(set(counts)) > 1
    assert sum(1 for p in gold.values() if 1 < p.k < p.n) >= SHAPE.meanings // 2
