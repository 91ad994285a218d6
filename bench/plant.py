"""Seeded planted-cognate word lists for the benchmark.

Each meaning gets a handful of proto-forms, one per true cognate class. Every
language inherits one of them and changes it by sound change: a segment may be
replaced by another of its sound class, deleted, or followed by an inserted
segment. The class a word descends from is its gold cognate class, and the
proto/derived pair is recorded as an alignment (``-`` marks a gap) so that a
PMI matrix can be estimated from it.

Only the standard library is used, and ``random.Random`` draws are stable
across Python versions, so a seed fixes the files byte for byte.
"""

import random
from dataclasses import dataclass

# The 41 ASJP symbols in coarse sound classes; substitutions stay in a class.
SOUND_CLASSES = (
    "pbfv",     # labial obstruents
    "mn4N5",    # nasals
    "td8szc",   # dental and alveolar obstruents
    "SZCjT",    # post-alveolar and palatal obstruents
    "rlL",      # liquids
    "wy",       # glides
    "kgxqXG",   # velar and uvular obstruents
    "h7!",      # laryngeals and clicks
    "ieE3auo",  # vowels
)
VOWELS = SOUND_CLASSES[-1]
CONSONANTS = "".join(SOUND_CLASSES[:-1])
_CLASS_OF = {ch: cls for cls in SOUND_CLASSES for ch in cls}

# Sound-change rates. They are assumed, not fitted to any dataset. A language's
# drift is the chance that a segment changes; drifts are spread evenly over
# DRIFT across the languages. A change is a deletion with chance DELETE, else a
# same-class substitution; after any segment an insertion follows with chance
# drift * INSERT.
DRIFT = (0.05, 0.20)
DELETE = 0.25
INSERT = 0.15
HEADER = "language\tconcept\ttranscription\tcognate_class"


@dataclass(frozen=True)
class Shape:
    """Size of a generated word list.

    Proto-form lengths, class counts and class sizes are fixed by the shape,
    and the drifts by DRIFT; the seed draws the sounds, which language gets
    which drift and which class. So the amount of work and the difficulty of
    the task barely depend on the seed.
    """

    meanings: int
    languages: int
    proto_len: tuple[int, int]
    classes: tuple[int, int]


@dataclass(frozen=True)
class Planted:
    """A generated word list: rows, gold classes and aligned proto/derived pairs."""

    rows: tuple[tuple[str, str, str, str], ...]
    pairs: tuple[tuple[str, str], ...]

    def wordlist_tsv(self) -> str:
        return HEADER + "\n" + "".join("\t".join(r) + "\n" for r in self.rows)

    def pairs_tsv(self) -> str:
        return "".join(f"{a}\t{b}\n" for a, b in self.pairs)


def _proto_form(rng: random.Random, length: int) -> str:
    vowel_next = rng.random() < 0.4
    out = []
    for _ in range(length):
        out.append(rng.choice(VOWELS if vowel_next else CONSONANTS))
        vowel_next = not vowel_next if rng.random() < 0.85 else vowel_next
    return "".join(out)


def _derive(rng: random.Random, proto: str, drift: float) -> tuple[str, str, str]:
    """Apply sound changes; returns (word, aligned proto, aligned word)."""
    while True:
        top, bottom = [], []
        for ch in proto:
            roll = rng.random()
            if roll < drift * DELETE:
                top.append(ch)
                bottom.append("-")
            else:
                top.append(ch)
                bottom.append(rng.choice(_CLASS_OF[ch]) if roll < drift else ch)
            if rng.random() < drift * INSERT:
                top.append("-")
                bottom.append(rng.choice(VOWELS if ch not in VOWELS else CONSONANTS))
        word = "".join(c for c in bottom if c != "-")
        if word:
            return word, "".join(top), "".join(bottom)


def _class_sizes(k: int, languages: int) -> list[int]:
    """Uneven sizes, proportional to 1/rank, each class at least one language."""
    weights = [1.0 / (rank + 1) for rank in range(k)]
    sizes = [1 + int((languages - k) * w / sum(weights)) for w in weights]
    sizes[0] += languages - sum(sizes)
    return sizes


def planted_wordlist(seed: int, shape: Shape) -> Planted:
    """Generate a word list with planted cognate classes from ``seed``."""
    rng = random.Random(seed)
    languages = [f"L{i:03d}" for i in range(shape.languages)]
    lo_drift, hi_drift = DRIFT
    step = (hi_drift - lo_drift) / max(shape.languages - 1, 1)
    drifts = [lo_drift + i * step for i in range(shape.languages)]
    rng.shuffle(drifts)
    lo_len, hi_len = shape.proto_len
    lo_k, hi_k = shape.classes
    rows, pairs = [], []
    for m in range(shape.meanings):
        meaning = f"M{m:03d}"
        length = lo_len + m % (hi_len - lo_len + 1)
        k = min(lo_k + (m * 3) % (hi_k - lo_k + 1), shape.languages)
        protos = []
        while len(protos) < k:
            proto = _proto_form(rng, length)
            if proto not in protos:
                protos.append(proto)
        members = [cls for cls, size in enumerate(_class_sizes(k, shape.languages))
                   for _ in range(size)]
        rng.shuffle(members)
        for lang, drift, cls in zip(languages, drifts, members):
            word, top, bottom = _derive(rng, protos[cls], drift)
            rows.append((lang, meaning, word, f"{meaning}.c{cls}"))
            pairs.append((top, bottom))
    return Planted(tuple(rows), tuple(pairs))
