"""Parsing, validation and indexing of multilingual word lists.

A word list is a TSV table with one word form per row::

    language<TAB>concept<TAB>transcription<TAB>cognate_class

The ``cognate_class`` column is optional (it holds expert cognacy labels used
for evaluation). Header names are fixed but may appear in any order.
Transcriptions are validated against a segment alphabet, ASJP by default.
"""

import os
from dataclasses import dataclass
from typing import IO, Iterable

from .alphabet import ASJP_SOUNDS, MODIFIER_CHARS
from .errors import MeaningNotFoundError, ParseError, ValidationError
from .textio import open_sink, read_text

HEADER_COLUMNS = ("language", "concept", "transcription", "cognate_class")
_REQUIRED_COLUMNS = ("language", "concept", "transcription")


@dataclass(frozen=True)
class WordForm:
    """One transcribed word: a language saying a meaning.

    ``segments`` is a string of single-character sound-class symbols. The
    parser guarantees alphabet membership; programmatic construction is
    trusted apart from non-emptiness.
    """

    language: str
    meaning: str
    segments: str
    gold_class: str | None = None

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("word form has an empty transcription")


class WordList:
    """An immutable collection of word forms indexed by meaning and language.

    Duplicate (language, meaning, transcription) rows are collapsed to the
    first occurrence; the number of dropped rows is kept in
    ``duplicates_collapsed``. Within a meaning, either every form carries a
    gold cognate class or none does.

    Iteration order everywhere is the order in which forms were first seen,
    which is the file order for parsed lists. Instances are safe to share
    across worker processes.
    """

    def __init__(self, forms: Iterable[WordForm]):
        seen: dict[tuple[str, str, str], WordForm] = {}
        kept: list[WordForm] = []
        dropped = 0
        for form in forms:
            key = (form.language, form.meaning, form.segments)
            if key in seen:
                dropped += 1
                continue
            seen[key] = form
            kept.append(form)
        self._forms = tuple(kept)
        self.duplicates_collapsed = dropped

        by_meaning: dict[str, list[WordForm]] = {}
        languages: dict[str, None] = {}
        for form in self._forms:
            by_meaning.setdefault(form.meaning, []).append(form)
            languages.setdefault(form.language, None)
        for meaning, group in by_meaning.items():
            labelled = sum(1 for f in group if f.gold_class is not None)
            if 0 < labelled < len(group):
                raise ValidationError(
                    f"meaning {meaning!r} mixes labelled and unlabelled forms; "
                    "gold classes must cover a meaning completely or not at all"
                )
        self._by_meaning = {m: tuple(g) for m, g in by_meaning.items()}
        self.meanings = tuple(by_meaning)
        self.languages = tuple(languages)

    @property
    def forms(self) -> tuple[WordForm, ...]:
        return self._forms

    def forms_for_meaning(self, meaning: str) -> tuple[WordForm, ...]:
        """All forms expressing ``meaning``, in file order."""
        try:
            return self._by_meaning[meaning]
        except KeyError:
            raise MeaningNotFoundError(f"unknown meaning {meaning!r}") from None

    def __len__(self) -> int:
        return len(self._forms)

    def __iter__(self):
        return iter(self._forms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WordList):
            return NotImplemented
        return self._forms == other._forms

    def __repr__(self) -> str:
        return (
            f"WordList({len(self._forms)} forms, {len(self.meanings)} meanings, "
            f"{len(self.languages)} languages)"
        )


def parse_wordlist(
    source: str | os.PathLike | IO,
    *,
    alphabet: Iterable[str] = ASJP_SOUNDS,
    modifiers: str = "strip",
    modifier_chars: frozenset[str] = MODIFIER_CHARS,
) -> WordList:
    """Parse a TSV word list from a path or an open (text or binary) file.

    ``modifiers`` selects how transcription modifier characters are treated:
    ``"strip"`` drops them, ``"strict"`` reports them as alphabet violations.
    Any other character outside ``alphabet`` is an error in both modes.
    """
    if modifiers not in ("strip", "strict"):
        raise ValidationError(f"unknown modifier policy {modifiers!r}")
    symbols = frozenset(alphabet)
    lines = read_text(source).split("\n")

    header = lines[0].split("\t") if lines and lines[0] else []
    positions: dict[str, int] = {}
    for idx, name in enumerate(header):
        if name in positions:
            raise ParseError(f"duplicate column {name!r}", line=1)
        if name not in HEADER_COLUMNS:
            raise ParseError(f"unknown column {name!r}", line=1)
        positions[name] = idx
    for name in _REQUIRED_COLUMNS:
        if name not in positions:
            raise ParseError(f"missing column {name!r} in header", line=1)

    ncols = len(header)
    gold_at = positions.get("cognate_class")
    forms = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw == "":
            continue
        row = raw.split("\t")
        if len(row) != ncols:
            raise ParseError(f"expected {ncols} columns, got {len(row)}", line=lineno)
        language = row[positions["language"]]
        meaning = row[positions["concept"]]
        word = row[positions["transcription"]]
        if not language:
            raise ValidationError("empty language identifier", line=lineno)
        if not meaning:
            raise ValidationError("empty concept identifier", line=lineno)
        if modifiers == "strip":
            word = "".join(ch for ch in word if ch not in modifier_chars)
        if not word:
            raise ValidationError("empty transcription", line=lineno)
        for ch in word:
            if ch not in symbols:
                raise ValidationError(
                    f"symbol {ch!r} is not in the alphabet", line=lineno
                )
        gold = row[gold_at] if gold_at is not None else ""
        forms.append(WordForm(language, meaning, word, gold or None))
    return WordList(forms)


def write_wordlist(wordlist: WordList, sink: str | os.PathLike | IO) -> None:
    """Write a word list back to 4-column TSV; re-parsing yields an equal list."""
    with open_sink(sink) as fh:
        fh.write("\t".join(HEADER_COLUMNS) + "\n")
        for f in wordlist.forms:
            fh.write(f"{f.language}\t{f.meaning}\t{f.segments}\t{f.gold_class or ''}\n")
