"""Parsing, validation and indexing of multilingual word lists.

A word list is a TSV table with one word form per row::

    language<TAB>concept<TAB>transcription<TAB>cognate_class

The ``cognate_class`` column is optional (it holds expert cognacy labels used
for evaluation). Header names are fixed but may appear in any order.
Transcriptions are checked against the ASJP alphabet.
"""

import os
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable

from .alphabet import ASJP_SOUNDS, MODIFIER_CHARS
from .errors import MeaningNotFoundError, ParseError, ValidationError
from .textio import first_line, in_file, read_rows, read_text

HEADER_COLUMNS = ("language", "concept", "transcription", "cognate_class")
_REQUIRED_COLUMNS = ("language", "concept", "transcription")
_SYMBOLS = frozenset(ASJP_SOUNDS)
_STRIP_MODIFIERS = dict.fromkeys(map(ord, MODIFIER_CHARS))  # a str.translate table


@dataclass(frozen=True, slots=True)
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
    which is the file order for parsed lists. A parsed list keeps one string
    per distinct field value, shared by every form that holds it. Instances
    are safe to share across worker processes.
    """

    def __init__(self, forms: Iterable[WordForm]):
        seen: dict[tuple[str, str, str], WordForm] = {}  # first forms, in order
        dropped = 0
        for form in forms:
            key = (form.language, form.meaning, form.segments)
            if key in seen:
                dropped += 1
                continue
            seen[key] = form
        self.forms = tuple(seen.values())
        self.duplicates_collapsed = dropped

        by_meaning: dict[str, list[WordForm]] = {}
        languages: dict[str, None] = {}
        for form in self.forms:
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

    def forms_for_meaning(self, meaning: str) -> tuple[WordForm, ...]:
        """All forms expressing ``meaning``, in file order."""
        try:
            return self._by_meaning[meaning]
        except KeyError:
            raise MeaningNotFoundError(f"unknown meaning {meaning!r}") from None

    def __len__(self) -> int:
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WordList):
            return NotImplemented
        return self.forms == other.forms

    def __repr__(self) -> str:
        return (
            f"WordList({len(self.forms)} forms, {len(self.meanings)} meanings, "
            f"{len(self.languages)} languages)"
        )


def parse_wordlist(
    source: str | os.PathLike | IO,
    *,
    modifiers: str = "strip",
) -> WordList:
    """Parse a TSV word list from a path or an open (text or binary) file.

    ``modifiers`` selects how transcription modifier characters are treated:
    ``"strip"`` drops them, ``"strict"`` reports them as alphabet violations.
    Any other character outside the ASJP alphabet is an error in both modes.
    An error in the file starts with its path, if ``source`` is one;
    ``modifiers`` is checked before the file is opened. Equal languages,
    concepts, transcriptions and cognate classes are one ``str`` object in
    the list, however many forms hold them.
    """
    if modifiers not in ("strip", "strict"):
        raise ValidationError(f"unknown modifier policy {modifiers!r}")
    with in_file(source):
        text = read_text(source)
        head = first_line(text)
        header = head.split("\t") if head else []
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

        pick = itemgetter(*(positions[name] for name in _REQUIRED_COLUMNS))
        gold_at = positions.get("cognate_class")
        strip = modifiers == "strip"
        # One str per distinct value: share(s, s) is the first str equal to s.
        share = {}.setdefault
        # Each distinct transcription field is checked once. Its key is the
        # shared field, so the dict keeps no copy of its own.
        checked = {}
        forms = []
        for lineno, row in read_rows(text, len(header), start=2):
            language, meaning, word = pick(row)
            if not language:
                raise ValidationError("empty language identifier", line=lineno)
            if not meaning:
                raise ValidationError("empty concept identifier", line=lineno)
            word = share(word, word)
            segments = checked.get(word)
            if segments is None:
                segments = word.translate(_STRIP_MODIFIERS) if strip else word
                if not segments:
                    raise ValidationError("empty transcription", line=lineno)
                if not _SYMBOLS.issuperset(segments):
                    bad = next(ch for ch in segments if ch not in _SYMBOLS)
                    raise ValidationError(f"symbol {bad!r} is not in the alphabet", line=lineno)
                checked[word] = segments = share(segments, segments)
            gold = row[gold_at] if gold_at is not None else ""
            forms.append(WordForm(share(language, language), share(meaning, meaning),
                                  segments, share(gold, gold) if gold else None))
        return WordList(forms)
