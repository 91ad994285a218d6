"""The ASJP sound-class alphabet used for word transcriptions.

Every transcription handled by this package is a string of single-character
sound-class symbols from the 41-symbol ASJP code. Raw data files may decorate
transcriptions with modifier characters; the parser either strips or rejects
those (see ``wordlist.parse_wordlist``).
"""

from typing import Iterable

from .errors import ValidationError

# The 41 ASJP sound-class symbols.
ASJP_SOUNDS: tuple[str, ...] = tuple("pbfvmw8tdszcnrlSZCjT5ykgxNqXh7L4G!ieE3auo")

# Placeholder for an alignment gap. Never part of a transcription and never a
# row of a segment-score matrix; gaps are priced by the aligner's gap
# parameters instead.
GAP = "-"

# Modifier characters seen in raw ASJP transcriptions (juncture, ligature and
# nasalization marks). They carry no segment of their own.
MODIFIER_CHARS = frozenset('~$"*')


def check_alphabet(symbols: Iterable[str]) -> tuple[str, ...]:
    """The symbols of a score table as a tuple, if every table over them can
    be saved as a matrix file and loaded back; ``ValidationError`` if not."""
    symbols = tuple(symbols)
    if not symbols:
        raise ValidationError("alphabet is empty")
    for s in symbols:
        if len(s) != 1:
            raise ValidationError("alphabet symbols must be single characters")
        if s in " \t\r\n":
            raise ValidationError(f"alphabet symbol {s!r} separates the fields of a matrix file")
        if "\ud800" <= s <= "\udfff":
            raise ValidationError(f"alphabet symbol {s!r} is a lone surrogate, which UTF-8 cannot encode")
    if len(set(symbols)) != len(symbols):
        raise ValidationError("alphabet contains duplicate symbols")
    if GAP in symbols:
        raise ValidationError(
            f"the gap symbol {GAP!r} may not be part of a score table; "
            "gap costs are aligner parameters"
        )
    return symbols
