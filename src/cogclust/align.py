"""Affine-gap global alignment similarity between word forms.

Scores follow the three-state (substitution / gap-in-first / gap-in-second)
dynamic program: the first symbol of a contiguous gap run costs ``gap_open``
and every further symbol of the same run costs ``gap_extend``. A ``Scorer``
holds the segment-pair substitution table and the gap costs; the table is
either an identity table ("vanilla") or estimated PMI scores ("pmi").
``nw_score`` is a pure function; per-meaning similarity matrices are
symmetric, non-negative (clamped at zero) and bitwise deterministic for fixed
inputs.
"""

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .alphabet import ASJP_SOUNDS
from .errors import DegenerateInputError, ValidationError
from .wordlist import WordForm

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class GapParams:
    """Affine gap costs: opening a run is at least as expensive as extending it."""

    gap_open: float = -1.0
    gap_extend: float = -0.5

    def __post_init__(self):
        if not (self.gap_open <= 0 and self.gap_extend <= 0):  # NaN fails too
            raise ValidationError("gap penalties must be <= 0")
        if abs(self.gap_extend) > abs(self.gap_open):
            raise ValidationError(
                "gap extension may not be more expensive than gap opening"
            )


class Scorer:
    """A segment-pair substitution table over an alphabet, plus gap costs.

    ``scores[i, j]`` is the score of aligning the i-th alphabet symbol with
    the j-th. The table is square, symmetric and free of NaN and ``+inf``;
    ``-inf`` marks a pair never observed by an unsmoothed PMI estimate, and
    ``has_unobserved_pairs`` flags it. Build an identity table with
    :meth:`vanilla`, load or estimate a PMI table with ``pmi.load_pmi`` or
    ``pmi.estimate_pmi``, and give a table other gaps with :meth:`from_pmi`.
    Aligning a word with a symbol outside the alphabet is an error. Instances
    are immutable and safe for shared concurrent reads.
    """

    def __init__(self, alphabet: Sequence[str], scores, gaps: GapParams | None = None):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValidationError("alphabet contains duplicate symbols")
        arr = np.array(scores, dtype=float)
        n = len(self.alphabet)
        if arr.shape != (n, n):
            raise ValidationError(
                f"score table shape {arr.shape} does not match alphabet size {n}"
            )
        if np.isnan(arr).any():
            raise ValidationError("score table contains NaN")
        if np.isposinf(arr).any():
            raise ValidationError("score table contains +inf")
        if not np.array_equal(arr, arr.T):
            raise ValidationError("score table is not symmetric")
        arr.setflags(write=False)
        self.scores = arr
        self.gaps = gaps or GapParams()
        self._index = {s: i for i, s in enumerate(self.alphabet)}
        # The pure-Python kernel indexes nested lists much faster than ndarrays.
        self._rows = arr.tolist()

    @classmethod
    def vanilla(cls, match: float = 1.0, mismatch: float = -1.0,
                gaps: GapParams | None = None,
                alphabet: Sequence[str] = ASJP_SOUNDS) -> "Scorer":
        """Identity table: ``match`` on the diagonal, ``mismatch`` elsewhere."""
        if not match > mismatch:
            raise ValidationError("match score must exceed mismatch score")
        n = len(alphabet)
        return cls(alphabet, np.where(np.eye(n, dtype=bool), match, mismatch), gaps)

    @classmethod
    def from_pmi(cls, table: "Scorer", gaps: GapParams | None = None) -> "Scorer":
        """The same substitution table with other gap costs (default gaps if None)."""
        return cls(table.alphabet, table.scores, gaps)

    def substitution(self, x: str, y: str) -> float:
        """Score of aligning segment x with segment y."""
        return self._rows[self._code(x)][self._code(y)]

    @property
    def has_unobserved_pairs(self) -> bool:
        return bool(np.isneginf(self.scores).any())

    def _code(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValidationError(
                f"segment {symbol!r} is not in the scorer alphabet"
            ) from None

    def _encode(self, word: Sequence[str]) -> list[int]:
        return [self._code(ch) for ch in word]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scorer):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and np.array_equal(self.scores, other.scores)
            and self.gaps == other.gaps
        )

    def __repr__(self) -> str:
        return f"Scorer({len(self.alphabet)} symbols, {self.gaps})"


def _gotoh(codes_a, codes_b, sub_rows, gap_open, gap_extend):
    """Maximum affine-gap global alignment score over int-coded sequences.

    Three rolling rows: best score ending in a substitution column (m), in a
    gap consuming the first sequence (x), or in a gap consuming the second
    (y). Adjacent gaps in opposite sequences each open their own run.
    """
    n, m = len(codes_a), len(codes_b)
    m_prev = [_NEG_INF] * (m + 1)
    x_prev = [_NEG_INF] * (m + 1)
    y_prev = [_NEG_INF] * (m + 1)
    m_prev[0] = 0.0
    # Boundary gap runs accumulate one extension at a time so that scores are
    # bitwise identical to summing costs along the alignment path.
    for j in range(1, m + 1):
        y_prev[j] = gap_open if j == 1 else y_prev[j - 1] + gap_extend
    for i in range(1, n + 1):
        m_cur = [_NEG_INF] * (m + 1)
        x_cur = [_NEG_INF] * (m + 1)
        y_cur = [_NEG_INF] * (m + 1)
        x_cur[0] = gap_open if i == 1 else x_prev[0] + gap_extend
        row = sub_rows[codes_a[i - 1]]
        for j in range(1, m + 1):
            diag_m = m_prev[j - 1]
            diag_x = x_prev[j - 1]
            diag_y = y_prev[j - 1]
            best = diag_m if diag_m >= diag_x else diag_x
            if diag_y > best:
                best = diag_y
            m_cur[j] = best + row[codes_b[j - 1]]
            from_m = m_prev[j] + gap_open
            from_x = x_prev[j] + gap_extend
            from_y = y_prev[j] + gap_open
            best = from_m if from_m >= from_x else from_x
            if from_y > best:
                best = from_y
            x_cur[j] = best
            from_m = m_cur[j - 1] + gap_open
            from_x = x_cur[j - 1] + gap_open
            from_y = y_cur[j - 1] + gap_extend
            best = from_m if from_m >= from_x else from_x
            if from_y > best:
                best = from_y
            y_cur[j] = best
        m_prev, x_prev, y_prev = m_cur, x_cur, y_cur
    return max(m_prev[m], x_prev[m], y_prev[m])


def nw_score(a: Sequence[str], b: Sequence[str], scorer: Scorer) -> float:
    """Maximum global alignment score of two words under a scorer.

    Symmetric in its word arguments. Empty sequences are legal (their only
    alignment is one all-gap run), though real word forms are never empty.
    """
    return _gotoh(
        scorer._encode(a),
        scorer._encode(b),
        scorer._rows,
        scorer.gaps.gap_open,
        scorer.gaps.gap_extend,
    )


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Symmetric non-negative word-similarity matrix for one meaning.

    ``values[i, j]`` is the clamped alignment score of ``forms[i]`` and
    ``forms[j]``; the diagonal holds clamped self-alignment scores.
    """

    values: np.ndarray
    forms: tuple

    @property
    def n(self) -> int:
        return len(self.forms)

    def words(self) -> tuple[str, ...]:
        return tuple(f.segments for f in self.forms)

    def to_tsv(self, sink: IO) -> None:
        """Debug dump with word transcriptions as row and column headers."""
        words = self.words()
        sink.write("\t" + "\t".join(words) + "\n")
        for i, word in enumerate(words):
            cells = "\t".join(repr(float(v)) for v in self.values[i])
            sink.write(f"{word}\t{cells}\n")


def similarity_matrix(
    forms: Sequence[WordForm],
    scorer: Scorer,
    *,
    normalize: bool = False,
) -> SimilarityMatrix:
    """Pairwise alignment similarities of a meaning's forms, clamped at zero.

    With ``normalize=True`` each raw score is divided by the mean of the two
    words' raw self-similarities before clamping; that requires positive
    self-similarity for every word.
    """
    if len(forms) == 0:
        raise DegenerateInputError("no word forms to compare")
    meanings = {f.meaning for f in forms}
    if len(meanings) > 1:
        raise ValidationError(f"forms span several meanings: {sorted(meanings)}")
    words = [f.segments for f in forms]
    codes = [scorer._encode(w) for w in words]
    rows = scorer._rows
    gap_open, gap_extend = scorer.gaps.gap_open, scorer.gaps.gap_extend

    n = len(words)
    raw = np.zeros((n, n), dtype=float)
    self_raw = [_gotoh(c, c, rows, gap_open, gap_extend) for c in codes]
    for i in range(n):
        raw[i, i] = self_raw[i]
        for j in range(i + 1, n):
            s = _gotoh(codes[i], codes[j], rows, gap_open, gap_extend)
            raw[i, j] = s
            raw[j, i] = s
    if normalize:
        for i, s in enumerate(self_raw):
            if s <= 0:
                raise ValidationError(
                    f"cannot normalize: word {words[i]!r} has non-positive "
                    f"self-similarity {s!r}"
                )
        means = (np.array(self_raw)[:, None] + np.array(self_raw)[None, :]) / 2.0
        raw = raw / means
    values = np.maximum(raw, 0.0)
    values.setflags(write=False)
    return SimilarityMatrix(values=values, forms=tuple(forms))
