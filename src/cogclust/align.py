"""Affine-gap global alignment similarity between word forms.

Scores follow the three-state (substitution / gap-in-first / gap-in-second)
dynamic program: the first symbol of a contiguous gap run costs ``gap_open``
and every further symbol of the same run costs ``gap_extend``. A ``Scorer``
holds the segment-pair substitution table and the gap costs; the table is
either an identity table ("vanilla") or estimated PMI scores ("pmi").
``nw_score`` is a pure function; per-meaning similarity matrices are
symmetric, non-negative (clamped at zero) and bitwise deterministic for fixed
inputs.

One numpy kernel, ``_gotoh_batch``, runs the recurrence over a batch of word
pairs at once: all pairs of a meaning for ``similarity_matrix``, in chunks of
``_CHUNK_PAIRS``, and a batch of one for ``nw_score``. Every max keeps its
first candidate unless a later one is strictly greater (``a if a >= b else
b``, then ``c`` only if ``c >`` that), spelled out with comparisons and
masked copies. ``np.maximum`` is not used because numpy does not fix which
zero it returns for ``max(-0.0, 0.0)``, and the sign of a zero score is part
of ``nw_score``'s result."""

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .alphabet import ASJP_SOUNDS
from .errors import DegenerateInputError, ValidationError
from .wordlist import WordForm

_NEG_INF = float("-inf")
# Pairs aligned per pass of the batched kernel. This bounds its buffers to a
# few (longest word + 1) x _CHUNK_PAIRS arrays, about 1 MB for words of 15
# segments. On 100-form meanings 256 was 1.5x slower than 1024, and a whole
# meaning (5,050 pairs) per pass within 3% of it.
_CHUNK_PAIRS = 1024


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
        return float(self.scores[self._code(x), self._code(y)])

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


def _prefer(best, cand, mask, compare) -> None:
    """Replace ``best`` by ``cand`` in place wherever ``compare(cand, best)``.

    Each max of the recurrence is ``a if a >= b else b``, then ``c`` if
    ``c > best``: start from ``b``, prefer ``a`` with ``np.greater_equal``,
    then ``c`` with ``np.greater``.
    """
    compare(cand, best, out=mask)
    np.copyto(best, cand, where=mask)


def _gotoh_batch(codes, first, second, scores, gap_open, gap_extend) -> np.ndarray:
    """Maximum affine-gap global alignment scores of pairs of int-coded words.

    Pair ``p`` aligns ``codes[first[p]]`` with ``codes[second[p]]``. The
    recurrence keeps three rows: best score ending in a substitution column
    (m), in a gap consuming the first word (x), or in a gap consuming the
    second (y); adjacent gaps in opposite words each open their own run. A
    row is ``(len_b + 1, pairs)``: m and x are computed for every column at
    once, y in a loop over columns because it reads its own row. A pair's
    score is read from its end cell when the row index reaches its length;
    cells past either word's end run over zero padding and are never read.
    """
    lengths = np.array([len(c) for c in codes], dtype=np.intp)
    words = np.zeros((len(codes), int(lengths.max())), dtype=np.intp)
    for row, c in zip(words, codes):
        row[:len(c)] = c
    total = len(first)
    out = np.empty(total)
    for start in range(0, total, _CHUNK_PAIRS):
        chunk = slice(start, start + _CHUNK_PAIRS)
        len_a, len_b = lengths[first[chunk]], lengths[second[chunk]]
        pairs = len(len_a)
        a = np.ascontiguousarray(words[first[chunk], :len_a.max()].T)
        b = np.ascontiguousarray(words[second[chunk], :len_b.max()].T)
        # m is kept for this row and the one above; x and y are updated in
        # place, since a cell of either reads only its own column above or
        # the cell to its left.
        cols = b.shape[0] + 1
        m_above, m, x, y = np.full((4, cols, pairs), _NEG_INF)
        cand = np.empty((cols - 1, pairs))
        mask = np.empty((cols - 1, pairs), dtype=bool)
        step, beats = np.empty(pairs), np.empty(pairs, dtype=bool)
        ends = (len_b, np.arange(pairs))

        def finish(i):
            # Python's max(m, x, y) of each end cell, kept for the pairs
            # whose first word ends at row i.
            best = m[ends]
            _prefer(best, x[ends], beats, np.greater)
            _prefer(best, y[ends], beats, np.greater)
            np.copyto(out[chunk], best, where=len_a == i)

        m[0] = 0.0
        # Boundary gap runs accumulate one extension at a time so that scores
        # are bitwise identical to summing costs along the alignment path.
        run = gap_open
        for j in range(1, cols):
            y[j] = run
            run += gap_extend
        finish(0)
        run = gap_open
        for i in range(1, a.shape[0] + 1):
            m_above, m = m, m_above
            m[0] = _NEG_INF
            # m: the best diagonal predecessor plus the substitution score.
            np.copyto(m[1:], x[:-1])
            _prefer(m[1:], m_above[:-1], mask, np.greater_equal)
            _prefer(m[1:], y[:-1], mask, np.greater)
            m[1:] += scores[a[i - 1], b]
            # x: from the cell above.
            np.add(x[1:], gap_extend, out=x[1:])
            np.add(m_above[1:], gap_open, out=cand)
            _prefer(x[1:], cand, mask, np.greater_equal)
            np.add(y[1:], gap_open, out=cand)
            _prefer(x[1:], cand, mask, np.greater)
            x[0] = run
            run += gap_extend
            # y: from the cell to the left. Its m-or-x choice is known for
            # every column; only the extension of y's own run needs the loop.
            np.add(x[:-1], gap_open, out=y[1:])
            np.add(m[:-1], gap_open, out=cand)
            _prefer(y[1:], cand, mask, np.greater_equal)
            for j in range(1, cols):
                np.add(y[j - 1], gap_extend, out=step)
                _prefer(y[j], step, beats, np.greater)
            finish(i)
    return out


def nw_score(a: Sequence[str], b: Sequence[str], scorer: Scorer) -> float:
    """Maximum global alignment score of two words under a scorer.

    Symmetric in its word arguments. Empty sequences are legal (their only
    alignment is one all-gap run), though real word forms are never empty.
    """
    score = _gotoh_batch(
        [scorer._encode(a), scorer._encode(b)],
        [0],
        [1],
        scorer.scores,
        scorer.gaps.gap_open,
        scorer.gaps.gap_extend,
    )
    return float(score[0])


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

    # Align the upper triangle, self pairs included, in one batch and mirror it.
    n = len(words)
    rows, cols = np.triu_indices(n)
    raw = np.empty((n, n))
    raw[rows, cols] = raw[cols, rows] = _gotoh_batch(
        codes,
        rows,
        cols,
        scorer.scores,
        scorer.gaps.gap_open,
        scorer.gaps.gap_extend,
    )
    if normalize:
        self_raw = raw.diagonal().copy()
        for word, s in zip(words, self_raw.tolist()):
            if s <= 0:
                raise ValidationError(
                    f"cannot normalize: word {word!r} has non-positive "
                    f"self-similarity {s!r}"
                )
        raw = raw / ((self_raw[:, None] + self_raw[None, :]) / 2.0)
    values = np.maximum(raw, 0.0)
    values.setflags(write=False)
    return SimilarityMatrix(values=values, forms=tuple(forms))
