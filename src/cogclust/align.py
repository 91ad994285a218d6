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
pairs at once: all pairs of a meaning's distinct transcriptions for
``similarity_matrix``, in chunks of ``_CHUNK_PAIRS``, and a batch of one for
``nw_score``. ``similarity_matrix`` aligns each distinct transcription of a
meaning once and gathers the repeats from that distinct-form matrix. Every
max is ``np.maximum``, and a zero score is returned as +0.0, so no result
depends on which zero a numpy build's ``np.maximum`` keeps."""

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .alphabet import ASJP_SOUNDS, GAP
from .errors import DegenerateInputError, ValidationError
from .wordlist import WordForm

_NEG_INF = float("-inf")
# Pairs aligned per pass of the batched kernel. This bounds its buffers to a
# few (longest word + 1) x _CHUNK_PAIRS arrays, about 1 MB for words of 15
# segments. On 100-form meanings 256 was 1.6x slower than 1024, and 2048 to a
# whole meaning (5,050 pairs) per pass 7-12% faster, for 2-5x the buffers.
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
    are immutable and safe for shared concurrent reads. The gap symbol ``-``
    is never in the alphabet: gaps are priced by ``gaps`` alone.
    """

    def __init__(self, alphabet: Sequence[str], scores, gaps: GapParams | None = None):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValidationError("alphabet contains duplicate symbols")
        if GAP in self.alphabet:
            raise ValidationError(
                f"the gap symbol {GAP!r} may not be part of a score table; "
                "gap costs are aligner parameters"
            )
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


def _gotoh_batch(codes, first, second, scores, gap_open, gap_extend) -> np.ndarray:
    """Maximum affine-gap global alignment scores of pairs of int-coded words.

    Pair ``p`` aligns ``codes[first[p]]`` with ``codes[second[p]]``. The
    recurrence keeps three rows: best score ending in a substitution column
    (m), in a gap consuming the first word (x), or in a gap consuming the
    second (y); adjacent gaps in opposite words each open their own run. A
    row is ``(len_b + 1, pairs)``: m and x are computed for every column at
    once, y in a loop over columns because it reads its own row. A pair's
    score is read from its end cell at the row where its first word ends;
    cells past either word's end run over zero padding and are never read.

    No cell is NaN, as no table holds +inf, so a max can pick between equal
    values only when they are zeros of opposite sign. The sign of a zero
    never changes a non-zero sum, and rounding is monotone, so every non-zero
    score has the bits of the best path's left-to-right sum whichever zero a
    max keeps; adding +0.0 at the end makes every zero score +0.0.
    """
    lengths = np.array([len(c) for c in codes], dtype=np.intp)
    words = np.zeros((len(codes), int(lengths.max())), dtype=np.intp)
    for row, c in zip(words, codes):
        row[:len(c)] = c
    flat_scores = scores.ravel()
    n = scores.shape[0]
    total = len(first)
    out = np.empty(total)
    for start in range(0, total, _CHUNK_PAIRS):
        chunk = slice(start, start + _CHUNK_PAIRS)
        len_a, len_b = lengths[first[chunk]], lengths[second[chunk]]
        pairs = len(len_a)
        # Row i of a_rows is the offset of the first word's i-th symbol's row
        # in the flattened table, so b + a_rows[i] indexes its scores.
        a_rows = np.ascontiguousarray(words[first[chunk], :len_a.max()].T) * n
        b = np.ascontiguousarray(words[second[chunk], :len_b.max()].T)
        # m is kept for this row and the one above; x and y are updated in
        # place, since a cell of either reads only its own column above or
        # the cell to its left.
        cols = b.shape[0] + 1
        m_above, m, x, y = np.full((4, cols, pairs), _NEG_INF)
        cand = np.empty((cols - 1, pairs))
        at = np.empty((cols - 1, pairs), dtype=np.intp)
        step = np.empty(pairs)

        def finish(i):
            # The max of m, x and y at the end cells of the pairs whose first
            # word ends at row i, read by flat offset in a (cols, pairs) row.
            ended = np.flatnonzero(len_a == i)
            if len(ended) == 0:
                return
            cells = len_b[ended] * pairs + ended
            best = m.ravel().take(cells)
            np.maximum(best, x.ravel().take(cells), out=best)
            np.maximum(best, y.ravel().take(cells), out=best)
            out[start + ended] = best

        m[0] = 0.0
        # Boundary gap runs accumulate one extension at a time so that scores
        # are bitwise identical to summing costs along the alignment path.
        run = gap_open
        for j in range(1, cols):
            y[j] = run
            run += gap_extend
        finish(0)
        run = gap_open
        for i in range(1, len(a_rows) + 1):
            m_above, m = m, m_above
            m[0] = _NEG_INF
            # m: the best diagonal predecessor plus the substitution score.
            np.maximum(m_above[:-1], x[:-1], out=m[1:])
            np.maximum(m[1:], y[:-1], out=m[1:])
            np.add(b, a_rows[i - 1], out=at)
            m[1:] += flat_scores.take(at, out=cand)
            # x: from the cell above.
            np.add(x[1:], gap_extend, out=x[1:])
            np.add(m_above[1:], gap_open, out=cand)
            np.maximum(x[1:], cand, out=x[1:])
            np.add(y[1:], gap_open, out=cand)
            np.maximum(x[1:], cand, out=x[1:])
            x[0] = run
            run += gap_extend
            # y: from the cell to the left. Its m-or-x choice is known for
            # every column; only the extension of y's own run needs the loop.
            np.add(x[:-1], gap_open, out=y[1:])
            np.add(m[:-1], gap_open, out=cand)
            np.maximum(y[1:], cand, out=y[1:])
            for j in range(1, cols):
                np.add(y[j - 1], gap_extend, out=step)
                np.maximum(y[j], step, out=y[j])
            finish(i)
    out += 0.0  # -0.0 + 0.0 is +0.0; every other value keeps its bits
    return out


def nw_score(a: Sequence[str], b: Sequence[str], scorer: Scorer) -> float:
    """Maximum global alignment score of two words under a scorer.

    Symmetric in its word arguments, bit for bit, for every gap setting; a
    zero score is +0.0. Empty sequences are legal (their only alignment is
    one all-gap run), though real word forms are never empty.
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
    # A score depends only on the two words, so number the distinct words by
    # first appearance, align their upper triangle (self pairs included) in
    # one batch, mirror it, and gather every form's row and column from it.
    index: dict[str, int] = {}
    inv = [index.setdefault(w, len(index)) for w in words]
    codes = [scorer._encode(w) for w in index]
    d = len(codes)
    rows, cols = np.triu_indices(d)
    distinct = np.empty((d, d))
    distinct[rows, cols] = distinct[cols, rows] = _gotoh_batch(
        codes,
        rows,
        cols,
        scorer.scores,
        scorer.gaps.gap_open,
        scorer.gaps.gap_extend,
    )
    raw = distinct[np.ix_(inv, inv)]
    if normalize:
        self_raw = raw.diagonal().copy()
        for word, s in zip(words, self_raw.tolist()):
            if s <= 0:
                raise ValidationError(
                    f"cannot normalize: word {word!r} has non-positive "
                    f"self-similarity {s!r}"
                )
        raw = raw / ((self_raw[:, None] + self_raw[None, :]) / 2.0)
    values = np.where(raw > 0, raw, 0.0)  # every non-positive score gives +0.0
    values.setflags(write=False)
    return SimilarityMatrix(values=values, forms=tuple(forms))
