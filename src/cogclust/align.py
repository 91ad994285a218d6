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
``nw_score``. Following Gotoh (1982), it keeps one row of each cell's best
score, ``max(m, x, y)``, and builds the next cells from it. Every cell is
still the three-way max of the same sums, bit for bit: the one candidate
this adds never wins, because ``gap_open <= gap_extend`` and rounding is
monotone. ``similarity_matrix`` aligns each distinct transcription of a
meaning once, longest first, and gathers the repeats from that distinct-form
matrix. Every max is ``np.maximum``, and a zero score is returned as +0.0, so
no result depends on which zero a numpy build's ``np.maximum`` keeps."""

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .alphabet import ASJP_SOUNDS, check_alphabet
from .errors import DegenerateInputError, ValidationError, as_number
from .wordlist import WordForm

_NEG_INF = float("-inf")
# Pairs aligned per pass of the batched kernel. This bounds its buffers to a
# few (longest word + 1) x _CHUNK_PAIRS arrays, about 1 MB for words of 15
# segments. Against 1024, on meanings of about 50 distinct words (1,300 pairs)
# and of 100 (5,050 pairs), 256 was 1.4-1.9x slower and 2048 5-11% faster for
# twice the buffers; a whole 5,050-pair meaning per pass was 1.4x slower.
_CHUNK_PAIRS = 1024


@dataclass(frozen=True)
class GapParams:
    """Affine gap costs: opening a run is at least as expensive as extending it."""

    gap_open: float = -1.0
    gap_extend: float = -0.5

    def __post_init__(self):
        if not (as_number(self.gap_open) <= 0 and as_number(self.gap_extend) <= 0):
            raise ValidationError("gap penalties must be <= 0")
        if abs(self.gap_extend) > abs(self.gap_open):
            raise ValidationError(
                "gap extension may not be more expensive than gap opening"
            )


class Scorer:
    """A segment-pair substitution table over an alphabet, plus gap costs.

    ``scores[i, j]`` is the score of aligning the i-th alphabet symbol with
    the j-th. The table is square, symmetric and free of NaN and ``+inf``;
    ``-inf`` marks a pair never observed by an unsmoothed PMI estimate. Build
    an identity table with :meth:`vanilla`, load or estimate a PMI table with
    ``pmi.load_pmi`` or ``pmi.estimate_pmi``, and give a table other gaps
    with :meth:`from_pmi`. Aligning a word with a symbol outside the alphabet
    is an error. Instances are immutable and safe for shared concurrent
    reads. The alphabet obeys ``alphabet.check_alphabet``; it never holds the
    gap symbol ``-``, as gaps are priced by ``gaps`` alone.
    """

    def __init__(self, alphabet: Sequence[str], scores, gaps: GapParams | None = None):
        self.alphabet = check_alphabet(alphabet)
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
        if not as_number(match) > as_number(mismatch):
            raise ValidationError("match score must exceed mismatch score")
        n = len(alphabet)
        return cls(alphabet, np.where(np.eye(n, dtype=bool), match, mismatch), gaps)

    @classmethod
    def from_pmi(cls, table: "Scorer", gaps: GapParams | None = None) -> "Scorer":
        """The same substitution table with other gap costs (default gaps if None)."""
        return cls(table.alphabet, table.scores, gaps)

    def substitution(self, x: str, y: str) -> float:
        """Score of aligning segment x with segment y."""
        i, j = self._encode((x, y))
        return float(self.scores[i, j])

    def _encode(self, word: Sequence[str]) -> list[int]:
        try:
            return [self._index[symbol] for symbol in word]
        except KeyError as exc:
            raise ValidationError(
                f"segment {exc.args[0]!r} is not in the scorer alphabet"
            ) from None

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


def _gotoh_batch(codes, first, second, scorer: Scorer) -> np.ndarray:
    """Maximum affine-gap global alignment scores of pairs of int-coded words.

    Pair ``p`` aligns ``codes[first[p]]`` with ``codes[second[p]]``. The
    recurrence has three states: a substitution column (m), a gap consuming
    the first word (x) and a gap consuming the second (y); adjacent gaps in
    opposite words each open their own run. It keeps one row of each cell's
    best state, ``h = max(m, x, y)``, plus the x and y rows:

    - ``m = h_above_left + substitution``, written straight into ``h``;
    - ``x = max(x_above + gap_extend, h_above + gap_open)``;
    - ``y = max(max(m, x)_left + gap_open, y_left + gap_extend)``, in a loop
      over columns because it reads its own row; then ``h = max(h, y)``.

    Opening x from ``h`` adds one candidate to the three-state recurrence,
    an x run opened right after an x run, and it never wins: as
    ``GapParams`` keeps ``gap_open <= gap_extend`` and rounding is monotone,
    ``v + gap_open <= v + gap_extend``, and ``max(a, b) + c`` is the larger of
    ``a + c`` and ``b + c``. So every cell is the max of the same sums as the
    three-state recurrence's. A row is ``(len_b + 1, pairs)``; cells past
    either word's end run over zero padding and are never read. Precondition:
    first-word lengths never increase along the batch, so the pairs whose
    first word ends in a row are one block, read from ``h`` with one slice.

    No cell is NaN, as no table holds +inf, so a max can pick between equal
    values only when they are zeros of opposite sign. The sign of a zero
    never changes a non-zero sum, and rounding is monotone, so every non-zero
    score has the bits of the best path's left-to-right sum whichever zero a
    max keeps; adding +0.0 at the end makes every zero score +0.0.
    """
    gap_open, gap_extend = scorer.gaps.gap_open, scorer.gaps.gap_extend
    lengths = np.array([len(c) for c in codes], dtype=np.intp)
    longest = int(lengths.max())
    words = np.array([c + [0] * (longest - len(c)) for c in codes], dtype=np.intp)
    # A boundary cell is one gap run, summed one extension at a time so that
    # scores are bitwise identical to summing costs along the alignment path.
    edge, run = [0.0], gap_open
    for _ in range(longest):
        edge.append(run)
        run += gap_extend
    flat_scores = scorer.scores.ravel()
    n = len(scorer.alphabet)
    total = len(first)
    out = np.empty(total)
    for start in range(0, total, _CHUNK_PAIRS):
        chunk = slice(start, start + _CHUNK_PAIRS)
        done = out[chunk]
        len_a, len_b = lengths[first[chunk]], lengths[second[chunk]]
        pairs = len(len_a)
        # Row i of a_rows is the offset of the first word's i-th symbol's row
        # in the flattened table, so b + a_rows[i] indexes its scores.
        a_rows = np.ascontiguousarray(words[first[chunk], :len_a.max()].T) * n
        b = np.ascontiguousarray(words[second[chunk], :len_b.max()].T)
        rows, cols = len(a_rows), len(b) + 1
        # at_least[i] pairs have a first word of i or more symbols, so those
        # ending in row i are the block at_least[i + 1]:at_least[i] of cells.
        at_least = np.cumsum(np.bincount(len_a, minlength=rows + 2)[::-1])[::-1].tolist()
        cells = len_b * pairs + np.arange(pairs)  # each pair's end in a flat row
        # x and y are updated in place: a cell of either reads only its own
        # column above or the cell to its left. Column 0 of x is never read;
        # its boundary run is h[0].
        h_above, h, x, y = np.full((4, cols, pairs), _NEG_INF)
        cand = np.empty((cols - 1, pairs))
        at = np.empty((cols - 1, pairs), dtype=np.intp)
        step = np.empty(pairs)
        # The views the row pass reads, built once per chunk: of each h
        # buffer its whole, its columns from 1, its columns but the last and
        # its flat form; x and y from column 1; y's neighbouring columns.
        here = (h, h[1:], h[:-1], h.ravel())
        above = (h_above, h_above[1:], h_above[:-1], h_above.ravel())
        x_rest, y_rest = x[1:], y[1:]
        y_cols = list(y)
        y_steps = list(zip(y_cols, y_cols[1:]))

        def finish(i, h_flat):
            block = slice(at_least[i + 1], at_least[i])
            done[block] = h_flat.take(cells[block])

        h.T[:] = edge[:cols]  # row 0: one gap run over the second word
        finish(0, here[3])
        for i, a_row in enumerate(a_rows, start=1):
            above, here = here, above
            h, h_rest, h_init, h_flat = here
            _, above_rest, above_init, _ = above
            h[0] = edge[i]  # column 0: one gap run over the first word
            # m into h: the best cell above-left plus the substitution score.
            np.add(b, a_row, out=at)
            np.add(above_init, flat_scores.take(at, out=cand), out=h_rest)
            # x: extend its run from above, or open one from the cell above.
            np.add(x_rest, gap_extend, out=x_rest)
            np.add(above_rest, gap_open, out=cand)
            np.maximum(x_rest, cand, out=x_rest)
            np.maximum(h_rest, x_rest, out=h_rest)
            # y: open from max(m, x) to the left; only the extension of its
            # own run needs the loop.
            np.add(h_init, gap_open, out=y_rest)
            for left, cell in y_steps:
                np.add(left, gap_extend, out=step)
                np.maximum(cell, step, out=cell)
            np.maximum(h_rest, y_rest, out=h_rest)
            finish(i, h_flat)
    out += 0.0  # -0.0 + 0.0 is +0.0; every other value keeps its bits
    return out


def nw_score(a: Sequence[str], b: Sequence[str], scorer: Scorer) -> float:
    """Maximum global alignment score of two words under a scorer.

    Symmetric in its word arguments, bit for bit, for every gap setting; a
    zero score is +0.0. Empty sequences are legal (their only alignment is
    one all-gap run), though real word forms are never empty.
    """
    return float(_gotoh_batch([scorer._encode(a), scorer._encode(b)], [0], [1], scorer)[0])


def similarity_values(sim) -> np.ndarray:
    """A writable float64 copy of a similarity matrix's values, checked unless ``sim``
    is a SimilarityMatrix, which was checked when it was made by the same rules."""
    if isinstance(sim, SimilarityMatrix):
        return sim.values.copy()
    arr = np.array(getattr(sim, "values", sim), dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"similarity matrix must be square, got shape {arr.shape}")
    if not np.array_equal(arr, arr.T):
        raise ValidationError("similarity matrix must be symmetric")
    if not (arr >= 0).all():
        raise ValidationError("similarity matrix must be non-negative")
    if arr.shape[0] == 0:
        raise DegenerateInputError("empty similarity matrix")
    return arr


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Symmetric non-negative word-similarity matrix for one meaning.

    ``values[i, j]`` is the clamped alignment score of ``forms[i]`` and ``forms[j]``;
    the diagonal holds clamped self-alignment scores. The matrix is checked once, when
    it is made, with one form per row, and ``values`` is its own read-only copy.
    """

    values: np.ndarray
    forms: tuple

    def __post_init__(self):
        values = similarity_values(self.values)
        if len(self.forms) != len(values):
            raise ValidationError(f"{len(self.forms)} forms for a matrix of {len(values)} rows")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def to_tsv(self, sink: IO) -> None:
        """Debug dump with word transcriptions as row and column headers."""
        words = [f.segments for f in self.forms]
        sink.write("\t" + "\t".join(words) + "\n")
        for word, row in zip(words, self.values.tolist()):
            sink.write(f"{word}\t" + "\t".join(map(repr, row)) + "\n")


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
    # A score depends only on the two words, so number the distinct words
    # longest first (equal lengths by first appearance), align their upper
    # triangle (self pairs included) in one batch, mirror it, and gather
    # every form's row and column from it. Longest first is required, not
    # only faster: row-major upper-triangle order then gives _gotoh_batch
    # first words that never lengthen and are never the shorter of a pair.
    distinct_words = sorted(dict.fromkeys(words), key=len, reverse=True)
    index = {w: k for k, w in enumerate(distinct_words)}
    inv = [index[w] for w in words]
    codes = [scorer._encode(w) for w in distinct_words]
    d = len(codes)
    rows, cols = np.nonzero(np.tri(d, dtype=bool).T)
    distinct = np.empty((d, d))
    distinct[rows, cols] = distinct[cols, rows] = _gotoh_batch(codes, rows, cols, scorer)
    raw = distinct.take(inv, axis=0).take(inv, axis=1)
    if normalize:
        self_raw = raw.diagonal().copy()
        for word, s in zip(words, self_raw.tolist()):
            if s <= 0:
                raise ValidationError(
                    f"cannot normalize: word {word!r} has non-positive "
                    f"self-similarity {s!r}"
                )
        raw = raw / ((self_raw[:, None] + self_raw[None, :]) / 2.0)
    return SimilarityMatrix(np.where(raw > 0, raw, 0.0), tuple(forms))  # a score <= 0 gives +0.0
