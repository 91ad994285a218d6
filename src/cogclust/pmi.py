"""Segment-pair PMI score tables: estimation from aligned pairs and file IO.

A table is an ``align.Scorer``, the one substitution-table type; estimated
and loaded tables carry default gaps, which ``Scorer.from_pmi`` replaces.

The score of a segment pair (i, j) is ``log(p(i,j) / (q(i) * q(j)))``. Each
aligned column is counted once, as the code ``left * (n + 1) + right`` of its
two alphabet indices with the gap as index ``n``, in one ``bincount`` table.
``p`` is the share of gap-free columns that hold i and j: the table's
symbol block plus its transpose, the diagonal counted once, as (i, j) and
(j, i) are pooled. ``q`` is the relative frequency of a segment over all
non-gap positions: the table's row plus column sums, gap columns included. A
positive score marks a pair that co-occurs above chance, a negative one below
chance, and ``-inf`` a pair never seen at smoothing 0. Gaps are aligner
parameters, so the matrix file holds no gap scores.

The matrix file format is plain UTF-8 text::

    alphabet<TAB>a b c ...
    a<TAB>a<TAB>1.25
    a<TAB>b<TAB>-0.5
    ...

with one line per unordered symbol pair and scores at full precision.
"""

import math
import os
from itertools import repeat
from typing import IO, Iterable, Sequence

import numpy as np

from .align import Scorer
from .alphabet import ASJP_SOUNDS, GAP, check_alphabet
from .errors import DegenerateInputError, ParseError, ValidationError, as_number
from .textio import first_line, in_file, open_sink, read_rows, read_text

DEFAULT_SMOOTHING = 0.1


def estimate_pmi(
    aligned_pairs: str | os.PathLike | IO | Iterable[tuple[Sequence[str], Sequence[str]]],
    smoothing: float = DEFAULT_SMOOTHING,
    *,
    alphabet: Sequence[str] = ASJP_SOUNDS,
) -> Scorer:
    """Estimate a PMI table, with default gaps, from aligned word pairs in one pass.

    Each pair is two equal-length segment sequences over the alphabet plus
    ``"-"`` for gaps. ``aligned_pairs`` holds the pairs, or is a path or open
    file of them, one per line in two tab-separated columns; an error there
    names the pair's line, blank lines counted, after the path if given one.
    ``smoothing`` is an additive pseudo-count applied to every unordered joint
    cell; marginals receive the pseudo-counts those joint cells induce (a
    symbol gains ``smoothing * (len(alphabet) + 1)`` pseudo-occurrences). With
    ``smoothing=0`` unobserved pairs score ``-inf``, as does an unobserved pair
    whose smoothed share underflows to 0. A bad ``smoothing`` or alphabet is
    reported before the file is opened or any pair is read.
    """
    if not 0 <= as_number(smoothing) < math.inf:
        raise ValidationError("smoothing must be finite and >= 0")
    symbols = check_alphabet(alphabet)
    n = len(symbols)
    m = n + 1  # codes per column side: the symbols, then the gap
    code = {s: i for i, s in enumerate(symbols)} | {GAP: n}

    def columns(numbered):
        for lineno, (left, right) in numbered:
            if len(left) != len(right):
                raise ValidationError(
                    f"aligned pair ({left!r}, {right!r}) has unequal lengths "
                    f"{len(left)} and {len(right)}", line=lineno
                )
            try:
                yield from [code[x] * m + code[y] for x, y in zip(left, right)]
            except KeyError as exc:
                raise ValidationError(f"segment {exc.args[0]!r} is not in the alphabet",
                                      line=lineno) from None

    with in_file(aligned_pairs):
        if isinstance(aligned_pairs, (str, os.PathLike)) or hasattr(aligned_pairs, "read"):
            numbered = read_rows(read_text(aligned_pairs), 2)
        else:  # pairs given as such have no line to name
            numbered = zip(repeat(None), aligned_pairs)
        counts = np.bincount(np.fromiter(columns(numbered), dtype=np.intp), minlength=m * m)
        counts = counts.reshape(m, m)
        seen = counts[:n, :n]
        total_joint = int(seen.sum())
        if total_joint == 0:
            raise DegenerateInputError("no non-gap co-occurrences in the aligned pairs")
        pooled = seen + seen.T - np.diag(np.diag(seen))
        marginal = counts[:n].sum(axis=1) + counts[:, :n].sum(axis=0)

        joint_den = total_joint + smoothing * (n * m // 2)
        marg_pseudo = smoothing * m
        marg_den = int(marginal.sum()) + n * marg_pseudo
        with np.errstate(all="ignore"):
            q = (marginal + marg_pseudo) / marg_den
            ratio = (pooled + smoothing) / joint_den / np.outer(q, q)
        ratio[pooled + smoothing == 0] = 0.0
        # math.log, not np.log: numpy does not promise np.log's bits on every build.
        scores = [[math.log(r) if r else -math.inf for r in row] for row in ratio.tolist()]
        return Scorer(symbols, scores)


def load_pmi(source: str | os.PathLike | IO) -> Scorer:
    """Load a PMI matrix file as a table with default gaps.

    The table must be dense and consistent. An error in the file starts with
    its path, if ``source`` is one.
    """
    with in_file(source):
        text = read_text(source)
        head = first_line(text).split("\t")
        if len(head) != 2 or head[0] != "alphabet":
            raise ParseError("first line must be 'alphabet<TAB><symbols>'", line=1)
        try:
            symbols = check_alphabet(head[1].split(" "))
        except ValidationError as exc:
            raise ParseError(str(exc), line=1) from None
        index = {s: i for i, s in enumerate(symbols)}
        n = len(symbols)
        scores = np.zeros((n, n), dtype=float)
        filled = np.zeros((n, n), dtype=bool)
        for lineno, (a, b, text_value) in read_rows(text, 3, start=2):
            for symbol in (a, b):
                if symbol not in index:
                    raise ParseError(f"symbol {symbol!r} is not in the alphabet", line=lineno)
            try:
                value = float(text_value)
            except ValueError:
                raise ParseError(f"bad score {text_value!r}", line=lineno) from None
            i, j = index[a], index[b]
            if filled[i, j] and scores[i, j] != value:
                raise ParseError(
                    f"conflicting scores for pair ({a}, {b}): "
                    f"{float(scores[i, j])!r} vs {value!r}",
                    line=lineno,
                )
            scores[i, j] = scores[j, i] = value
            filled[i, j] = filled[j, i] = True
        if not filled.all():
            i, j = np.argwhere(~filled)[0]
            raise ParseError(f"missing score for pair ({symbols[i]}, {symbols[j]})")
        return Scorer(symbols, scores)


def save_pmi(table: Scorer, sink: str | os.PathLike | IO) -> None:
    """Write a table's scores; ``load_pmi`` reads them back as an equal table
    with default gaps. The gaps are not written."""
    with open_sink(sink) as fh:
        symbols = table.alphabet
        fh.write("alphabet\t" + " ".join(symbols) + "\n")
        for i, j in zip(*np.triu_indices(len(symbols))):
            fh.write(f"{symbols[i]}\t{symbols[j]}\t{float(table.scores[i, j])!r}\n")
