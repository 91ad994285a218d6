"""Segment-pair PMI score tables: estimation from aligned pairs and file IO.

A table is an ``align.Scorer``, the one substitution-table type; estimated
and loaded tables carry default gaps, which ``Scorer.from_pmi`` replaces.

The score of a segment pair (i, j) is ``log(p(i,j) / (q(i) * q(j)))`` where
``p`` is the relative frequency of i and j sitting in the same column of the
aligned word pairs ((i,j) and (j,i) are pooled) and ``q`` is the relative
frequency of a segment over all non-gap positions of all aligned words. A
positive score marks a pair that co-occurs above chance, a negative one below
chance. Gap-aligned columns contribute to neither count; gaps are aligner
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
from typing import IO, Iterable, Sequence

import numpy as np

from .align import Scorer
from .alphabet import ASJP_SOUNDS, GAP
from .errors import DegenerateInputError, MatrixFormatError, ValidationError
from .textio import open_sink, read_text

DEFAULT_SMOOTHING = 0.1


def estimate_pmi(
    aligned_pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
    smoothing: float = DEFAULT_SMOOTHING,
    *,
    alphabet: Sequence[str] = ASJP_SOUNDS,
) -> Scorer:
    """Estimate a PMI table, with default gaps, from aligned word pairs in one pass.

    Each item is a pair of equal-length segment sequences over the alphabet
    plus ``"-"`` for gaps. ``smoothing`` is an additive pseudo-count applied
    to every unordered joint cell; marginals receive the pseudo-counts those
    joint cells induce (a symbol gains ``smoothing * (len(alphabet) + 1)``
    pseudo-occurrences). With ``smoothing=0`` unobserved pairs score ``-inf``.
    """
    if not 0 <= smoothing < math.inf:  # NaN fails too
        raise ValidationError("smoothing must be finite and >= 0")
    symbols = tuple(alphabet)
    valid = frozenset(symbols)
    joint: dict[tuple[str, str], int] = {}
    marginal: dict[str, int] = {}
    total_joint = 0
    total_marginal = 0
    for pair_no, (left, right) in enumerate(aligned_pairs):
        if len(left) != len(right):
            raise ValidationError(
                f"aligned pair #{pair_no} has unequal lengths {len(left)} and {len(right)}"
            )
        for x, y in zip(left, right):
            for s in (x, y):
                if s != GAP:
                    if s not in valid:
                        raise ValidationError(f"segment {s!r} is not in the alphabet")
                    marginal[s] = marginal.get(s, 0) + 1
                    total_marginal += 1
            if x != GAP and y != GAP:
                key = (x, y) if x <= y else (y, x)
                joint[key] = joint.get(key, 0) + 1
                total_joint += 1
    if total_joint == 0:
        raise DegenerateInputError("no non-gap co-occurrences in the aligned pairs")

    n = len(symbols)
    n_pairs = n * (n + 1) // 2
    joint_den = total_joint + smoothing * n_pairs
    marg_pseudo = smoothing * (n + 1)
    marg_den = total_marginal + n * marg_pseudo

    scores = np.empty((n, n), dtype=float)
    for a in range(n):
        for b in range(a, n):
            key = (symbols[a], symbols[b]) if symbols[a] <= symbols[b] else (symbols[b], symbols[a])
            count = joint.get(key, 0)
            if count == 0 and smoothing == 0:
                value = float("-inf")
            else:
                p = (count + smoothing) / joint_den
                qa = (marginal.get(symbols[a], 0) + marg_pseudo) / marg_den
                qb = (marginal.get(symbols[b], 0) + marg_pseudo) / marg_den
                value = math.log(p / (qa * qb))
            scores[a, b] = value
            scores[b, a] = value
    return Scorer(symbols, scores)


def load_pmi(source: str | os.PathLike | IO) -> Scorer:
    """Load a PMI matrix file as a table with default gaps.

    The table must be dense and consistent.
    """
    lines = read_text(source).split("\n")
    head = lines[0].split("\t") if lines and lines[0] else []
    if len(head) != 2 or head[0] != "alphabet":
        raise MatrixFormatError("first line must be 'alphabet<TAB><symbols>'", line=1)
    symbols = head[1].split(" ")
    if any(len(s) != 1 for s in symbols):
        raise MatrixFormatError("alphabet symbols must be single characters", line=1)
    if len(set(symbols)) != len(symbols):
        raise MatrixFormatError("alphabet contains duplicate symbols", line=1)
    if GAP in symbols:
        raise MatrixFormatError(
            f"the gap symbol {GAP!r} may not be part of a score table; "
            "gap costs are aligner parameters",
            line=1,
        )
    index = {s: i for i, s in enumerate(symbols)}
    n = len(symbols)
    scores = np.zeros((n, n), dtype=float)
    filled = np.zeros((n, n), dtype=bool)
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw == "":
            continue
        row = raw.split("\t")
        if len(row) != 3:
            raise MatrixFormatError(f"expected 3 columns, got {len(row)}", line=lineno)
        a, b, text_value = row
        if a not in index:
            raise MatrixFormatError(f"symbol {a!r} is not in the alphabet", line=lineno)
        if b not in index:
            raise MatrixFormatError(f"symbol {b!r} is not in the alphabet", line=lineno)
        try:
            value = float(text_value)
        except ValueError:
            raise MatrixFormatError(f"bad score {text_value!r}", line=lineno) from None
        i, j = index[a], index[b]
        if filled[i, j] and scores[i, j] != value:
            raise MatrixFormatError(
                f"conflicting scores for pair ({a}, {b}): "
                f"{scores[i, j]!r} vs {value!r}",
                line=lineno,
            )
        scores[i, j] = scores[j, i] = value
        filled[i, j] = filled[j, i] = True
    if not filled.all():
        i, j = np.argwhere(~filled)[0]
        raise MatrixFormatError(f"missing score for pair ({symbols[i]}, {symbols[j]})")
    return Scorer(symbols, scores)


def save_pmi(table: Scorer, sink: str | os.PathLike | IO) -> None:
    """Write a table's scores; ``load_pmi`` reads them back as an equal table
    with default gaps. The gaps are not written."""
    with open_sink(sink) as fh:
        fh.write("alphabet\t" + " ".join(table.alphabet) + "\n")
        n = len(table.alphabet)
        for i in range(n):
            for j in range(i, n):
                fh.write(
                    f"{table.alphabet[i]}\t{table.alphabet[j]}\t{float(table.scores[i, j])!r}\n"
                )
