"""Cognate clustering for multilingual word lists.

The pipeline: parse a word list (``wordlist``), score word pairs with
affine-gap alignment under identity or PMI substitution scores (``align``,
``pmi``), cluster each meaning's words without a threshold (``crp``), and
score the result against expert cognate classes (``evaluate``). ``pipeline``
ties the steps together and ``cli`` exposes them as a command-line tool.
"""

__version__ = "0.1.0"

from .alphabet import ASJP_SOUNDS, GAP, MODIFIER_CHARS
from .align import GapParams, Scorer, SimilarityMatrix, nw_score, similarity_matrix
from .crp import (
    CrpConfig,
    Partition,
    crp_cluster,
    crp_cluster_with_history,
    flat_cluster_threshold,
)
from .errors import (
    CogclustError,
    DegenerateInputError,
    MatrixFormatError,
    MeaningNotFoundError,
    ParseError,
    ValidationError,
)
from .evaluate import (
    BcubedScore,
    EvalReport,
    MeaningEval,
    bcubed,
    evaluate_dataset,
    pearson,
    render_report,
    render_report_kv,
)
from .pipeline import (
    cluster_meaning,
    cluster_wordlist,
    gold_partitions,
    write_partitions,
)
from .pmi import estimate_pmi, load_pmi, save_pmi
from .wordlist import WordForm, WordList, parse_wordlist, write_wordlist

__all__ = [
    "ASJP_SOUNDS",
    "GAP",
    "MODIFIER_CHARS",
    "BcubedScore",
    "CogclustError",
    "CrpConfig",
    "DegenerateInputError",
    "EvalReport",
    "GapParams",
    "MatrixFormatError",
    "MeaningEval",
    "MeaningNotFoundError",
    "ParseError",
    "Partition",
    "Scorer",
    "SimilarityMatrix",
    "ValidationError",
    "WordForm",
    "WordList",
    "bcubed",
    "cluster_meaning",
    "cluster_wordlist",
    "crp_cluster",
    "crp_cluster_with_history",
    "estimate_pmi",
    "evaluate_dataset",
    "flat_cluster_threshold",
    "gold_partitions",
    "load_pmi",
    "nw_score",
    "parse_wordlist",
    "pearson",
    "render_report",
    "render_report_kv",
    "save_pmi",
    "similarity_matrix",
    "write_partitions",
    "write_wordlist",
]
