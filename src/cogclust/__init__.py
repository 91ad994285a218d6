"""Cognate clustering for multilingual word lists.

The pipeline: parse a word list (``wordlist``), score word pairs with
affine-gap alignment under identity or PMI substitution scores (``align``,
``pmi``), cluster each meaning's words without a threshold (``crp``), and
score the result against expert cognate classes (``evaluate``). ``pipeline``
ties the steps together and ``cli`` exposes them as a command-line tool.

Each public name is imported from its module on first use (PEP 562), so
``import cogclust`` alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "alphabet": ("ASJP_SOUNDS", "GAP", "MODIFIER_CHARS"),
    "align": ("GapParams", "Scorer", "SimilarityMatrix", "nw_score", "similarity_matrix"),
    "crp": ("CrpConfig", "Partition", "crp_cluster", "crp_cluster_with_history",
            "flat_cluster_threshold"),
    "errors": ("CogclustError", "DegenerateInputError", "MeaningNotFoundError", "ParseError",
               "ValidationError"),
    "evaluate": ("BcubedScore", "EvalReport", "MeaningEval", "bcubed", "evaluate_dataset",
                 "pearson", "render_report", "render_report_kv"),
    "pipeline": ("cluster_meaning", "cluster_wordlist", "gold_partitions", "write_partitions"),
    "pmi": ("estimate_pmi", "load_pmi", "save_pmi"),
    "wordlist": ("WordForm", "WordList", "parse_wordlist"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
