"""Command-line interface for clustering word lists into cognate sets.

Subcommands::

    cogclust cluster       word list TSV -> partition TSV
    cogclust evaluate      cluster, then score against gold cognate classes
    cogclust align         word list TSV -> per-meaning similarity matrix TSVs
    cogclust pmi-estimate  aligned segment pairs -> PMI matrix file

Exit codes: 0 success, 2 parse/usage errors, 3 validation errors, 4 I/O
errors. Diagnostics go to stderr; data goes to files or stdout.
"""

import argparse
import os
import sys
import urllib.parse

from . import __version__
from .align import GapParams, Scorer, similarity_matrix
from .crp import CrpConfig
from .errors import (
    DegenerateInputError,
    MeaningNotFoundError,
    ParseError,
    ValidationError,
)
from .evaluate import evaluate_dataset, render_report, render_report_kv
from .pipeline import SYNONYM_POLICY, cluster_wordlist, gold_partitions, write_partitions
from .pmi import DEFAULT_SMOOTHING, estimate_pmi, load_pmi, save_pmi
from .textio import open_sink, read_text
from .wordlist import parse_wordlist


def _add_scorer_args(sub):
    gaps = GapParams()
    sub.add_argument("--scorer", choices=("vanilla", "pmi"), default="vanilla",
                     help="substitution scoring: segment identity or a PMI matrix")
    sub.add_argument("--pmi-matrix", metavar="PATH",
                     help="PMI matrix file (required with --scorer pmi)")
    sub.add_argument("--gap-open", type=float, default=gaps.gap_open, metavar="F",
                     help="gap opening penalty (default %(default)s)")
    sub.add_argument("--gap-extend", type=float, default=gaps.gap_extend, metavar="F",
                     help="gap extension penalty (default %(default)s)")
    sub.add_argument("--normalize", action="store_true",
                     help="divide raw scores by mean self-similarity before clamping")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_cluster_args(sub):
    config = CrpConfig()
    sub.add_argument("--alpha", type=float, default=config.alpha, metavar="F",
                     help="new-cluster threshold (default %(default)s)")
    sub.add_argument("--max-scans", type=int, default=config.max_scans, metavar="N",
                     help="maximum full scans (default %(default)s)")
    sub.add_argument("--linkage", choices=("average", "single"), default=config.linkage)
    sub.add_argument("--shuffle-seed", type=int, default=None, metavar="N",
                     help="seeded random scan order instead of file order")
    sub.add_argument("--threshold", type=float, default=None, metavar="F",
                     help="use the flat agglomerative baseline at this threshold")
    sub.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                     help="worker processes over meanings (default: all cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogclust",
        description="Cluster multilingual word lists into cognate sets.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    cluster = commands.add_parser("cluster", help="cluster a word list")
    cluster.add_argument("--input", required=True, metavar="PATH")
    cluster.add_argument("--out", metavar="PATH", help="partition TSV (default: stdout)")
    _add_scorer_args(cluster)
    _add_cluster_args(cluster)

    evaluate = commands.add_parser(
        "evaluate", help="cluster and score against gold cognate classes"
    )
    evaluate.add_argument("--input", required=True, metavar="PATH")
    evaluate.add_argument("--gold", metavar="PATH",
                          help="separate word list supplying gold classes "
                               "(default: cognate_class column of --input)")
    evaluate.add_argument("--out", metavar="PATH",
                          help="partition TSV; the report goes to PATH.report.txt "
                               "and PATH.report.tsv (default: report to stdout)")
    evaluate.add_argument("--percent", action="store_true",
                          help="report scores on the 100 scale with 2 decimals")
    _add_scorer_args(evaluate)
    _add_cluster_args(evaluate)

    align = commands.add_parser(
        "align", help="write per-meaning similarity matrices"
    )
    align.add_argument("--input", required=True, metavar="PATH")
    align.add_argument("--out", required=True, metavar="DIR",
                       help="output directory, one TSV per meaning")
    _add_scorer_args(align)

    pmi_est = commands.add_parser(
        "pmi-estimate", help="estimate a PMI matrix from aligned segment pairs"
    )
    pmi_est.add_argument("--input", required=True, metavar="PATH",
                         help="TSV of aligned pairs: two equal-length columns "
                              "of segments with '-' for gaps")
    pmi_est.add_argument("--smoothing", type=float, default=DEFAULT_SMOOTHING, metavar="F")
    pmi_est.add_argument("--out", metavar="PATH", help="matrix file (default: stdout)")
    return parser


def _build_scorer(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Scorer:
    gaps = GapParams(args.gap_open, args.gap_extend)
    if args.scorer == "pmi":
        if not args.pmi_matrix:
            parser.error("--scorer pmi requires --pmi-matrix")
        return Scorer.from_pmi(load_pmi(args.pmi_matrix), gaps)
    if args.pmi_matrix:
        parser.error("--pmi-matrix is only valid with --scorer pmi")
    return Scorer.vanilla(gaps=gaps)


def _meaning_filename(meaning: str) -> str:
    return urllib.parse.quote(meaning, safe="") + ".tsv"


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Execute one parsed subcommand; raises package errors for ``main`` to map."""
    if args.subcommand == "pmi-estimate":
        pairs = []
        for lineno, line in enumerate(read_text(args.input).split("\n"), start=1):
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise ParseError(f"expected 2 columns, got {len(cols)}", line=lineno)
            pairs.append((cols[0], cols[1]))
        save_pmi(estimate_pmi(pairs, args.smoothing), args.out or sys.stdout)
        return 0

    wordlist = parse_wordlist(args.input)

    if args.subcommand == "align":
        scorer = _build_scorer(args, parser)
        os.makedirs(args.out, exist_ok=True)
        for meaning in wordlist.meanings:
            table = similarity_matrix(
                wordlist.forms_for_meaning(meaning), scorer, normalize=args.normalize
            )
            with open_sink(os.path.join(args.out, _meaning_filename(meaning))) as fh:
                table.to_tsv(fh)
        return 0

    scorer = _build_scorer(args, parser)
    crp_config = CrpConfig(
        alpha=args.alpha,
        max_scans=args.max_scans,
        linkage=args.linkage,
        shuffle_seed=args.shuffle_seed,
    )
    partitions = cluster_wordlist(
        wordlist,
        scorer,
        crp_config,
        threshold=args.threshold,
        normalize=args.normalize,
        jobs=args.jobs,
    )

    if args.subcommand == "cluster":
        with open_sink(args.out or sys.stdout) as fh:
            write_partitions(wordlist, partitions, fh)
        return 0

    # evaluate
    gold = gold_partitions(wordlist, parse_wordlist(args.gold) if args.gold else None)
    if args.out:
        with open_sink(args.out) as fh:
            write_partitions(wordlist, partitions, fh)
    if not gold:
        print("cogclust: no gold cognate classes found; nothing to evaluate",
              file=sys.stderr)
        return 0
    report = evaluate_dataset(
        {m: partitions[m] for m in wordlist.meanings if m in gold},
        gold,
        metadata={
            "meanings_without_gold": len(wordlist.meanings) - len(gold),
            "synonym_policy": SYNONYM_POLICY,
        },
    )
    if args.out:
        with open_sink(args.out + ".report.txt") as fh:
            fh.write(render_report(report, percent=args.percent))
        with open_sink(args.out + ".report.tsv") as fh:
            fh.write(render_report_kv(report, percent=args.percent))
    else:
        sys.stdout.write(render_report(report, percent=args.percent))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = run(args, parser)
        # Flush here, so that a reader that closed early is handled below
        # rather than at interpreter exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader stopped early; that is not an error of this program.
        # Point stdout at devnull so the interpreter's final flush succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ParseError as exc:
        print(f"cogclust: parse error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DegenerateInputError, MeaningNotFoundError) as exc:
        print(f"cogclust: validation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cogclust: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
