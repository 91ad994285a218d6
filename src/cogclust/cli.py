"""Command-line interface for clustering word lists into cognate sets.

Subcommands::

    cogclust cluster       word list TSV -> partition TSV
    cogclust evaluate      cluster, then score against gold cognate classes
    cogclust align         word list TSV -> per-meaning similarity matrix TSVs
    cogclust pmi-estimate  aligned segment pairs -> PMI matrix file

A run checks its usage first, then its settings, then reads its input
files, each through its library reader, which names the file in its errors;
then cluster and evaluate open every output they write before any work.
Exit codes: 0 success, 2 parse/usage errors, 3 validation errors, 4 I/O
errors. Diagnostics go to stderr; data goes to files or stdout.
"""

import argparse
import os
import sys
import urllib.parse
from contextlib import ExitStack

from . import __version__
from .align import GapParams, Scorer, similarity_matrix
from .crp import LINKAGES, CrpConfig
from .errors import ParseError, ValidationError
from .evaluate import evaluate_dataset, render_report, render_report_kv
from .pipeline import cluster_wordlist, gold_partitions, write_partitions
from .pmi import DEFAULT_SMOOTHING, estimate_pmi, load_pmi, save_pmi
from .textio import open_sink
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


def _add_cluster_args(sub):
    config = CrpConfig()
    sub.add_argument("--alpha", type=float, default=config.alpha, metavar="F",
                     help="new-cluster threshold (default %(default)s)")
    sub.add_argument("--max-scans", type=int, default=config.max_scans, metavar="N",
                     help="maximum full scans (default %(default)s)")
    sub.add_argument("--linkage", choices=LINKAGES, default=config.linkage)
    sub.add_argument("--shuffle-seed", type=int, default=None, metavar="N",
                     help="seeded random scan order instead of file order")
    sub.add_argument("--threshold", type=float, default=None, metavar="F",
                     help="use the flat agglomerative baseline at this threshold")
    sub.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes over meanings (default: all usable cores)")


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


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Execute one parsed subcommand; raises package errors for ``main`` to map."""
    if args.subcommand == "pmi-estimate":  # the estimate checks --smoothing before it reads
        save_pmi(estimate_pmi(args.input, args.smoothing), args.out or sys.stdout)
        return 0

    out = args.out if args.subcommand == "evaluate" else None
    if out and os.path.exists(out) and not os.path.isfile(out):  # reports go beside it
        parser.error(f"--out {out} is not a regular file, so evaluate cannot name reports after it")
    if args.scorer == "pmi" and not args.pmi_matrix:
        parser.error("--scorer pmi requires --pmi-matrix")
    if args.scorer != "pmi" and args.pmi_matrix:
        parser.error("--pmi-matrix is only valid with --scorer pmi")
    gaps = GapParams(args.gap_open, args.gap_extend)
    if args.subcommand != "align":
        crp_config = CrpConfig(alpha=args.alpha, max_scans=args.max_scans,
                               linkage=args.linkage, shuffle_seed=args.shuffle_seed)
    pmi = load_pmi(args.pmi_matrix) if args.pmi_matrix else None
    scorer = Scorer.vanilla(gaps=gaps) if pmi is None else Scorer.from_pmi(pmi, gaps)
    wordlist = parse_wordlist(args.input)
    if args.subcommand == "align":
        os.makedirs(args.out, exist_ok=True)
        for meaning in wordlist.meanings:
            table = similarity_matrix(
                wordlist.forms_for_meaning(meaning), scorer, normalize=args.normalize
            )
            name = urllib.parse.quote(meaning, safe="") + ".tsv"
            with open_sink(os.path.join(args.out, name)) as fh:
                table.to_tsv(fh)
        return 0

    evaluating = args.subcommand == "evaluate"
    # Read before clustering, so a bad gold file fails before the work starts.
    gold_wordlist = parse_wordlist(args.gold) if evaluating and args.gold else None
    gold = gold_partitions(wordlist, gold_wordlist) if evaluating else {}
    # Every output is opened before the work, so one that cannot be opened fails
    # first. A path is replaced only when the block ends without error.
    sinks = [args.out or (None if evaluating else sys.stdout), None, None]
    if gold and args.out:  # the partition, then the reports beside it
        sinks[1:] = args.out + ".report.txt", args.out + ".report.tsv"
    elif gold:  # no partition, and the text report to stdout
        sinks[1] = sys.stdout
    with ExitStack() as stack:
        fh, text_fh, kv_fh = (sink and stack.enter_context(open_sink(sink)) for sink in sinks)
        # --threshold and --jobs are checked by the clustering itself, when it starts.
        partitions = cluster_wordlist(wordlist, scorer, crp_config, threshold=args.threshold,
                                      normalize=args.normalize, jobs=args.jobs)
        if fh is not None:
            write_partitions(wordlist, partitions, fh)
        if gold:
            report = evaluate_dataset(partitions, gold)
            text_fh.write(render_report(report, percent=args.percent))
            if kv_fh is not None:
                kv_fh.write(render_report_kv(report, percent=args.percent))
    if evaluating and not gold:
        print("cogclust: no gold cognate classes found; nothing to evaluate",
              file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        finally:  # --help and --version print to sys.stdout, then exit 0
            sys.stdout.flush()
        return run(args, parser)
    except BrokenPipeError:
        # The reader stopped early: no error. What --help or --version left in
        # sys.stdout goes to the null device, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as exc:
        print(f"cogclust: parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"cogclust: validation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cogclust: i/o error: {exc}", file=sys.stderr)
        return 4

