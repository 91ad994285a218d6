"""Command-line interface tests (in-process via main(); exit codes, outputs)."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cogclust import (
    CrpConfig,
    GapParams,
    Scorer,
    cluster_wordlist,
    evaluate_dataset,
    gold_partitions,
    load_pmi,
    parse_wordlist,
    render_report,
    save_pmi,
    similarity_matrix,
)
from cogclust.cli import main

from oracles import crp_reference

SAMPLE = (
    "language\tconcept\ttranscription\tcognate_class\n"
    "English\tALL\tol\tc1\n"
    "German\tALL\tal3\tc1\n"
    "French\tALL\ttu\tc2\n"
    "Spanish\tALL\tto8o\tc2\n"
    "Swedish\tALL\tala\tc1\n"
)
DEMO_LIST = Path(__file__).resolve().parents[1] / "demos" / "data" / "germanic_romance.tsv"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "words.tsv"
    path.write_text(SAMPLE, encoding="utf-8")
    return path


@pytest.fixture
def no_clustering(monkeypatch):
    """A run that clusters the word list fails the test."""
    def cluster_wordlist(*args, **kwargs):
        raise AssertionError("the word list was clustered")

    monkeypatch.setattr("cogclust.cli.cluster_wordlist", cluster_wordlist)


class TestCluster:
    def test_partition_tsv_matches_reference_trace(self, tmp_path, sample_file):
        out = tmp_path / "parts.tsv"
        assert main(["cluster", "--input", str(sample_file), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "meaning\tlanguage\ttranscription\tcluster_id"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 5
        assert [r[0] for r in rows] == ["ALL"] * 5

        wl = parse_wordlist(sample_file)
        sims = similarity_matrix(wl.forms_for_meaning("ALL"), Scorer.vanilla())
        expected = crp_reference(sims.values.tolist())
        assert [int(r[3]) for r in rows] == expected

    def test_stdout_output(self, sample_file, capsys):
        assert main(["cluster", "--input", str(sample_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("meaning\tlanguage\ttranscription\tcluster_id\n")

    def test_out_of_alphabet_symbol_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text(SAMPLE + "Danish\tALL\ta9l\tc1\n", encoding="utf-8")
        assert main(["cluster", "--input", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err == (
            f"cogclust: validation error: {bad}: line 7: symbol '9' is not in the alphabet\n"
        )

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text(SAMPLE + "Danish\tALL\n", encoding="utf-8")
        assert main(["cluster", "--input", str(bad)]) == 2
        assert "line 7" in capsys.readouterr().err

    def test_missing_input_exits_4(self, tmp_path, capsys):
        assert main(["cluster", "--input", str(tmp_path / "nope.tsv")]) == 4

    def test_output_in_missing_directory_exits_4_naming_it(self, tmp_path, sample_file, capsys,
                                                           no_clustering):
        # The output is opened before the work, so nothing is clustered.
        out = tmp_path / "missing" / "parts.tsv"
        for subcommand in ("cluster", "evaluate"):
            assert main([subcommand, "--input", str(sample_file), "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert str(out) in err and ".tmp" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("flags", [["--jobs", "0"], ["--threshold", "nan"]])
    def test_output_is_opened_before_jobs_and_threshold_are_checked(self, tmp_path,
                                                                     sample_file, capsys, flags):
        out = tmp_path / "missing" / "parts.tsv"
        assert main(["cluster", "--input", str(sample_file), "--out", str(out), *flags]) == 4
        assert f"cogclust: i/o error: [Errno 2] No such file or directory: '{out}'" in (
            capsys.readouterr().err)

    def test_pmi_matrix_missing_a_pair_names_its_file(self, tmp_path, sample_file, capsys):
        matrix = tmp_path / "m.tsv"
        matrix.write_text("alphabet\ta b\na\ta\t1.0\nb\tb\t1.0\n", encoding="utf-8")
        code = main(["cluster", "--input", str(sample_file), "--scorer", "pmi",
                     "--pmi-matrix", str(matrix)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"cogclust: parse error: {matrix}: missing score for pair (a, b)\n"
        )

    def test_scorer_pmi_without_matrix_is_usage_error(self, sample_file):
        for bad_setting in ([], ["--gap-open", "nan"]):  # usage comes before settings
            with pytest.raises(SystemExit) as err:
                main(["cluster", "--input", str(sample_file), "--scorer", "pmi", *bad_setting])
            assert err.value.code == 2

    def test_vanilla_with_matrix_is_usage_error(self, tmp_path, sample_file):
        matrix = tmp_path / "m.tsv"
        matrix.write_text("alphabet\ta\na\ta\t1.0\n", encoding="utf-8")
        for bad_setting in ([], ["--gap-open", "nan"]):
            with pytest.raises(SystemExit) as err:
                main(["cluster", "--input", str(sample_file), "--pmi-matrix", str(matrix),
                      *bad_setting])
            assert err.value.code == 2

    @pytest.mark.parametrize("subcommand", ["cluster", "evaluate"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_3(self, sample_file, capsys, subcommand, jobs):
        assert main([subcommand, "--input", str(sample_file), "--jobs", jobs]) == 3
        assert capsys.readouterr() == (
            "", "cogclust: validation error: jobs must be at least 1\n"
        )

    @pytest.mark.parametrize("flags, message", [
        (["--max-scans", "0"], "max_scans must be at least 1"),
        (["--shuffle-seed", "-1"], "shuffle_seed must be at least 0"),
        (["--jobs", "0"], "jobs must be at least 1"),
    ])
    def test_integer_settings_below_their_minimum_exit_3(self, sample_file, capsys,
                                                         flags, message):
        assert main(["cluster", "--input", str(sample_file), *flags]) == 3
        assert capsys.readouterr() == ("", f"cogclust: validation error: {message}\n")

    @pytest.mark.parametrize("subcommand", ["cluster", "evaluate"])
    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "0"], "alpha must be > 0"),
        (["--max-scans", "0"], "max_scans must be at least 1"),
        (["--shuffle-seed", "-1"], "shuffle_seed must be at least 0"),
        (["--gap-open", "nan"], "gap penalties must be <= 0"),
    ])
    def test_bad_setting_is_reported_before_any_input_is_read(self, tmp_path, capsys,
                                                               subcommand, flags, message):
        missing = str(tmp_path / "missing.tsv")
        for inputs in (["--input", missing], ["--input", missing, "--scorer", "pmi",
                                              "--pmi-matrix", missing]):
            assert main([subcommand, *inputs, *flags]) == 3
            assert capsys.readouterr() == ("", f"cogclust: validation error: {message}\n")

    def test_matrix_without_scorer_pmi_is_usage_error_before_the_input_is_read(
            self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["cluster", "--input", str(tmp_path / "missing.tsv"), "--pmi-matrix", "x"])
        assert err.value.code == 2
        assert "--pmi-matrix is only valid with --scorer pmi" in capsys.readouterr().err

    def test_jobs_not_an_integer_is_usage_error(self, sample_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["cluster", "--input", str(sample_file), "--jobs", "abc"])
        assert err.value.code == 2
        assert "--jobs: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, flags, message", [
        ("cluster", ["--threshold", "nan"], "threshold"),
        ("cluster", ["--gap-open", "nan"], "gap penalties"),
        ("cluster", ["--gap-extend", "nan"], "gap penalties"),
        ("align", ["--gap-open", "nan"], "gap penalties"),
        ("align", ["--gap-extend", "nan"], "gap penalties"),
        ("cluster", ["--shuffle-seed", "-1"], "shuffle_seed"),
        ("evaluate", ["--shuffle-seed", "-1"], "shuffle_seed"),
    ])
    def test_bad_bound_exits_3(self, tmp_path, sample_file, capsys,
                               subcommand, flags, message):
        out = tmp_path / "out"
        code = main([subcommand, "--input", str(sample_file), "--out", str(out), *flags])
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args, first_line", [
        (["cluster", "--input", "{bad}"], SAMPLE.split("\n")[0]),
        (["evaluate", "--input", "{sample}", "--gold", "{bad}"], SAMPLE.split("\n")[0]),
        (["cluster", "--input", "{sample}", "--scorer", "pmi", "--pmi-matrix", "{bad}"],
         "alphabet\ta"),
        (["pmi-estimate", "--input", "{bad}"], "ol\tal"),
    ], ids=["cluster-input", "evaluate-gold", "pmi-matrix", "pmi-estimate-input"])
    def test_bytes_that_are_not_utf8_exit_2(self, tmp_path, sample_file, capsys,
                                            args, first_line):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(first_line.encode("utf-8") + b"\nx\xff\tALL\n")
        out = tmp_path / "out.tsv"
        out.write_bytes(b"old\n")
        args = [a.format(bad=bad, sample=sample_file) for a in args]
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cogclust: parse error: {bad}: line 2: ")
        assert "Traceback" not in err
        assert out.read_bytes() == b"old\n"

    @pytest.mark.parametrize("subcommand", ["cluster", "evaluate"])
    def test_nan_threshold_exits_3_on_a_list_with_no_meanings(self, tmp_path, capsys,
                                                              subcommand):
        header_only = tmp_path / "header.tsv"
        header_only.write_text(SAMPLE.split("\n")[0] + "\n", encoding="utf-8")
        out = tmp_path / "parts.tsv"
        args = ["--input", str(header_only), "--out", str(out), "--threshold", "nan"]
        assert main([subcommand, *args]) == 3
        assert capsys.readouterr() == (
            "", "cogclust: validation error: threshold must be a number, got nan\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["header.tsv"]

    def test_threshold_baseline_and_flags(self, tmp_path, sample_file):
        out = tmp_path / "parts.tsv"
        code = main([
            "cluster", "--input", str(sample_file), "--out", str(out),
            "--threshold", "0.5", "--gap-open", "-2", "--gap-extend", "-1",
            "--normalize", "--jobs", "1",
        ])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").strip().split("\n")) == 6

    def test_defaults_are_the_documented_constants(self):
        from cogclust.cli import build_parser

        args = build_parser().parse_args(["cluster", "--input", "x.tsv"])
        assert GapParams(args.gap_open, args.gap_extend) == GapParams()
        assert CrpConfig(
            alpha=args.alpha,
            max_scans=args.max_scans,
            linkage=args.linkage,
            shuffle_seed=args.shuffle_seed,
        ) == CrpConfig()
        assert args.scorer == "vanilla"
        assert args.threshold is None
        assert args.shuffle_seed is None

    def test_infinite_pmi_score_exits_3(self, tmp_path, sample_file, capsys):
        matrix = tmp_path / "m.tsv"
        save_pmi(Scorer.vanilla(), matrix)
        text = matrix.read_text(encoding="utf-8")
        assert "\np\tp\t1.0\n" in text
        matrix.write_text(text.replace("\np\tp\t1.0\n", "\np\tp\tinf\n"), encoding="utf-8")
        code = main([
            "cluster", "--input", str(sample_file), "--scorer", "pmi",
            "--pmi-matrix", str(matrix),
        ])
        assert code == 3
        assert "+inf" in capsys.readouterr().err


class TestEvaluate:
    def test_perfect_predictions_report_f_one(self, tmp_path, capsys):
        # Two identical words per class cluster perfectly under the defaults.
        text = (
            "language\tconcept\ttranscription\tcognate_class\n"
            "L1\tM\tolo\tc1\n"
            "L2\tM\tolo\tc1\n"
            "L3\tM\ttuk\tc2\n"
            "L4\tM\ttuk\tc2\n"
        )
        path = tmp_path / "w.tsv"
        path.write_text(text, encoding="utf-8")
        assert main(["evaluate", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1.0000" in out

    def test_report_files_written(self, tmp_path, sample_file):
        out = tmp_path / "parts.tsv"
        assert main(["evaluate", "--input", str(sample_file), "--out", str(out)]) == 0
        assert out.exists()
        report = (tmp_path / "parts.tsv.report.txt").read_text(encoding="utf-8")
        assert "aggregate" in report
        kv = (tmp_path / "parts.tsv.report.tsv").read_text(encoding="utf-8")
        assert "meanings_evaluated\t1" in kv
        assert "metadata\tmeanings_without_gold\t0" in kv

    @pytest.mark.parametrize("text, without_gold", [
        (DEMO_LIST.read_text(encoding="utf-8"), 0),
        (SAMPLE + "English\tfoot\tfut\t\nGerman\tfoot\tfus\t\n", 1),
    ], ids=["demo", "one-meaning-without-gold"])
    def test_library_report_equals_the_cli_report(self, tmp_path, capsys, text, without_gold):
        path = tmp_path / "words.tsv"
        path.write_text(text, encoding="utf-8")
        wl = parse_wordlist(path)
        report = render_report(
            evaluate_dataset(cluster_wordlist(wl, Scorer.vanilla()), gold_partitions(wl))
        )
        assert f"meanings_without_gold  {without_gold}\n" in report
        assert main(["evaluate", "--input", str(path), "--jobs", "1"]) == 0
        assert capsys.readouterr().out == report

    def test_unwritable_report_leaves_every_output_as_it_was(self, tmp_path, sample_file, capsys,
                                                             no_clustering):
        # The reports are opened before the work, so nothing is clustered.
        (tmp_path / "target.txt").write_text("old report\n", encoding="utf-8")
        for name, report in (("parts.tsv", None), ("linked.tsv", "target.txt")):
            out = tmp_path / name
            out.write_text("old partition\n", encoding="utf-8")
            txt = tmp_path / f"{name}.report.txt"
            if report is None:
                txt.write_text("old report\n", encoding="utf-8")
            else:  # a link's target is kept too, and the link stays a link
                txt.symlink_to(report)
            (tmp_path / f"{name}.report.tsv").mkdir()
            assert main(["evaluate", "--input", str(sample_file), "--out", str(out)]) == 4
            assert f"{name}.report.tsv" in capsys.readouterr().err
            assert out.read_text(encoding="utf-8") == "old partition\n"
            assert txt.read_text(encoding="utf-8") == "old report\n"
            assert txt.is_symlink() == (report is not None)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "linked.tsv", "linked.tsv.report.tsv", "linked.tsv.report.txt",
            "parts.tsv", "parts.tsv.report.tsv", "parts.tsv.report.txt",
            "target.txt", "words.tsv",
        ]

    @pytest.mark.parametrize("kind", ["devnull-link", "directory", "directory-link"])
    def test_out_that_is_not_a_regular_file_is_usage_error(self, tmp_path, sample_file,
                                                            capsys, kind):
        # The reports are named after --out, so a path they cannot sit beside
        # is refused before any input is read: a missing input changes nothing.
        sink = tmp_path / "sink"
        if kind == "devnull-link":
            sink.symlink_to(os.devnull)
        elif kind == "directory":
            sink.mkdir()
        else:
            (tmp_path / "dir").mkdir()
            sink.symlink_to(tmp_path / "dir")
        before = sorted(p.name for p in tmp_path.iterdir())
        for source in (sample_file, tmp_path / "missing.tsv"):
            with pytest.raises(SystemExit) as err:
                main(["evaluate", "--input", str(source), "--out", str(sink)])
            assert err.value.code == 2
            assert "is not a regular file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not list(tmp_path.rglob("*.report.*"))

    def test_separate_gold_file(self, tmp_path):
        unlabelled = SAMPLE.replace("\tc1", "\t").replace("\tc2", "\t")
        inp = tmp_path / "in.tsv"
        inp.write_text(unlabelled, encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text(SAMPLE, encoding="utf-8")
        out = tmp_path / "parts.tsv"
        code = main([
            "evaluate", "--input", str(inp), "--gold", str(gold), "--out", str(out)
        ])
        assert code == 0
        assert (tmp_path / "parts.tsv.report.txt").exists()

    @pytest.mark.parametrize("gold_text, code, message", [
        (None, 4, "i/o error"),
        ("no header\n", 2, "parse error: {gold}: line 1: unknown column 'no header'"),
    ], ids=["missing", "malformed"])
    def test_bad_gold_file_fails_before_clustering(self, tmp_path, sample_file, capsys,
                                                   no_clustering, gold_text, code, message):
        gold = tmp_path / "gold.tsv"
        if gold_text is not None:
            gold.write_text(gold_text, encoding="utf-8")
        assert main(["evaluate", "--input", str(sample_file), "--gold", str(gold)]) == code
        assert message.format(gold=gold) in capsys.readouterr().err

    def test_no_gold_warns_and_exits_zero(self, tmp_path, capsys):
        unlabelled = SAMPLE.replace("\tc1", "\t").replace("\tc2", "\t")
        inp = tmp_path / "in.tsv"
        inp.write_text(unlabelled, encoding="utf-8")
        assert main(["evaluate", "--input", str(inp)]) == 0
        assert "no gold" in capsys.readouterr().err

    def test_no_gold_still_writes_the_partition(self, tmp_path, capsys):
        unlabelled = SAMPLE.replace("\tc1", "\t").replace("\tc2", "\t")
        inp = tmp_path / "in.tsv"
        inp.write_text(unlabelled, encoding="utf-8")
        out = tmp_path / "parts.tsv"
        assert main(["evaluate", "--input", str(inp), "--out", str(out)]) == 0
        assert "no gold" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8").startswith("meaning\tlanguage\t")
        assert not (tmp_path / "parts.tsv.report.txt").exists()

    def test_percent_flag(self, tmp_path, sample_file):
        out = tmp_path / "parts.tsv"
        assert main([
            "evaluate", "--input", str(sample_file), "--out", str(out), "--percent"
        ]) == 0
        report = (tmp_path / "parts.tsv.report.txt").read_text(encoding="utf-8")
        assert "." in report
        # percent style prints two decimals on the 100 scale
        for token in report.split():
            if token.count(".") == 1 and token.replace(".", "").isdigit():
                assert len(token.split(".")[1]) == 2


class TestAlign:
    def test_writes_matrix_per_meaning(self, tmp_path):
        words = tmp_path / "words.tsv"
        words.write_text(SAMPLE + "English\tAND\tEnd\td1\nGerman\tAND\tunt\td1\n",
                         encoding="utf-8")
        out_dir = tmp_path / "matrices"
        assert main(["align", "--input", str(words), "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["ALL.tsv", "AND.tsv"]
        table = (out_dir / "ALL.tsv").read_text(encoding="utf-8")
        lines = table.splitlines()
        assert lines[0].split("\t")[1:] == ["ol", "al3", "tu", "to8o", "ala"]
        assert len(lines) == 6
        lines = (out_dir / "AND.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t")[1:] == ["End", "unt"]
        assert len(lines) == 3

    def test_meaning_names_are_sanitised(self, tmp_path):
        text = "language\tconcept\ttranscription\nL1\ta/b c\tol\n"
        path = tmp_path / "w.tsv"
        path.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "m"
        assert main(["align", "--input", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "a%2Fb%20c.tsv").exists()


class TestPmiEstimate:
    def test_writes_loadable_matrix(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ol\tal\no-l\toll\n", encoding="utf-8")
        out = tmp_path / "matrix.tsv"
        code = main([
            "pmi-estimate", "--input", str(pairs), "--out", str(out),
            "--smoothing", "0.2",
        ])
        assert code == 0
        matrix = load_pmi(out)
        assert len(matrix.alphabet) == 41
        assert not np.isneginf(matrix.scores).any()

    def test_bad_pair_file_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ol\tal\n\nol\tal\textra\n", encoding="utf-8")
        assert main(["pmi-estimate", "--input", str(pairs)]) == 2
        assert capsys.readouterr().err == (
            f"cogclust: parse error: {pairs}: line 3: expected 2 columns, got 3\n"
        )

    def test_no_gap_free_column_exits_3(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a-\t-a\n", encoding="utf-8")
        assert main(["pmi-estimate", "--input", str(pairs)]) == 3
        assert capsys.readouterr() == ("", (
            f"cogclust: validation error: {pairs}: "
            "no non-gap co-occurrences in the aligned pairs\n"
        ))

    def test_unequal_pair_lengths_exit_3(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ala\tala\n\nolo\tal\n", encoding="utf-8")
        assert main(["pmi-estimate", "--input", str(pairs)]) == 3
        assert capsys.readouterr().err == (
            f"cogclust: validation error: {pairs}: line 3: "
            "aligned pair ('olo', 'al') has unequal lengths 3 and 2\n"
        )

    def test_unknown_segment_exits_3_naming_its_line(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ala\tala\n\no9\tal\n", encoding="utf-8")
        assert main(["pmi-estimate", "--input", str(pairs)]) == 3
        assert capsys.readouterr().err == (
            f"cogclust: validation error: {pairs}: line 3: segment '9' is not in the alphabet\n"
        )

    @pytest.mark.parametrize("smoothing, bad", [
        ("1e-300", "+inf"), ("1e-200", "+inf"), ("1e-170", "+inf"), ("1e308", "NaN"),
    ])
    def test_extreme_smoothing_exits_3(self, tmp_path, capsys, smoothing, bad):
        # Tiny smoothing: the chance product of two unseen symbols underflows
        # to 0. Huge smoothing: the pseudo-count totals overflow to inf.
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ala\tala\n", encoding="utf-8")
        code = main(["pmi-estimate", "--input", str(pairs), "--smoothing", smoothing])
        assert code == 3
        assert capsys.readouterr().err == (
            f"cogclust: validation error: {pairs}: score table contains {bad}\n"
        )

    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_bad_smoothing_exits_3(self, tmp_path, capsys, smoothing):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ol\tal\n", encoding="utf-8")
        code = main(["pmi-estimate", "--input", str(pairs), "--smoothing", smoothing])
        assert code == 3
        # A setting's error names no file.
        assert capsys.readouterr().err == (
            "cogclust: validation error: smoothing must be finite and >= 0\n"
        )

    def test_bad_smoothing_is_reported_before_the_pairs_are_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        assert main(["pmi-estimate", "--input", str(missing), "--smoothing", "nan"]) == 3
        assert "smoothing" in capsys.readouterr().err


class TestMeta:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "cogclust" in capsys.readouterr().out

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    @pytest.mark.parametrize("args, stderr_on_pipe", [
        (["cluster", "--input", "{sample}"], False),
        (["cluster", "--input", "{sample}"], True),
        # argparse prints these to sys.stdout, whose buffer is flushed at exit.
        (["--help"], False),
        (["--version"], False),
        (["cluster", "--help"], False),
    ], ids=["stderr-apart", "stderr-on-pipe", "help", "version", "cluster-help"])
    def test_reader_closed_early_exits_0_quietly(self, sample_file, args, stderr_on_pipe):
        read_end, write_end = os.pipe()
        os.close(read_end)
        # Buffered stdout, as in a plain shell: unbuffered, a failed write is
        # seen at once, and the flush at exit has nothing left to fail on.
        buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cogclust", *(a.format(sample=sample_file) for a in args)],
                stdout=write_end,
                stderr=write_end if stderr_on_pipe else subprocess.PIPE,
                env=buffered,
                timeout=60,
            )
        finally:
            os.close(write_end)
        # With stderr on the closed pipe too, any message would fail to write
        # and change the exit status.
        assert proc.returncode == 0
        if not stderr_on_pipe:
            assert proc.stderr == b""

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    @pytest.mark.parametrize("subcommand, suffix", [
        ("cluster", ""), ("evaluate", ".report.txt"), ("pmi-estimate", ""),
    ])
    def test_stdout_holds_the_bytes_of_the_out_file_whatever_the_locale(
            self, tmp_path, encoding, subcommand, suffix):
        words = tmp_path / "words.tsv"
        words.write_text(SAMPLE.replace("ALL", "日").replace("French", "Français"),
                         encoding="utf-8")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ol\tal\no-l\toll\n", encoding="utf-8")
        source = pairs if subcommand == "pmi-estimate" else words
        out = tmp_path / "out.tsv"
        assert main([subcommand, "--input", str(source), "--out", str(out)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "cogclust", subcommand, "--input", str(source)],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": encoding},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == Path(f"{out}{suffix}").read_bytes()

    def test_stdout_data_follows_what_stdout_already_holds(self, sample_file):
        code = ("from cogclust.cli import main; print('before'); "
                f"main(['cluster', '--input', {str(sample_file)!r}]); print('after')")
        buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=buffered)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("before\nmeaning\t")
        assert proc.stdout.endswith("\nafter\n")

    def test_console_entry_point_runs(self, sample_file):
        proc = subprocess.run(
            [sys.executable, "-m", "cogclust", "cluster", "--input", str(sample_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("meaning\t")

    def test_determinism_across_runs(self, tmp_path, sample_file):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            assert main([
                "evaluate", "--input", str(sample_file), "--out", str(out),
                "--jobs", "2",
            ]) == 0
            outs.append(
                (
                    out.read_bytes(),
                    (tmp_path / (name + ".report.txt")).read_bytes(),
                    (tmp_path / (name + ".report.tsv")).read_bytes(),
                )
            )
        assert outs[0] == outs[1]
