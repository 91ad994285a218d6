"""Command-line interface tests (in-process via main(); exit codes, outputs)."""

import io
import os
import subprocess
import sys

import pytest

from cogclust import (
    CrpConfig,
    GapParams,
    Scorer,
    load_pmi,
    parse_wordlist,
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


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "words.tsv"
    path.write_text(SAMPLE, encoding="utf-8")
    return path


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
        assert "'9'" in err

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text(SAMPLE + "Danish\tALL\n", encoding="utf-8")
        assert main(["cluster", "--input", str(bad)]) == 2
        assert "line 7" in capsys.readouterr().err

    def test_missing_input_exits_4(self, tmp_path, capsys):
        assert main(["cluster", "--input", str(tmp_path / "nope.tsv")]) == 4

    def test_output_in_missing_directory_exits_4_naming_it(self, tmp_path, sample_file, capsys):
        out = tmp_path / "missing" / "parts.tsv"
        assert main(["cluster", "--input", str(sample_file), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err

    def test_scorer_pmi_without_matrix_is_usage_error(self, sample_file):
        with pytest.raises(SystemExit) as err:
            main(["cluster", "--input", str(sample_file), "--scorer", "pmi"])
        assert err.value.code == 2

    def test_vanilla_with_matrix_is_usage_error(self, tmp_path, sample_file):
        matrix = tmp_path / "m.tsv"
        matrix.write_text("alphabet\ta\na\ta\t1.0\n", encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            main(["cluster", "--input", str(sample_file), "--pmi-matrix", str(matrix)])
        assert err.value.code == 2

    @pytest.mark.parametrize("subcommand", ["cluster", "evaluate"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, sample_file, capsys, subcommand, jobs):
        with pytest.raises(SystemExit) as err:
            main([subcommand, "--input", str(sample_file), "--jobs", jobs])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs: must be at least 1" in captured.err

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

    def test_no_gold_warns_and_exits_zero(self, tmp_path, capsys):
        unlabelled = SAMPLE.replace("\tc1", "\t").replace("\tc2", "\t")
        inp = tmp_path / "in.tsv"
        inp.write_text(unlabelled, encoding="utf-8")
        assert main(["evaluate", "--input", str(inp)]) == 0
        assert "no gold" in capsys.readouterr().err

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
        assert not matrix.has_unobserved_pairs

    def test_bad_pair_file_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ol\tal\textra\n", encoding="utf-8")
        assert main(["pmi-estimate", "--input", str(pairs)]) == 2

    def test_unequal_pair_lengths_exit_3(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("olo\tal\n", encoding="utf-8")
        assert main(["pmi-estimate", "--input", str(pairs)]) == 3

    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_bad_smoothing_exits_3(self, tmp_path, capsys, smoothing):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ol\tal\n", encoding="utf-8")
        code = main(["pmi-estimate", "--input", str(pairs), "--smoothing", smoothing])
        assert code == 3
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

    @pytest.mark.parametrize("stderr_on_pipe", [False, True], ids=["stderr-apart", "stderr-on-pipe"])
    def test_reader_closed_early_exits_0_quietly(self, sample_file, stderr_on_pipe):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cogclust", "cluster", "--input", str(sample_file)],
                stdout=write_end,
                stderr=write_end if stderr_on_pipe else subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
        # With stderr on the closed pipe too, any message would fail to write
        # and change the exit status.
        assert proc.returncode == 0
        if not stderr_on_pipe:
            assert proc.stderr == b""

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
