"""The benchmark's three workloads.

Each workload writes its generated inputs, then offers: ``setup`` (the program
calls made before the timed passes; returns their seconds), ``timed_pass`` (one closed-loop pass,
measured), ``check_pass`` and ``final_checks`` (output checks, run outside the
timed region), and for the traced run ``traced_setup``, ``in_process_pass``
and its probes. Why each workload exists is in NOTES.md.
"""

import io
import json
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import cogclust as cg
from cogclust import cli
from oracles import crp_reference
from plant import Shape, planted_wordlist
from tracer import align_counts


@dataclass
class Context:
    root: Path
    work: Path
    env: dict


@dataclass
class Sample:
    """One timed pass: its cost, and what the checks need to see."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    output: object
    problems: list = field(default_factory=list)
    quality: float = float("nan")


@dataclass
class Call:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


LAUNCHER = Path(__file__).with_name("launch.py")


def run_cli(ctx: Context, *args) -> Call:
    """Run ``python -m cogclust ARGS`` to completion, through ``launch.py``."""
    err_path = ctx.work / "stderr.txt"
    result_path = ctx.work / "launch.json"
    with open(err_path, "wb") as err:
        subprocess.run(
            [sys.executable, "-I", "-S", str(LAUNCHER), str(result_path),
             sys.executable, "-m", "cogclust", *map(str, args)],
            cwd=ctx.root, env=ctx.env, check=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
    r = json.loads(result_path.read_text(encoding="utf-8"))
    return Call(r["returncode"], r["wall_s"], r["cpu_s"], r["rss_mb"],
                err_path.read_text(errors="replace")[-500:])


def mean_bcubed_f(partitions: dict, gold: dict) -> float:
    """Aggregate F recomputed with ``bcubed``: the mean of per-meaning F."""
    scores = [cg.bcubed(partitions[m], gold[m]).f_score for m in gold]
    return sum(scores) / len(scores)


def partitions_from_tsv(text: str, rows) -> tuple[dict, list]:
    """Parse a partition TSV; check every form appears once with dense ids."""
    problems = []
    lines = text.split("\n")
    if lines[0] != "meaning\tlanguage\ttranscription\tcluster_id" or lines[-1] != "":
        return {}, ["partition file has a bad header or no final newline"]
    got, labels = [], {}
    for line in lines[1:-1]:
        meaning, language, word, label = line.split("\t")
        got.append((language, meaning, word))
        labels.setdefault(meaning, []).append(int(label))
    if sorted(got) != sorted((r[0], r[1], r[2]) for r in rows):
        problems.append("forms missing, repeated or altered in the partition file")
    partitions = {}
    for meaning, ids in labels.items():
        if set(ids) != set(range(len(set(ids)))):
            problems.append(f"meaning {meaning}: cluster ids are not dense")
        else:
            partitions[meaning] = cg.Partition(tuple(ids))
    return partitions, problems


class Workload:
    name = ""
    shape: Shape
    setup_repeats = 5
    configurations = 1  # clusterings per pass, for forms_per_s
    in_process = False  # whether set-up and passes run in the benchmark's process

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.data = planted_wordlist(seed, self.shape)
        self.words = ctx.work / "words.tsv"
        self.pairs = ctx.work / "pairs.tsv"
        self.pmi = ctx.work / "pmi.tsv"
        self.parts = ctx.work / "parts.tsv"
        self.report = ctx.work / "parts.tsv.report.tsv"
        self.words.write_text(self.data.wordlist_tsv(), encoding="utf-8")
        self.pairs.write_text(self.data.pairs_tsv(), encoding="utf-8")
        classes: dict = {}
        for _, meaning, _, cls in self.data.rows:
            classes.setdefault(meaning, []).append(cls)
        self.gold = {m: cg.Partition.from_labels(c) for m, c in classes.items()}
        words: dict = {}
        for _, meaning, word, _ in self.data.rows:
            words.setdefault(meaning, []).append(word)
        counts = [align_counts(w) for w in words.values()]
        self.size = {
            "forms": len(self.data.rows),
            "meanings": len(classes),
            "pairs": sum(c["pairs"] for c in counts),
            "cells": sum(c["cells"] for c in counts),
        }
        self.rng = random.Random(seed ^ 0x5EED)

    def prepare_checks(self) -> None:
        """Build what the output checks compare against, before any timing."""

    def sampled_meanings(self, count: int) -> list[str]:
        return self.rng.sample(sorted(self.gold), min(count, len(self.gold)))

    def matrix_check(self, forms, scorer, sims) -> list[str]:
        """Sampled matrix entries equal the clamped ``nw_score`` of the pair."""
        n = len(forms)
        problems = []
        for _ in range(24):
            i, j = self.rng.randrange(n), self.rng.randrange(n)
            want = max(cg.nw_score(forms[i].segments, forms[j].segments, scorer), 0.0)
            if sims.values[i, j] != want:
                problems.append(f"matrix[{i},{j}] = {sims.values[i, j]!r}, "
                                f"nw_score gives {want!r}")
        return problems

    @staticmethod
    def oracle_check(sims, labels, alpha=0.01, linkage="average") -> list[str]:
        """A partition equals ``tests/oracles.crp_reference`` on its matrix."""
        want = crp_reference(sims.values.tolist(), alpha=alpha, linkage=linkage)
        return [] if list(labels) == want else [f"partition differs from the oracle: {labels}"]


class CliWorkload(Workload):
    """A workload whose timed pass is one ``cogclust`` command."""

    jobs = 1
    oracle_samples = 3
    writes_report = False  # whether the command writes PATH.report.tsv

    def command(self, jobs) -> list:
        raise NotImplementedError

    def scorer(self):
        raise NotImplementedError

    def _clear_outputs(self) -> None:
        """Remove earlier outputs, so a pass is checked only on what it wrote."""
        for path in (self.parts, self.report, Path(f"{self.parts}.report.txt")):
            path.unlink(missing_ok=True)

    def timed_pass(self) -> Sample:
        self._clear_outputs()
        call = run_cli(self.ctx, *self.command(self.jobs))
        return Sample(call.wall_s, call.cpu_s, call.rss_mb, self._outputs(call.returncode, call.stderr))

    def in_process_pass(self):
        self._clear_outputs()
        code = cli.main([str(a) for a in self.command(1)])
        return self._outputs(code, "")

    def _outputs(self, code, stderr):
        if code != 0:
            return code, stderr, None, None
        return (code, stderr,
                self.parts.read_bytes() if self.parts.exists() else None,
                self.report.read_text(encoding="utf-8") if self.report.exists() else None)

    def inputs(self):
        """Word list and scorer as the library sees them (outside any timing)."""
        if not hasattr(self, "_inputs"):
            self._inputs = cg.parse_wordlist(self.words), self.scorer()
        return self._inputs

    def prepare_checks(self) -> None:
        self.reference()

    def reference(self) -> bytes:
        """Partitions built in process at jobs 1, as the CLI would write them."""
        if not hasattr(self, "_reference"):
            wl, scorer = self.inputs()
            self._partitions = cg.cluster_wordlist(wl, scorer, jobs=1)
            buf = io.StringIO()
            cg.write_partitions(wl, self._partitions, buf)
            self._reference = buf.getvalue().encode("utf-8")
        return self._reference

    def check_pass(self, sample: Sample) -> None:
        code, stderr, parts, report = sample.output
        if code != 0:
            sample.problems.append(f"exit code {code}: {stderr.strip()}")
            return
        if parts is None:
            sample.problems.append("exit code 0 but no partition file")
            return
        if self.writes_report and report is None:
            sample.problems.append("exit code 0 but no report file")
        partitions, problems = partitions_from_tsv(parts.decode("utf-8"), self.data.rows)
        sample.problems += problems
        if parts != self.reference():
            sample.problems.append("partition bytes differ from the in-process jobs-1 build")
        if set(partitions) != set(self.gold):
            return
        sample.quality = mean_bcubed_f(partitions, self.gold)
        if report is not None:
            line = f"aggregate\tf_score\t{sample.quality:.4f}\n"
            if line not in report:
                sample.problems.append("report aggregate F differs from F recomputed with bcubed")

    def final_checks(self) -> list[list[str]]:
        wl, scorer = self.inputs()
        self.reference()
        results = []
        for meaning in self.sampled_meanings(self.oracle_samples):
            forms = wl.forms_for_meaning(meaning)
            sims = cg.similarity_matrix(forms, scorer)
            results.append(self.matrix_check(forms, scorer, sims))
            results.append(self.oracle_check(sims, self._partitions[meaning].labels))
        return results

    def probe_data(self):
        wl, scorer = self.inputs()
        self.reference()
        return wl, scorer, self._partitions


class PmiEvaluate(CliWorkload):
    name = "pmi_evaluate"
    shape = Shape(meanings=60, languages=100, proto_len=(3, 9), classes=(1, 8))
    jobs = 2
    writes_report = True
    probes = ("flat", "parallel")

    def command(self, jobs):
        return ["evaluate", "--input", self.words, "--scorer", "pmi",
                "--pmi-matrix", self.pmi, "--jobs", jobs, "--out", self.parts]

    def scorer(self):
        return cg.Scorer.from_pmi(cg.load_pmi(self.pmi))

    def setup(self) -> float:
        call = run_cli(self.ctx, "pmi-estimate", "--input", self.pairs, "--out", self.pmi)
        if call.returncode != 0:
            raise RuntimeError(f"pmi-estimate failed: {call.stderr}")
        return call.wall_s

    def traced_setup(self):
        if cli.main(["pmi-estimate", "--input", str(self.pairs), "--out", str(self.pmi)]):
            raise RuntimeError("pmi-estimate failed in process")


class ShortLists(CliWorkload):
    name = "short_lists"
    shape = Shape(meanings=400, languages=12, proto_len=(3, 6), classes=(1, 5))
    oracle_samples = 40
    probes = ("flat", "pmi", "evaluate", "parallel")

    def command(self, jobs):
        return ["cluster", "--input", self.words, "--jobs", jobs, "--out", self.parts]

    def scorer(self):
        return cg.Scorer.vanilla()

    def setup(self) -> float:
        # A start-up before the timed passes warms the interpreter's caches.
        call = run_cli(self.ctx, "--version")
        if call.returncode != 0:
            raise RuntimeError(f"cogclust --version failed: {call.stderr}")
        return call.wall_s

    def traced_setup(self):
        pass


ALPHAS = (0.01, 0.5, 1.0, 2.0, 5.0, 10.0)


class AlphaSweep(Workload):
    """In-process tuning loop over clustering settings on fixed matrices."""

    name = "alpha_sweep"
    in_process = True
    shape = Shape(meanings=16, languages=60, proto_len=(3, 9), classes=(1, 8))
    probes = ("write", "parallel")

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        shuffle = seed % 1_000_003
        self.configs = [
            cg.CrpConfig(alpha=a, linkage=link, shuffle_seed=order)
            for a in ALPHAS for link in ("average", "single") for order in (None, shuffle)
        ]
        self.configurations = len(self.configs) + len(ALPHAS)

    def setup(self) -> float:
        start = time.perf_counter()
        with open(self.pairs, encoding="utf-8") as fh:
            pairs = [tuple(line.rstrip("\n").split("\t")) for line in fh]
        cg.save_pmi(cg.estimate_pmi(pairs), self.pmi)
        self.scorer = cg.Scorer.from_pmi(cg.load_pmi(self.pmi))
        self.wl = cg.parse_wordlist(self.words)
        self.sims = {m: cg.similarity_matrix(self.wl.forms_for_meaning(m), self.scorer)
                     for m in self.wl.meanings}
        return time.perf_counter() - start

    traced_setup = setup

    def sweep(self) -> list:
        """Every configuration's partitions and evaluation report."""
        results = []
        for config in self.configs:
            parts = {m: cg.crp_cluster_with_history(s, config)[0] for m, s in self.sims.items()}
            results.append((config, parts, cg.evaluate_dataset(parts, self.gold)))
        for threshold in ALPHAS:
            parts = {m: cg.flat_cluster_threshold(s, threshold) for m, s in self.sims.items()}
            results.append((threshold, parts, cg.evaluate_dataset(parts, self.gold)))
        return results

    def timed_pass(self) -> Sample:
        cpu = time.process_time()
        start = time.perf_counter()
        results = self.sweep()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Sample(wall, cpu, rss, results)

    in_process_pass = sweep

    def check_pass(self, sample: Sample) -> None:
        results = sample.output
        if not hasattr(self, "first_results"):  # the first pass that produced results
            self.first_results = results
        for (setting, parts, report), (_, first, _) in zip(results, self.first_results):
            for m, part in parts.items():
                if part.n != self.gold[m].n:
                    sample.problems.append(f"{setting}: meaning {m} has {part.n} labels")
            if report.aggregate.f_score != mean_bcubed_f(parts, self.gold):
                sample.problems.append(f"{setting}: report F differs from F recomputed with bcubed")
            if {m: p.labels for m, p in parts.items()} != {m: p.labels for m, p in first.items()}:
                sample.problems.append(f"{setting}: partitions differ from the first pass")
        sample.quality = max(report.aggregate.f_score for _, _, report in results)
        self.last_results = results

    def final_checks(self) -> list[list[str]]:
        results = []
        file_order = [(c, p) for c, p, _ in self.first_results
                      if isinstance(c, cg.CrpConfig) and c.shuffle_seed is None]
        for meaning in self.sampled_meanings(4):
            sims = self.sims[meaning]
            forms = self.wl.forms_for_meaning(meaning)
            results.append(self.matrix_check(forms, self.scorer, sims))
            config, parts = self.rng.choice(file_order)
            results.append(self.oracle_check(sims, parts[meaning].labels,
                                             config.alpha, config.linkage))
        return results

    def probe_data(self):
        best = max(self.last_results, key=lambda r: r[2].aggregate.f_score)
        return self.wl, self.scorer, best[1]


WORKLOADS = {w.name: w for w in (PmiEvaluate, AlphaSweep, ShortLists)}
