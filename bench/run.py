"""Seeded benchmark for cogclust on planted-cognate word lists.

Run from the repository root::

    python3 bench/run.py --workload pmi_evaluate --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the same work in process with spans around calls into each
module's public functions and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Run details and spans are written under
``bench/_work/``. NOTES.md explains the workloads and what is not measured.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
STARTUP_REPEATS = 3
PARALLEL_PROBE_REPEATS = 3
MAX_FAILED_IN_A_ROW = 3  # a run stops early rather than repeat a broken pass
CORES = sorted(os.sched_getaffinity(0))


def _require_checkout() -> None:
    """The benchmark measures the package of this checkout and nothing else."""
    missing = [p for p in (SRC / "cogclust" / "__init__.py", TESTS / "oracles.py",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        sys.exit(f"bench: not a cogclust checkout, missing {', '.join(map(str, missing))}")
    sys.path[:0] = [str(SRC), str(TESTS)]


_require_checkout()

import numpy  # noqa: E402

import cogclust as cg  # noqa: E402
from cogclust import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Context, Sample, run_cli  # noqa: E402

# Metric names, units and the run length are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_context(workload, seed) -> dict:
    return {
        "workload": workload.name, "seed": seed,
        "usable_cores": len(CORES),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit_id(), **workload.size,
    }


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def checked(workload, sample: Sample) -> Sample:
    if sample.output is None:  # the pass raised; there is nothing to check
        return sample
    try:
        workload.check_pass(sample)
    except Exception as exc:  # a broken output must count, not end the run
        sample.problems.append(f"check raised {exc!r}")
    sample.output = None
    return sample


def final_ops(workload) -> list[list[str]]:
    try:
        return workload.final_checks()
    except Exception as exc:
        return [[f"final checks raised {exc!r}"]]


def on_core(workload, i: int) -> None:
    """Pin in-process work to the i-th usable core.

    On a shared host each core slows down in phases of seconds, independently
    of the others. Work in this process stays on the core the scheduler chose
    and takes that core's phase; pinned to each core in turn, the mean over a
    run averages the cores. A ``cogclust`` process is left unpinned: a new
    process for each pass already lands on either core, and one started pinned
    would size its thread pools to one core. Only the calling thread is
    pinned, so thread pools already running here keep every core.
    """
    if workload.in_process:
        os.sched_setaffinity(0, {CORES[i % len(CORES)]})


def end_to_end(workload, seconds: float) -> tuple[dict, list, dict]:
    setups = []
    for i in range(workload.setup_repeats):
        on_core(workload, i)
        setups.append(workload.setup())
    os.sched_setaffinity(0, CORES)
    workload.prepare_checks()
    samples, measured, failed_in_a_row = [], 0.0, 0
    while (len(samples) < MIN_PASSES or measured < seconds) and failed_in_a_row < MAX_FAILED_IN_A_ROW:
        on_core(workload, len(samples))
        start = time.perf_counter()
        try:
            sample = workload.timed_pass()
        except Exception as exc:
            sample = Sample(0.0, 0.0, 0.0, None, [f"pass raised {exc!r}"])
        measured += time.perf_counter() - start
        samples.append(checked(workload, sample))
        failed_in_a_row = failed_in_a_row + 1 if sample.problems else 0
    os.sched_setaffinity(0, CORES)
    ops = [s.problems for s in samples] + final_ops(workload)
    good = [s for s in samples if not s.problems]
    if not good:
        raise RuntimeError(f"every pass failed: {samples[0].problems}")
    # The mean over the measured window, not the median pass: on a shared host
    # the speed drifts in phases of several seconds, and a median takes the
    # phase that covers most of a run while the mean averages over them.
    walls = [s.wall_s for s in good]
    wall = statistics.fmean(walls)
    pct, wall_tail = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "forms_per_s": workload.size["forms"] * workload.configurations / wall,
        "cpu_s": statistics.fmean(s.cpu_s for s in good),
        "peak_rss_mb": max(s.rss_mb for s in good),
        "bcubed_f": statistics.median(s.quality for s in good),
        "success_rate": 1.0 - sum(1 for p in ops if p) / len(ops),
    }
    detail = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"mean of {len(good)} passes; median {statistics.median(walls):.4f} s"
                  + (f"; p{pct:.0f} {wall_tail:.4f} s" if len(walls) > 10 else ""),
        "forms_per_s": f"{workload.size['forms']} forms x {workload.configurations} configurations",
        "cpu_s": "user+sys of all program processes, mean per pass",
        "peak_rss_mb": "largest program process over all passes",
        "bcubed_f": "aggregate B-cubed F against planted gold"
                    + (", best of the grid" if workload.configurations > 1 else ""),
        "success_rate": "1 - error_rate",
        "passes_s": walls,
    }
    return metrics, ops, detail


def _layer_sums(tracer: Tracer, root) -> dict:
    sums: dict = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for s in tracer.descendants(root):
        add(s.name.split(".")[0] + ".self_s", s.self_s)
        add(s.name, s.duration)
        for key, value in s.counts.items():
            add(f"{s.name}#{key}", value)
    return sums


def _cluster_meaning_ms(tracer: Tracer, roots) -> list[list[float]]:
    """Per root, the duration of each ``cluster_meaning`` call in ms."""
    return [[1000.0 * s.duration for s in tracer.descendants(r)
             if s.name == "pipeline.cluster_meaning"] for r in roots]


def _probe(tracer: Tracer, name: str, workload) -> None:
    wl, scorer, partitions = workload.probe_data()
    if name == "flat":
        sims = [cg.similarity_matrix(wl.forms_for_meaning(m), scorer) for m in wl.meanings[:4]]
        with tracer.patched(), tracer.span("probe.flat"):
            for s in sims:
                cg.flat_cluster_threshold(s, 1.0)
    elif name == "pmi":
        out = workload.ctx.work / "probe_pmi.tsv"
        with tracer.patched(), tracer.span("probe.pmi"):
            cli.main(["pmi-estimate", "--input", str(workload.pairs), "--out", str(out)])
            cg.load_pmi(out)
    elif name == "evaluate":
        with tracer.patched(), tracer.span("probe.evaluate"):
            cg.render_report(cg.evaluate_dataset(partitions, workload.gold))
    elif name == "write":
        with open(workload.parts, "w", encoding="utf-8", newline="\n") as fh:
            with tracer.patched(), tracer.span("probe.write"):
                cg.write_partitions(wl, partitions, fh)
    elif name == "parallel":
        for _ in range(PARALLEL_PROBE_REPEATS):
            with tracer.patched(), tracer.span("probe.parallel"):
                cg.cluster_wordlist(wl, scorer, jobs=1)


def traced(workload, seconds: float) -> tuple[dict, list, dict, Tracer]:
    tracer = Tracer()
    with tracer.patched(), tracer.span("setup"):
        workload.traced_setup()
    setup_root = tracer.spans[0]
    workload.prepare_checks()
    plain, roots, ops, measured = [], [], [], 0.0
    failed_in_a_row = 0
    while (len(roots) < MIN_TRACED_PASSES or measured < seconds) and failed_in_a_row < MAX_FAILED_IN_A_ROW:
        for tracing in (False, True):
            start = time.perf_counter()
            try:
                if tracing:
                    with tracer.patched(), tracer.span("pass") as root:
                        output = workload.in_process_pass()
                    roots.append(root)
                else:
                    output = workload.in_process_pass()
                    plain.append(time.perf_counter() - start)
                sample = checked(workload, Sample(0.0, 0.0, 0.0, output))
            except Exception as exc:
                sample = Sample(0.0, 0.0, 0.0, None, [f"pass raised {exc!r}"])
            measured += time.perf_counter() - start
            ops.append(sample.problems)
            failed_in_a_row = failed_in_a_row + 1 if sample.problems else 0
    ops += final_ops(workload)
    if not roots:
        raise RuntimeError(f"every traced pass failed: {ops[0]}")

    passes = [_layer_sums(tracer, r) for r in roots]
    keys = set().union(*passes)
    sums = _layer_sums(tracer, setup_root)
    for key in keys:
        sums[key] = sums.get(key, 0.0) + statistics.median(p.get(key, 0.0) for p in passes)
    per_root = [ms for ms in _cluster_meaning_ms(tracer, roots) if ms]

    def layer(key):
        return sums.get(key, 0.0)

    probe_names = [p for p in workload.probes if p != "parallel" or not per_root]
    for name in probe_names:
        _probe(tracer, name, workload)
    for root in tracer.roots():
        if root.name.startswith("probe."):
            for key, value in _layer_sums(tracer, root).items():
                if not layer(key):
                    sums[key] = sums.get(key, 0.0) + value
    if not per_root:
        per_root = _cluster_meaning_ms(
            tracer, [r for r in tracer.roots() if r.name == "probe.parallel"])
    samples = [ms for root in per_root for ms in root]

    wl, scorer, _ = workload.probe_data()
    jobs2 = []
    for _ in range(2):
        start = time.perf_counter()
        cg.cluster_wordlist(wl, scorer, jobs=2)
        jobs2.append(time.perf_counter() - start)
    startups = [run_cli(workload.ctx, "--version").wall_s for _ in range(STARTUP_REPEATS)]
    pct, tail_ms = tail(samples)

    align_s = layer("align.self_s")
    flat_s = layer("crp.flat_cluster_threshold")
    scan_visits = layer("crp.scan#visits")
    metrics = {
        "align.self_s": align_s,
        "align.pairs": layer("align.similarity_matrix#pairs"),
        "align.cells": layer("align.similarity_matrix#cells"),
        "align.pairs_per_s": layer("align.similarity_matrix#pairs") / align_s,
        "align.cells_per_s": layer("align.similarity_matrix#cells") / align_s,
        # Self time of every crp span but the flat baseline: the scan, and any
        # work crp_cluster does outside crp_cluster_with_history.
        "crp.self_s": layer("crp.self_s") - flat_s,
        "crp.flat_s": flat_s,
        "crp.scans": layer("crp.scan#scans"),
        "crp.changes": layer("crp.scan#changes"),
        "crp.unconverged_meanings": layer("crp.scan#unconverged"),
        "crp.moves_per_visit": layer("crp.scan#changes") / scan_visits if scan_visits else 0.0,
        "wordlist.parse_s": layer("wordlist.parse_wordlist"),
        "wordlist.forms": layer("wordlist.parse_wordlist#forms"),
        "wordlist.meanings": layer("wordlist.parse_wordlist#meanings"),
        "cli.startup_s": statistics.median(startups),
        "pipeline.write_s": layer("pipeline.write_partitions"),
        "pmi.estimate_s": layer("pmi.estimate_pmi"),
        "pmi.load_s": layer("pmi.load_pmi"),
        "evaluate.self_s": layer("evaluate.self_s"),
        "pipeline.parallel_efficiency":
            statistics.median(map(sum, per_root)) / 1000.0 / (2 * statistics.median(jobs2)),
        "pipeline.cluster_meaning_ms_p50": statistics.median(samples),
        "pipeline.cluster_meaning_ms_tail": tail_ms,
        "trace.coverage": statistics.median(1.0 - r.self_s / r.duration for r in roots),
        "trace.overhead_ratio":
            statistics.median(r.duration for r in roots) / statistics.median(plain),
    }
    detail = {
        "pipeline.cluster_meaning_ms_tail":
            f"p{pct:.1f} of {len(samples)} cluster_meaning calls",
        "pipeline.parallel_efficiency": "jobs-1 sum of cluster_meaning / (2 x jobs-2 wall)",
        "trace.coverage": f"median over {len(roots)} traced passes",
        "trace.overhead_ratio": f"traced / untraced in-process pass, {len(plain)} of each",
    }
    return metrics, ops, detail, tracer


def measure(name: str, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workload = WORKLOADS[name](Context(ROOT, work, env), seed)
    tracer = None
    if trace:
        metrics, ops, detail, tracer = traced(workload, seconds)
        units = PER_LAYER
    else:
        metrics, ops, detail = end_to_end(workload, seconds)
        units = END_TO_END
    failed = sum(1 for p in ops if p)
    context = host_context(workload, seed)
    print(f"== {name}  seed {seed}  trace {int(trace)}  " +
          "  ".join(f"{k}={v}" for k, v in context.items() if k not in ("workload", "seed")))
    for key, unit in units.items():
        print(f"  {key:34s} {metrics[key]:>14.6g} {unit:6s} {detail.get(key, '')}")
    print(f"  {'error_rate':34s} {failed / len(ops):>14.6g} ratio  "
          f"{failed} of {len(ops)} operations failed")
    for problems in ops:
        for problem in problems[:3]:
            print(f"  FAILED: {problem}")
    result = {"context": context, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              "detail": detail, "problems": [p for p in ops if p]}
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (work / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.dump(work / f"spans-{stem}.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, BENCH / "_work" / n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
