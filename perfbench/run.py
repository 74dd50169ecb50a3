"""Layer-by-layer benchmark of gridsleuth's detect -> localize -> rank path.

    python3 perfbench/run.py --workload mesh_localize --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists):

- ``mesh_localize``: 200 random radial meshes, 3-4 feeders of 20-60 nodes
  in all, 3-5 ties, 0-2 DG leaves, one or two dead meters.
- ``chain_localize``: the 122-node two-feeder chain, one dead meter near
  the head, mid-feeder, near the tie and on the other feeder.
- ``detect_rank``: ``sim run`` (96 intervals), ``localize run`` and
  ``score`` through ``gridsleuth.cli.main`` on 3-feeder networks with 60
  load nodes and 40 meters on each.

One closed-loop caller in this process runs the workload's episodes one
after another in whole passes over the seeded episode set: at least one,
and more while they fit in ``--seconds``. Each episode is judged against the
ground truth after it returns, outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass
untraced, then set-up and the same pass again with every public layer
function wrapped, and prints per-layer metrics per episode plus
``trace.overhead_ratio``. The last stdout line is the JSON result; a
fuller record (input fingerprint, feature counts, failures by kind,
sample counts) goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "episode_ms_p50": "ms",
    "episodes_per_s": "1/s",
    "fresh_checks_mean": "count",
    "switch_actions_mean": "count",
    "verdict_size_ratio": "ratio",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
}
# A tail percentile is reported only with at least ten samples beyond it,
# so p90 needs 100 timed episodes. End-to-end metrics must exist on every
# workload, and chain_localize and detect_rank time only a few episodes,
# so p90 goes to the record file instead.
P90_MIN_SAMPLES = 100
# Errors and invalid committed states make a run incorrect. Wrong answers
# (a missed tamper, alarm or ranking) are failed episodes: they count in
# ``failed`` and ``success_rate`` and are broken down by kind.
HARD_FAILURES = ("error:", "exit", "invalid_state")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(work, prepared, seconds: float, tracer=None):
    """Closed loop over whole passes of the episode set.

    The first pass always runs; another starts only if, at the last
    pass's pace, it would end within ``seconds``, so every episode is
    timed equally often. Returns per-episode wall times, outcomes and the
    loop's wall time without the gate.
    """
    times, outcomes = [], []
    gate = 0.0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for prep in prepared:
            t0 = perf_counter()
            if tracer is None:
                result = work.run(prep)
            else:
                with tracer.root("episode"):
                    result = work.run(prep)
            t1 = perf_counter()
            outcomes.append(work.judge(prep, result))
            gate += perf_counter() - t1
            times.append(t1 - t0)
        now = perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return times, outcomes, now - start - gate


def mean_or_zero(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def end_to_end(setup_times, times, outcomes, n_distinct, wall) -> dict:
    # Quality figures come from the first pass, which covers every seeded
    # episode once, so they do not depend on how fast the loop ran.
    first = outcomes[:n_distinct]
    ran = [o for o in first if o.checks is not None]
    good = [o for o in first if o.failure is None]
    ms = [t * 1e3 for t in times]
    return {
        "setup_s": statistics.median(setup_times),
        "episode_ms_p50": statistics.median(ms),
        "episodes_per_s": len(times) / wall,
        "fresh_checks_mean": mean_or_zero(o.checks for o in ran),
        "switch_actions_mean": mean_or_zero(o.actions for o in ran),
        "verdict_size_ratio": mean_or_zero(o.verdict_size / o.truth_size for o in good),
        "success_rate": len(good) / len(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridsleuth" / "__init__.py").is_file():
        print(f"error: gridsleuth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridsleuth

    import episodes
    import inputs
    import tracing

    if args.workload not in episodes.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(episodes.WORKLOADS)}", file=sys.stderr)
        return 2
    work = episodes.workload(args.workload, OUT)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "backend": getattr(gridsleuth, "BACKEND", None)}
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = perf_counter()
            prepared = work.prepare(args.seed)
            work.warm_up(args.seed)
            setup_times.append(perf_counter() - t0)
        episode_inputs = [p.episode for p in prepared]
        record["fingerprint"] = inputs.fingerprint(episode_inputs)
        record["counts"] = inputs.counts(episode_inputs)
        record["setup_s_samples"] = setup_times

        if args.trace:
            times, outcomes, _ = run_pass(work, prepared, 0.0)
            tracer = tracing.Tracer()
            with tracer.installed():
                with tracer.root("setup"):
                    prepared = work.prepare(args.seed)
                traced_times, traced_outcomes, _ = run_pass(work, prepared, 0.0, tracer)
            checks = sum(o.checks or 0 for o in traced_outcomes)
            metrics = tracing.layer_metrics(tracer, len(traced_times), checks)
            metrics["trace.overhead_ratio"] = sum(traced_times) / sum(times) - 1
            units = {f"{n}.{s}": tracing.UNITS[s] for n, s in tracing.PER_LAYER}
            units["trace.overhead_ratio"] = "ratio"
            outcomes = outcomes + traced_outcomes
            record["traced_episodes"] = len(traced_times)
        else:
            times, outcomes, wall = run_pass(work, prepared, args.seconds)
            metrics = end_to_end(setup_times, times, outcomes, len(prepared), wall)
            units = END_TO_END_UNITS
            ms = [t * 1e3 for t in times]
            good = [o for o in outcomes[:len(prepared)] if o.failure is None]
            record["failure_rate"] = 1 - metrics["success_rate"]
            record["verdict_excess_mean"] = mean_or_zero(
                o.verdict_size - o.truth_size for o in good)
            record["timed_episodes"] = len(ms)
            if len(ms) >= P90_MIN_SAMPLES:
                p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
                record["episode_ms_p90"] = p90
                record["samples_beyond_p90"] = sum(1 for t in ms if t > p90)
            record["episodes"] = [
                {"name": p.episode.name, "ms": t * 1e3, "failure": o.failure}
                for p, t, o in zip(prepared, times, outcomes)]
    finally:
        work.close()

    failures = Counter(o.failure for o in outcomes if o.failure)
    result = {
        "correct": not any(f.startswith(HARD_FAILURES) for f in failures),
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["failures_by_kind"] = dict(sorted(failures.items()))
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"inputs {record['fingerprint'][:16]} {record['counts']}")
    print(f"failures by kind: {record['failures_by_kind'] or 'none'}; "
          f"details in {path.relative_to(HERE.parent)}")
    if not args.trace:
        p90 = (f"p90 {record['episode_ms_p90']:.1f} ms with "
               f"{record['samples_beyond_p90']} beyond it"
               if "episode_ms_p90" in record else "too few for a p90")
        print(f"timed episodes: {record['timed_episodes']}, {p90}; failure rate "
              f"{record['failure_rate']:.4f}; verdict excess "
              f"{record['verdict_excess_mean']:.3f} nodes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
