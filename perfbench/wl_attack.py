"""Workload ``lint-attack``: :func:`repro.campaign.run_attack` with the
default mutators and rules.

Each round attacks a seeded start and stride of the 2-instruction i2
corpus with flags (the ``AttackSpec`` defaults), then runs the same
spec again.  Both runs write to fresh out dirs, so every disagreement
is bundled on disk.  The exact behavior enumerator (the scalar
interpreter) is the oracle here, which ``campaign-o2`` never runs.

Disagreements (false positives or negatives of the analyzer) are
findings about the program, reported as counts; they are not failures
of the run.  Untimed afterwards, every round is checked: no
unclassified observation, an identical taxonomy from both runs, and a
bundle on disk for every disagreement.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List

from common import (
    Result,
    SpeedClock,
    digest,
    median,
    peak_rss_self_mb,
    ratio,
    settle,
)
from tracer import Tracer

NAME = "lint-attack"
FULL_SEEDS = 8
QUICK_SEEDS = 2
SETUP_SAMPLES = 7
STRIDES = (1500, 2500)

_SETUP_CODE = """
import time
t0 = time.perf_counter()
from repro.campaign import AttackSpec, plan_attack_shards
plan_attack_shards(AttackSpec(limit={limit}, start={start},
                              stride={stride}))
print(time.perf_counter() - t0)
"""


def round_specs(seed: int, limit: int):
    from repro.campaign import AttackSpec

    rng = random.Random(f"{NAME}:{seed}")
    while True:
        stride = rng.randrange(*STRIDES)
        yield AttackSpec(limit=limit, start=rng.randrange(stride),
                         stride=stride)


def inputs_digest(seed: int, limit: int) -> str:
    from repro.ir import print_function

    spec = next(round_specs(seed, limit))
    return digest(print_function(spec.seed_at(position))
                  for position in range(spec.total_functions()))


# -- correctness ------------------------------------------------------------------
def compare_taxonomy(label: str, observed: List[str],
                     reference: List[str]) -> List[str]:
    if observed == reference:
        return []
    missing = sorted(set(reference) - set(observed))
    extra = sorted(set(observed) - set(reference))
    return [f"{label}: taxonomy differs (missing {missing[:3]}, "
            f"extra {extra[:3]})"]


def check_round(index: int, first, second) -> List[str]:
    problems = compare_taxonomy(f"round {index} rerun",
                                second.taxonomy_lines(),
                                first.taxonomy_lines())
    for run_name, summary in (("run", first), ("rerun", second)):
        if summary.unclassified:
            problems.append(f"round {index} {run_name}: "
                            f"{summary.unclassified} unclassified")
        if summary.shards_errored:
            problems.append(f"round {index} {run_name}: errored shards "
                            f"{summary.shards_errored}")
        on_disk = {os.path.basename(p) for p in summary.bundle_paths
                   if os.path.isdir(p)}
        for d in summary.disagreements:
            if d.get("bundle_id", "") not in on_disk:
                problems.append(
                    f"round {index} {run_name}: disagreement "
                    f"{d['rule']} {d['verdict']} seed#{d['index']} has no "
                    f"bundle on disk")
    return problems


# -- the traced run -------------------------------------------------------------------
def install_attack_trace(tracer: Tracer) -> None:
    import repro.campaign.lint_attack as lint_attack
    import repro.mutate.ground_truth as ground_truth
    from repro.campaign.lint_attack import AttackSpec

    def count_mutants(mutants, _args):
        tracer.count("mutants", len(mutants))

    tracer.wrap(lint_attack, "mutate_function", "mutate.mutate",
                after=count_mutants)
    tracer.wrap(lint_attack, "classify_mutation", "mutate.ground_truth")
    tracer.wrap(lint_attack, "make_bundle_payload",
                "campaign.lint_attack.bundle")
    tracer.wrap(lint_attack, "write_bundle", "campaign.lint_attack.bundle")
    tracer.wrap(lint_attack, "run_attack_shard", "campaign.lint_attack.shard")
    tracer.wrap(lint_attack, "stats_snapshot", "diag.stats_snapshot")
    tracer.wrap(lint_attack, "save_manifest", "campaign.checkpoint.manifest")
    tracer.patch(lint_attack, "CheckpointStore", tracer.traced_subclass(
        lint_attack.CheckpointStore,
        {"__init__": "campaign.checkpoint.manifest",
         "append": "campaign.checkpoint.append"}))
    tracer.wrap(AttackSpec, "seed_at", "fuzz.enumerate")

    tracer.wrap(ground_truth, "enumerate_behaviors",
                "semantics.enumerate_behaviors")
    tracer.wrap(ground_truth, "parse_module", "mutate.ground_truth.parse")
    tracer.wrap(ground_truth, "lint_function", "lint.lint_function")
    tracer.wrap(ground_truth, "print_function", "ir.print")
    tracer.wrap(ground_truth, "print_instruction", "ir.print")
    tracer.wrap(ground_truth, "input_candidates", "refine.input_candidates")
    for cls in ("DominatorTree", "LoopInfo"):
        tracer.patch(ground_truth, cls, tracer.traced_subclass(
            getattr(ground_truth, cls), {"__init__": "analysis.cfg"}))


def traced_attack(tracer: Tracer, spec, out_dir: str):
    from repro.campaign import run_attack

    install_attack_trace(tracer)
    try:
        summary, _wall = tracer.root(run_attack, spec, out_dir=out_dir)
    finally:
        tracer.restore()
    return summary


def layer_metrics(tracer: Tracer, rounds: int, observations: int,
                  disagreements: int, unclassified: int,
                  overhead: float) -> Dict[str, float]:
    n = max(1, rounds)

    def per_round(name: str) -> float:
        return tracer.self_s.get(name, 0.0) / n

    return {
        "fuzz.enumerate_s": per_round("fuzz.enumerate"),
        "ir.print_s": per_round("ir.print"),
        "semantics.enumerate_behaviors_s": per_round(
            "semantics.enumerate_behaviors"),
        "semantics.enumerate_behaviors.calls": (
            tracer.calls["semantics.enumerate_behaviors"] / n),
        "mutate.mutate_s": per_round("mutate.mutate"),
        "mutate.mutants": tracer.counts["mutants"] / n,
        "mutate.ground_truth.parse_s": per_round(
            "mutate.ground_truth.parse"),
        "mutate.ground_truth.self_s": per_round("mutate.ground_truth"),
        "lint.lint_function_s": per_round("lint.lint_function"),
        "analysis.cfg_s": per_round("analysis.cfg"),
        "refine.input_candidates_s": per_round("refine.input_candidates"),
        "campaign.lint_attack.bundle_s": per_round(
            "campaign.lint_attack.bundle"),
        "campaign.lint_attack.shard.self_s": per_round(
            "campaign.lint_attack.shard"),
        "campaign.checkpoint.append_s": per_round(
            "campaign.checkpoint.append"),
        "campaign.checkpoint.manifest_s": per_round(
            "campaign.checkpoint.manifest"),
        "diag.stats_snapshot_s": per_round("diag.stats_snapshot"),
        "lint_attack.observations": observations / n,
        "lint_attack.disagreements": disagreements / n,
        "lint_attack.unclassified": unclassified / n,
        "bench.named_ratio": ratio(tracer.named_s, tracer.root_s),
        "bench.unattributed_s": (tracer.root_s - tracer.named_s) / n,
        "bench.trace_overhead_ratio": overhead,
    }


# -- the run ----------------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, quick: bool,
        work: str) -> Result:
    from repro.campaign import run_attack

    limit = QUICK_SEEDS if quick else FULL_SEEDS
    min_rounds = 1 if quick else 3
    result = Result()
    result.inputs_digest = inputs_digest(seed, limit)
    specs = round_specs(seed, limit)
    clock = SpeedClock()

    # (spec, first summary, rerun summary, first (wall, norm), rerun ...)
    rounds = []
    tracer = Tracer()
    traced_norm = untraced_norm = 0.0
    traced_counts = [0, 0, 0]
    setup = None
    started = time.perf_counter()
    while (len(rounds) < min_rounds
           or time.perf_counter() - started < seconds):
        index = len(rounds)
        spec = next(specs)
        if setup is None:
            setup_wall, setup = clock.child_setup(
                _SETUP_CODE.format(limit=spec.limit, start=spec.start,
                                   stride=spec.stride),
                1 if quick else SETUP_SAMPLES)
            started = time.perf_counter()
        base = os.path.join(work, f"round{index}")
        settle()
        first, *first_s = clock.timed(run_attack, spec,
                                      out_dir=os.path.join(base, "run"))
        second, *second_s = clock.timed(run_attack, spec,
                                        out_dir=os.path.join(base, "rerun"))
        rounds.append((spec, first, second, first_s, second_s))
        if not trace:
            continue
        settle()
        traced, _, norm = clock.timed(traced_attack, tracer, spec,
                                      os.path.join(work, f"traced{index}"))
        traced_norm += norm
        untraced_norm += first_s[1]
        result.mismatches += compare_taxonomy(
            f"round {index} traced", traced.taxonomy_lines(),
            first.taxonomy_lines())
        traced_counts[0] += traced.observations
        traced_counts[1] += len(traced.disagreements)
        traced_counts[2] += traced.unclassified
    rss = peak_rss_self_mb()

    for index, (_spec, first, second, _, _) in enumerate(rounds):
        result.mismatches += check_round(index, first, second)

    def rate(phase: int, which: int) -> float:
        return median([ratio(r[phase].mutants, r[phase + 2][which])
                       for r in rounds])

    mutants = sum(r[1].mutants for r in rounds)
    observations = sum(r[1].observations + r[2].observations
                       for r in rounds)
    unclassified = sum(r[1].unclassified + r[2].unclassified
                       for r in rounds)
    lost_seeds = sum(len(s.shards_errored) * s.spec.shard_size
                     for r in rounds for s in (r[1], r[2]))
    disagreements = sum(len(r[1].disagreements) for r in rounds)
    result.attempted = observations + lost_seeds
    result.failed = unclassified + lost_seeds

    if trace:
        result.metrics = layer_metrics(
            tracer, len(rounds), *traced_counts,
            overhead=ratio(traced_norm, untraced_norm))
        result.metrics["bench.probe_ms"] = clock.probe_ms
    else:
        result.metrics = {
            "setup_s": median(setup),
            "ops_per_s": rate(1, 1),
            "warm_ops_per_s": rate(2, 1),
            "p50_ms": median([r[3][1] for r in rounds]) * 1000.0,
            "peak_rss_mb": rss,
            "decided_ratio": 1.0 - ratio(unclassified, observations),
            "success_ratio": 1.0 - ratio(result.failed, result.attempted),
        }
    # what a user reads off the wall clock on this machine, unscaled
    result.name("mutants_per_s", rate(1, 0), "1/s", mutants)
    result.name("rerun_mutants_per_s", rate(2, 0), "1/s",
                sum(r[2].mutants for r in rounds))
    result.name("decided_ratio", 1.0 - ratio(unclassified, observations),
                "ratio", observations)
    result.name("failed_ratio", ratio(result.failed, result.attempted),
                "ratio", result.attempted)
    result.name("disagreements", disagreements, "count",
                sum(r[1].observations for r in rounds))
    result.name("setup_s", median(setup_wall), "s", len(setup))
    result.name("peak_rss_mb", rss, "MB", 1)
    result.notes = {
        "rounds": len(rounds),
        "seeds_per_round": limit,
        "probe_ms": clock.probe_ms,
        "run_round_s": [round(r[3][0], 4) for r in rounds],
        "disagreements_by_rule": _by_rule(r[1] for r in rounds),
    }
    return result


def _by_rule(summaries) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for summary in summaries:
        for d in summary.disagreements:
            key = f"{d['rule']} {d['verdict']}"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
