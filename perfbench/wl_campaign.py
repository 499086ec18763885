"""Workload ``campaign-o2``: a default-config ``campaign run``.

Each round draws a fresh seeded ``mode=random`` corpus of
3-instruction i2 functions (the paper's section 6 shape) and runs it
twice through :func:`repro.campaign.run_campaign` with the CLI
defaults (o2, ``recover``, ``auto`` engine, one in-process worker):

* cold: a fresh out dir and a fresh memo dir;
* warm: the same spec into a new out dir that shares the cold memo,
  so every function is answered by the memo.

Rounds repeat until the run's seconds are used.  Untimed afterwards,
every round is re-checked: the scalar engine with the memo off must
give the same verdict for every function, cold and warm verdict sets
must be byte-identical, and the fixed config must produce no
``failed`` verdict.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

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

NAME = "campaign-o2"
FULL_COUNT = 256
QUICK_COUNT = 12
SETUP_SAMPLES = 7
REFERENCE_WORKERS = 2

#: the o2 pipeline's distinct passes, in first-use order
O2_PASSES = ("mem2reg", "simplifycfg", "instcombine", "inline", "sccp",
             "reassociate", "gvn", "early-cse", "licm", "loop-unswitch",
             "freeze-opts", "dce")

_SETUP_CODE = """
import time
t0 = time.perf_counter()
from repro.campaign import CampaignSpec, plan_shards
spec = CampaignSpec(mode="random", count={count}, num_instructions=3,
                    seed={seed})
plan_shards(spec)
print(time.perf_counter() - t0)
"""


def make_spec(round_seed: int, count: int):
    from repro.campaign import CampaignSpec

    return CampaignSpec(mode="random", count=count, num_instructions=3,
                        seed=round_seed)


def round_seeds(seed: int):
    rng = random.Random(f"{NAME}:{seed}")
    while True:
        yield rng.getrandbits(31)


def inputs_digest(seed: int, count: int) -> str:
    """Fingerprint of the first round's generated corpus."""
    from repro.campaign import iter_shard_functions, plan_shards
    from repro.ir import print_module

    spec = make_spec(next(round_seeds(seed)), count)
    return digest(print_module(fn.module)
                  for shard in plan_shards(spec)
                  for fn in iter_shard_functions(spec, shard))


# -- correctness ----------------------------------------------------------------
def compare_verdicts(label: str, observed: List[str],
                     reference: List[str]) -> List[str]:
    """Mismatches between two sorted ``"<hash> <verdict>"`` line lists."""
    if observed == reference:
        return []
    obs = dict(line.split(" ", 1) for line in observed)
    ref = dict(line.split(" ", 1) for line in reference)
    out = []
    for h in sorted(set(obs) | set(ref)):
        if obs.get(h) != ref.get(h):
            out.append(f"{label}: {h[:12]} {obs.get(h)} != "
                       f"reference {ref.get(h)}")
    return out or [f"{label}: verdict lines differ"]


def failed_functions(summary) -> int:
    """Crashed functions plus the functions of errored shards that
    reported no per-function crash (a lost worker)."""
    failed = len(summary.crashes)
    for sid in summary.shards_errored:
        record = summary.records.get(sid, {})
        if not record.get("crashes"):
            failed += max(0, record.get("stop", 0) - record.get("start", 0))
    return failed


def check_round(index: int, spec, cold, warm) -> List[str]:
    from repro.campaign import run_campaign

    problems = []
    for phase, summary in (("cold", cold), ("warm", warm)):
        if summary.shards_errored or summary.crashes:
            problems.append(f"round {index} {phase}: "
                            f"{len(summary.crashes)} crash(es), errored "
                            f"shards {summary.shards_errored}")
    if cold.failed:
        problems.append(f"round {index}: fixed config produced "
                        f"{cold.failed} failed verdict(s)")
    problems += compare_verdicts(f"round {index} warm vs cold",
                                 warm.verdict_lines(), cold.verdict_lines())
    if warm.counterexamples != cold.counterexamples:
        problems.append(f"round {index}: warm counterexamples differ")
    # verdicts are independent of worker count, so the untimed
    # reference uses both cores
    reference = run_campaign(spec.with_(engine="scalar", use_cache=False),
                             workers=REFERENCE_WORKERS)
    problems += compare_verdicts(f"round {index} vs scalar no-memo",
                                 cold.verdict_lines(),
                                 reference.verdict_lines())
    return problems


# -- the traced run ---------------------------------------------------------------
def traced_store(tracer: Tracer, store_cls: type) -> type:
    """The checkpoint store with its appends as spans, counting the
    bytes each append adds to the checkpoint and dedup logs."""

    class TracedCheckpointStore(store_cls):
        def __init__(self, out_dir):
            tracer.call("campaign.checkpoint.manifest", store_cls.__init__,
                        self, out_dir)

        def _grow(self, fn, *args):
            paths = (self.path, self.dedup_path)
            before = sum(os.path.getsize(p) for p in paths
                         if os.path.exists(p))
            tracer.call("campaign.checkpoint.append", fn, self, *args)
            after = sum(os.path.getsize(p) for p in paths
                        if os.path.exists(p))
            tracer.count("checkpoint.bytes", after - before)

        def append(self, record):
            self._grow(store_cls.append, record)

        def append_dedup(self, verdicts):
            self._grow(store_cls.append_dedup, verdicts)

    return TracedCheckpointStore


def install_campaign_trace(tracer: Tracer) -> None:
    """Wrap every campaign layer at its call site."""
    import repro.campaign.executor as executor
    import repro.campaign.worker as worker
    import repro.opt.resilience.guard as guard
    from repro.campaign.spec import CampaignSpec

    tracer.patch(worker, "iter_shard_functions",
                 tracer.traced_iter("fuzz.enumerate",
                                    worker.iter_shard_functions))
    tracer.wrap(worker, "print_module", "ir.print")
    tracer.wrap(worker, "print_function", "ir.print")
    tracer.wrap(worker, "parse_function", "ir.parse")
    tracer.wrap(worker, "verify_function", "ir.verify")
    tracer.wrap(worker, "canonical_hash", "campaign.canon.hash")
    tracer.wrap(worker, "check_refinement", "refine.check",
                after=lambda r, _: tracer.count("refine.inputs",
                                                r.inputs_checked))
    tracer.wrap(worker, "check_function", "campaign.worker")
    tracer.wrap(worker, "stats_snapshot", "diag.stats_snapshot")
    tracer.patch(worker, "DedupCache", tracer.traced_subclass(
        worker.DedupCache, {"lookup": "campaign.canon.dedup",
                            "add": "campaign.canon.dedup"}))
    tracer.patch(worker, "RefinementMemo", tracer.traced_subclass(
        worker.RefinementMemo, {"__init__": "perf.memo.load",
                                "lookup": "perf.memo.lookup",
                                "record": "perf.memo.record",
                                "flush": "perf.memo.flush"}))
    tracer.wrap(executor, "run_shard", "campaign.shard")
    tracer.wrap(executor, "plan_shards", "campaign.executor")
    tracer.wrap(executor, "save_manifest", "campaign.checkpoint.manifest")
    tracer.patch(executor, "CheckpointStore",
                 traced_store(tracer, executor.CheckpointStore))
    for meth in ("_summarize", "_account", "_persist_bundles"):
        tracer.wrap(executor.CampaignRunner, meth, "campaign.executor")

    def count_snapshot(_result, _args):
        tracer.count("snapshots")

    tracer.wrap(guard, "clone_function", "opt.resilience.snapshot",
                after=count_snapshot)
    tracer.wrap(guard, "discard_snapshot", "opt.resilience.snapshot")

    def count_change(changed, _args):
        tracer.count("pass.applications")
        tracer.count("pass.changed", bool(changed))

    make_pipeline = CampaignSpec.make_pipeline

    def traced_make_pipeline(spec):
        pipeline = tracer.call("opt.pipeline.build", make_pipeline, spec)
        pipeline.run_on_function = tracer.traced(
            "opt.pipeline", pipeline.run_on_function)
        for p in pipeline.passes:
            p.run_on_function = tracer.traced(
                f"opt.pass.{p.name}", p.run_on_function, after=count_change)
        return pipeline

    tracer.patch(CampaignSpec, "make_pipeline", traced_make_pipeline)


def traced_campaign(tracer: Tracer, spec, out_dir: str):
    from repro.campaign import run_campaign

    install_campaign_trace(tracer)
    try:
        summary, _wall = tracer.root(run_campaign, spec, out_dir=out_dir)
    finally:
        tracer.restore()
    return summary


def layer_metrics(cold: Tracer, warm: Tracer, rounds: int,
                  stats: Dict[str, Dict[str, int]], dedup: Tuple[int, int],
                  overhead: float) -> Dict[str, float]:
    """Per-layer numbers per traced round (cold and warm phases summed)."""
    both = Tracer()
    for t in (cold, warm):
        for name, value in t.self_s.items():
            both.self_s[name] += value
        for name, value in t.calls.items():
            both.calls[name] += value
        for name, value in t.counts.items():
            both.counts[name] += value
        both.root_s += t.root_s
    n = max(1, rounds)

    def per_round(name: str) -> float:
        return both.self_s.get(name, 0.0) / n

    refine = stats.get("refine", {})
    perf = stats.get("perf", {})
    metrics = {
        "fuzz.enumerate_s": per_round("fuzz.enumerate"),
        "ir.print_s": per_round("ir.print"),
        "ir.parse_s": per_round("ir.parse"),
        "ir.verify_s": per_round("ir.verify"),
        "campaign.canon.hash_s": per_round("campaign.canon.hash"),
        "campaign.canon.dedup_s": per_round("campaign.canon.dedup"),
        "campaign.canon.dedup_hit_ratio": ratio(dedup[0],
                                                dedup[0] + dedup[1]),
        "opt.resilience.snapshot_s": per_round("opt.resilience.snapshot"),
        "opt.resilience.snapshots": both.counts["snapshots"] / n,
        "opt.pipeline.self_s": per_round("opt.pipeline"),
        "opt.pipeline.build_s": per_round("opt.pipeline.build"),
        "opt.pass.applications": both.counts["pass.applications"] / n,
        "opt.pass.changed_ratio": ratio(both.counts["pass.changed"],
                                        both.counts["pass.applications"]),
        "refine.check_s": per_round("refine.check"),
        "refine.vector_ratio": ratio(refine.get("num-vector-checks", 0),
                                     refine.get("num-checks", 0)),
        "refine.inputs_checked": both.counts["refine.inputs"] / n,
        "perf.memo.load_s": per_round("perf.memo.load"),
        "perf.memo.lookup_s": per_round("perf.memo.lookup"),
        "perf.memo.record_s": per_round("perf.memo.record"),
        "perf.memo.flush_s": per_round("perf.memo.flush"),
        "perf.memo.hit_ratio": ratio(
            perf.get("num-memo-hits", 0),
            perf.get("num-memo-hits", 0) + perf.get("num-memo-misses", 0)),
        "campaign.checkpoint.append_s": per_round(
            "campaign.checkpoint.append"),
        "campaign.checkpoint.manifest_s": per_round(
            "campaign.checkpoint.manifest"),
        "campaign.checkpoint.bytes": both.counts["checkpoint.bytes"] / n,
        "campaign.worker.self_s": per_round("campaign.worker"),
        "diag.stats_snapshot_s": per_round("diag.stats_snapshot"),
        "campaign.shard.self_s": per_round("campaign.shard"),
        "campaign.executor.self_s": per_round("campaign.executor"),
        "bench.named_ratio": ratio(both.named_s, both.root_s),
        "bench.unattributed_s": (both.root_s - both.named_s) / n,
        "bench.warm.named_ratio": ratio(warm.named_s, warm.root_s),
        "bench.warm.unattributed_s": (warm.root_s - warm.named_s) / n,
        "bench.trace_overhead_ratio": overhead,
    }
    for name in O2_PASSES:
        metrics[f"opt.pass.{name}_s"] = per_round(f"opt.pass.{name}")
    return metrics


def _merge_stats(dest: Dict[str, Dict[str, int]], stats) -> None:
    for group, counters in (stats or {}).items():
        bucket = dest.setdefault(group, {})
        for name, value in counters.items():
            bucket[name] = bucket.get(name, 0) + value


# -- the run -------------------------------------------------------------------------
@dataclass
class Round:
    spec: object
    cold: object
    warm: object
    #: (wall seconds, normalized seconds) of each phase
    cold_s: tuple
    warm_s: tuple


def functions(summary) -> int:
    return summary.checked + summary.dedup_hits + failed_functions(summary)


def run(seed: int, seconds: float, trace: bool, quick: bool,
        work: str) -> Result:
    from repro.campaign import run_campaign

    count = QUICK_COUNT if quick else FULL_COUNT
    min_rounds = 1 if quick else 3
    result = Result()
    result.inputs_digest = inputs_digest(seed, count)
    clock = SpeedClock()
    setup_wall, setup = clock.child_setup(_SETUP_CODE.format(count=count, seed=seed),
                              1 if quick else SETUP_SAMPLES)

    seeds = round_seeds(seed)
    rounds = []
    cold_tracer, warm_tracer = Tracer(), Tracer()
    traced_stats: Dict[str, Dict[str, int]] = {}
    traced_dedup = [0, 0]
    traced_norm = untraced_norm = 0.0
    started = time.perf_counter()
    while (len(rounds) < min_rounds
           or time.perf_counter() - started < seconds):
        index = len(rounds)
        spec = make_spec(next(seeds), count)
        base = os.path.join(work, f"round{index}")
        settle()
        cold, *cold_s = clock.timed(run_campaign, spec,
                                    out_dir=os.path.join(base, "cold"))
        warm, *warm_s = clock.timed(
            run_campaign,
            spec.with_(cache_dir=os.path.join(base, "cold", "memo")),
            out_dir=os.path.join(base, "warm"))
        rounds.append(Round(spec, cold, warm, tuple(cold_s), tuple(warm_s)))
        if not trace:
            continue
        settle()
        tbase = os.path.join(work, f"traced{index}")
        tcold, _, tcold_norm = clock.timed(
            traced_campaign, cold_tracer, spec, os.path.join(tbase, "cold"))
        twarm, _, twarm_norm = clock.timed(
            traced_campaign, warm_tracer,
            spec.with_(cache_dir=os.path.join(tbase, "cold", "memo")),
            os.path.join(tbase, "warm"))
        traced_norm += tcold_norm + twarm_norm
        untraced_norm += cold_s[1] + warm_s[1]
        for phase, traced, plain in (("cold", tcold, cold),
                                     ("warm", twarm, warm)):
            result.mismatches += compare_verdicts(
                f"round {index} traced {phase}",
                traced.verdict_lines(), plain.verdict_lines())
            _merge_stats(traced_stats, traced.stats)
            traced_dedup[0] += traced.dedup_hits
            traced_dedup[1] += traced.checked
    rss = peak_rss_self_mb()

    for index, r in enumerate(rounds):
        result.mismatches += check_round(index, r.spec, r.cold, r.warm)

    cold_fns = sum(functions(r.cold) for r in rounds)
    warm_fns = sum(functions(r.warm) for r in rounds)
    failed = sum(failed_functions(r.cold) + failed_functions(r.warm)
                 for r in rounds)
    decided = sum(r.cold.verified + r.cold.failed for r in rounds)
    concluded = sum(r.cold.checked + len(r.cold.crashes) for r in rounds)
    result.attempted = cold_fns + warm_fns
    result.failed = failed

    def rate(phase: str, which: int) -> float:
        return median([ratio(functions(getattr(r, phase)),
                             getattr(r, phase + "_s")[which])
                       for r in rounds])

    if trace:
        result.metrics = layer_metrics(
            cold_tracer, warm_tracer, len(rounds), traced_stats,
            tuple(traced_dedup), ratio(traced_norm, untraced_norm))
        result.metrics["bench.probe_ms"] = clock.probe_ms
    else:
        result.metrics = {
            "setup_s": median(setup),
            "ops_per_s": rate("cold", 1),
            "warm_ops_per_s": rate("warm", 1),
            "p50_ms": median([r.cold_s[1] for r in rounds]) * 1000.0,
            "peak_rss_mb": rss,
            "decided_ratio": ratio(decided, concluded),
            "success_ratio": 1.0 - ratio(failed, result.attempted),
        }
    # what a user reads off the wall clock on this machine, unscaled
    result.name("fns_per_s", rate("cold", 0), "1/s", cold_fns)
    result.name("warm_fns_per_s", rate("warm", 0), "1/s", warm_fns)
    result.name("decided_ratio", ratio(decided, concluded), "ratio",
                concluded)
    result.name("failed_ratio", ratio(failed, result.attempted), "ratio",
                result.attempted)
    result.name("setup_s", median(setup_wall), "s", len(setup))
    result.name("peak_rss_mb", rss, "MB", 1)
    result.notes = {
        "rounds": len(rounds), "functions_per_round": count,
        "probe_ms": clock.probe_ms,
        "cold_round_s": [round(r.cold_s[0], 4) for r in rounds],
        "warm_round_s": [round(r.warm_s[0], 4) for r in rounds],
        "dedup_hits": sum(r.cold.dedup_hits for r in rounds),
    }
    return result
