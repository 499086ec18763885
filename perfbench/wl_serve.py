"""Workload ``serve-mixed``: a ``repro serve`` subprocess under a
closed loop of two connections.

The server runs from the checkout's sources with a fresh
``--memo-dir``.  Two client threads, each with its own
:class:`repro.serve.ServeClient`, send requests back to back (callers
of a validation service each wait for their reply, so the loop is
closed; there is no think time).  The request mix is mostly ``refine``
(o2, fixed config), plus ``refine`` with ``opt_config: legacy`` (OLD
semantics, whose undef inputs only the scalar engine decides), ``lint``
and ``optimize``.  Sources are drawn with replacement from a
seeded pool of mixed sizes, so the shared memo warms during the run.

Phase 1 is the measured closed loop (60% of the run).  Phase 2 replays
each connection's phase-1 sequence against the now-warm server.  Both
run in one-second slices with a speed probe between slices, so each
slice's figures can be rescaled to the reference machine.  Untimed
afterwards, every response is compared with the batch path run
in-process on the same source and spec: ``check_source`` for refine,
``lint_module`` for lint, the same pipeline for optimize.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Tuple

from common import (
    ROOT,
    Result,
    SpeedClock,
    digest,
    median,
    peak_rss_pid_mb,
    percentile,
    probe,
    program_env,
    ratio,
    tail_beyond,
)

NAME = "serve-mixed"
CONNECTIONS = 2
SETUP_SAMPLES = 5
#: share of the run's seconds given to the phase-1 closed loop
PHASE1_SHARE = 0.6

#: (pool entries, generator shape); the first group is the paper's
#: section 6 shape and the only one legacy refines draw from.
FULL_POOL = ((48, dict(num_instructions=3, width=2)),
             (24, dict(num_instructions=4, width=3)),
             (24, dict(num_instructions=6, width=2)))
QUICK_POOL = ((6, dict(num_instructions=3, width=2)),
              (3, dict(num_instructions=4, width=3)),
              (3, dict(num_instructions=6, width=2)))

#: (op, cumulative probability)
MIX = (("refine", 0.65), ("refine-legacy", 0.75), ("lint", 0.90),
       ("optimize", 1.0))


def make_pool(seed: int, quick: bool) -> Tuple[List[str], int]:
    """Seeded source pool; returns ``(sources, legacy_prefix)``."""
    from repro.fuzz import random_functions
    from repro.ir import print_module

    rng = random.Random(f"{NAME}:pool:{seed}")
    sources: List[str] = []
    groups = QUICK_POOL if quick else FULL_POOL
    for count, shape in groups:
        sources += [print_module(fn.module)
                    for fn in random_functions(count, rng=rng, **shape)]
    return sources, groups[0][0]


def draw(rng: random.Random, pool_size: int, legacy_prefix: int):
    x = rng.random()
    op = next(name for name, edge in MIX if x < edge)
    limit = legacy_prefix if op == "refine-legacy" else pool_size
    return op, rng.randrange(limit)


# -- the server process ---------------------------------------------------------
class Server:
    """One ``python -m repro serve`` child, bound to an ephemeral port."""

    def __init__(self, work: str, tag: str):
        from repro.serve import ServeClient, ServeError

        self._log = open(os.path.join(work, f"server-{tag}.log"), "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--memo-dir",
             os.path.join(work, f"memo-{tag}")],
            stdout=subprocess.PIPE, stderr=self._log, env=program_env(),
            cwd=ROOT)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline().decode() if ready else ""
            if "listening on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            address = line.split("listening on ", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
            while True:
                try:
                    with ServeClient(port=self.port, timeout=30) as client:
                        client.ping()
                    break
                except ServeError:
                    if time.perf_counter() - started > 60:
                        raise
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def get(self, path: str) -> str:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read().decode("utf-8")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def scrape(server: Server) -> dict:
    """Handler-time sum from ``/metrics``; batch counters from ``/stats``."""
    handler_sum = handler_count = 0.0
    for line in server.get("/metrics").splitlines():
        if line.startswith("repro_serve_request_seconds_sum "):
            handler_sum = float(line.split()[1])
        elif line.startswith("repro_serve_request_seconds_count "):
            handler_count = float(line.split()[1])
    serve = json.loads(server.get("/stats"))["stats"].get("serve", {})
    return {"handler_s": handler_sum, "handled": handler_count,
            "batches": serve.get("num-batches", 0),
            "batched": serve.get("num-batched-functions", 0)}


# -- the closed loop -------------------------------------------------------------
def send(client, op: str, source: str):
    """One request; returns the response key compared with the batch
    path and whether the memo answered."""
    if op == "lint":
        done = client.lint(source)
        return ("lint", done["findings"], done["worst"]), False
    if op == "optimize":
        done = client.optimize(source, pipeline="o2")
        return ("optimize", _ir_key(done["ir"])), False
    config = "legacy" if op == "refine-legacy" else "fixed"
    done = client.refine(source, pipeline="o2", opt_config=config)
    return ("refine", tuple(done["verdict_lines"])), bool(done["cached"])


def _ir_key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def connection(port: int, plan, sources, seconds: float, log: list) -> None:
    """Send ``plan`` items back to back until it ends or time is up;
    appends ``(op, index, latency, key, cached, error)`` to ``log``."""
    from repro.serve import ServeClient, ServeError

    client = ServeClient(port=port, timeout=120)
    deadline = time.perf_counter() + seconds
    try:
        for op, index in plan:
            if time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            try:
                key, cached = send(client, op, sources[index])
                error = ""
            except ServeError as e:
                key, cached, error = None, False, e.code
                client.close()
            except (KeyError, IndexError, TypeError) as e:
                # a malformed reply is a failed request, not a lost one
                key, cached, error = None, False, f"bad-reply: {e!r}"
                client.close()
            log.append((op, index, time.perf_counter() - t0, key, cached,
                        error))
    finally:
        client.close()


def closed_loop(port: int, plans, sources, seconds: float):
    """All connections at once; returns ``(per-connection logs, wall)``."""
    logs: List[list] = [[] for _ in plans]
    threads = [threading.Thread(target=connection,
                                args=(port, plan, sources, seconds, log))
               for plan, log in zip(plans, logs)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return logs, time.perf_counter() - t0


def sliced_loop(port: int, plans, sources, seconds: float,
                clock: SpeedClock):
    """The closed loop in one-second slices, with a speed probe between
    slices while no request is in flight (a probe taken under load
    reads the benchmark's own contention, not the host's).  Returns the
    per-connection logs, each entry extended by its slice's reference
    seconds per measured second, and ``(completed, wall, factor)`` per
    slice."""
    logs: List[list] = [[] for _ in plans]
    slices = []
    end = time.perf_counter() + seconds
    before = probe()
    while time.perf_counter() < end:
        part, wall = closed_loop(port, plans, sources,
                                 min(1.0, end - time.perf_counter()))
        after = probe()
        factor = clock.factor(before, after)
        before = after
        for log, new in zip(logs, part):
            log.extend(entry + (factor,) for entry in new)
        done = sum(1 for new in part for e in new if not e[5])
        slices.append((done, wall, factor))
    return logs, slices


def endless_plan(seed: int, k: int, pool_size: int, legacy_prefix: int):
    rng = random.Random(f"{NAME}:{seed}:conn{k}")
    while True:
        yield draw(rng, pool_size, legacy_prefix)


# -- correctness ------------------------------------------------------------------
def reference_key(op: str, source: str):
    """The batch path's answer for one request, computed in-process."""
    from repro.campaign import CampaignSpec
    from repro.campaign.worker import check_source
    from repro.ir import parse_module, print_module, verify_module
    from repro.lint import lint_module
    from repro.lint.diagnostics import severity_rank

    if op == "lint":
        diags = lint_module(parse_module(source), rules=None,
                            file="<request>")
        worst = (max((d.severity for d in diags), key=severity_rank)
                 if diags else "")
        return ("lint", len(diags), worst)
    config = "legacy" if op == "refine-legacy" else "fixed"
    spec = CampaignSpec(pipeline="o2", opt_config=config, policy="recover")
    if op == "optimize":
        module = parse_module(source)
        spec.make_pipeline().run(module)
        verify_module(module)
        return ("optimize", _ir_key(print_module(module)))
    outcome = check_source(spec, source)
    return ("refine", (f"{outcome['hash']} {outcome['verdict']}",))


def check_responses(entries, reference: Dict[tuple, tuple]) -> List[str]:
    problems = []
    for op, index, _latency, key, _cached, error, _factor in entries:
        if error:
            problems.append(f"{op} #{index}: error response [{error}]")
        elif key != reference[(op, index)]:
            problems.append(f"{op} #{index}: served {key} != batch "
                            f"{reference[(op, index)]}")
    return problems


# -- the run -----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, quick: bool,
        work: str) -> Result:
    sources, legacy_prefix = make_pool(seed, quick)
    result = Result()
    result.inputs_digest = digest(sources)

    clock = SpeedClock()
    setup_wall: List[float] = []
    setup: List[float] = []
    server = None
    for sample in range(1 if quick else SETUP_SAMPLES):
        if server is not None:
            server.stop()
        before = probe()
        server = Server(work, f"s{sample}")
        setup_wall.append(server.setup_s)
        setup.append(server.setup_s * clock.factor(before, probe()))
    try:
        plans = [endless_plan(seed, k, len(sources), legacy_prefix)
                 for k in range(CONNECTIONS)]
        phase1, slices1 = sliced_loop(server.port, plans, sources,
                                      seconds * PHASE1_SHARE, clock)
        t0 = time.perf_counter()
        scraped = scrape(server) if trace else {}
        scrape_s = time.perf_counter() - t0
        replays = [[(op, index) for op, index, *_ in log] for log in phase1]
        phase2, slices2 = sliced_loop(server.port, replays, sources,
                                      seconds * (1 - PHASE1_SHARE), clock)
        rss = peak_rss_pid_mb(server.proc.pid)
    finally:
        server.stop()

    first = [e for log in phase1 for e in log]
    second = [e for log in phase2 for e in log]
    everything = first + second
    reference = {key: reference_key(key[0], sources[key[1]])
                 for key in sorted({(e[0], e[1]) for e in everything})}
    result.mismatches = check_responses(everything, reference)

    failed = sum(1 for e in everything if e[5])
    refines = [e for e in everything if e[0].startswith("refine")]
    decided = sum(1 for e in refines if e[3] is not None
                  and e[3][1][0].split(" ", 1)[1] in ("verified", "failed"))
    result.attempted = len(everything)
    result.failed = failed
    latencies = [e[2] for e in first]
    wall1 = sum(wall for _, wall, _ in slices1)

    def rate(slices, scaled: bool) -> float:
        """Median completions per second over the slices."""
        return median([ratio(done, wall * (factor if scaled else 1.0))
                       for done, wall, factor in slices])

    def p50(ops) -> float:
        return median([e[2] for e in first if e[0] in ops]) * 1000.0

    if trace:
        client_sum = sum(latencies)
        handler = scraped["handler_s"]
        refined = [e for e in first if e[0].startswith("refine")]
        result.metrics = {
            "serve.requests": len(first),
            "serve.refine.p50_ms": p50(("refine", "refine-legacy")),
            "serve.lint.p50_ms": p50(("lint",)),
            "serve.optimize.p50_ms": p50(("optimize",)),
            "serve.p99_ms": percentile(latencies, 99) * 1000.0,
            "serve.handler_s": handler,
            "serve.outside_handler_s": client_sum - handler,
            "serve.batch.mean_size": ratio(scraped["batched"],
                                           scraped["batches"]),
            "serve.memo.hit_ratio": ratio(sum(1 for e in refined if e[4]),
                                          len(refined)),
            "bench.named_ratio": ratio(handler, client_sum),
            "bench.unattributed_s": client_sum - handler,
            "bench.trace_overhead_ratio": ratio(wall1 + scrape_s, wall1),
            "bench.probe_ms": clock.probe_ms,
        }
    else:
        result.metrics = {
            "setup_s": median(setup),
            "ops_per_s": rate(slices1, True),
            "warm_ops_per_s": rate(slices2, True),
            "p50_ms": median([e[2] * e[6] for e in first]) * 1000.0,
            "peak_rss_mb": rss,
            "decided_ratio": ratio(decided, len(refines)),
            "success_ratio": 1.0 - ratio(failed, len(everything)),
        }
    # what a user reads off the wall clock on this machine, unscaled
    result.name("serve_rps", rate(slices1, False), "1/s", len(first))
    result.name("serve_p50_ms", median(latencies) * 1000.0, "ms",
                len(latencies))
    result.name("serve_p99_ms", percentile(latencies, 99) * 1000.0, "ms",
                len(latencies))
    result.name("refine_p50_ms", p50(("refine", "refine-legacy")), "ms",
                sum(1 for e in first if e[0].startswith("refine")))
    result.name("warm_rps", rate(slices2, False), "1/s", len(second))
    result.name("decided_ratio", ratio(decided, len(refines)), "ratio",
                len(refines))
    result.name("failed_ratio", ratio(failed, len(everything)), "ratio",
                len(everything))
    result.name("setup_s", median(setup_wall), "s", len(setup))
    result.name("peak_rss_mb", rss, "MB", 1)
    result.notes = {
        "p99_samples_beyond": tail_beyond(len(latencies), 99),
        "pool": len(sources),
        "probe_ms": clock.probe_ms,
        "ops": {op: sum(1 for e in first if e[0] == op)
                for op, _ in MIX},
    }
    return result
