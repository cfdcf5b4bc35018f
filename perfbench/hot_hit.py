"""``hot-hit``: a warmed Zipf hotspot mix, so ``serving`` does the work.

The 1,142-vertex rung again, but every request comes from a pool of
hotspot OD pairs small enough to fit both caches, warmed during set-up
(the warm-up counts in ``setup_s``).  Candidate generation never runs
in the measured part, which makes this the no-change control for any
``graph`` claim: queueing, the flush deadline, cache lookups and
assembly are what it measures.

One thread drives an open loop: Poisson arrivals at each rate of a
fixed ladder, each request timed from its due time.  Latency metrics
pool the whole ladder, which puts about a hundred samples beyond the
p99 at the benchmark's run length.  The pool is fixed like the cold
pool; the seed draws the popularity order, the request mix and the
arrival times.

The workload runs, but ``BENCHMARK.json`` leaves it out: its p99
follows the host's scheduling stalls rather than the program (see
``README.md``).
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.graph.csr import csr_for
from repro.serving.loadgen import poisson_arrivals, zipf_weights
from repro.serving.service import RankRequest, ServingConfig

import common
import hostspeed
import probes
import serving_runs
import spans
import stats

TOWNS = 40
POOL_SIZE = 8
POOL_SEED = 2284
#: Hotspots are commutes of 5-10 km by road.
MIN_METRES, MAX_METRES = 5000.0, 10000.0
MODEL_SEED = 7
ZIPF_EXPONENT = 1.1
SETUP_REPS = 3
#: The fixed ladder of offered rates (requests per second).
LADDER_QPS = (100.0, 300.0, 800.0)
#: Tail latency limit a rung must meet to count toward ``slo_qps``.
#: Tails here are a few milliseconds; the limit sits far enough above
#: them that a host scheduling stall does not fail a rung, while a
#: serving regression that queues requests does.
LIMIT_MS = 100.0


def run(seed: int, seconds: float, trace: bool,
        workdir: common.Workdir) -> tuple[common.Outcome, dict]:
    out = common.Outcome()
    pool = common.sample_pairs(common.rung(TOWNS), POOL_SIZE,
                               np.random.default_rng(POOL_SEED), MIN_METRES,
                               MAX_METRES)
    warmup = [RankRequest(source, target) for source, target in pool]
    # The meter runs during set-up only: its thread would take the
    # interpreter lock in the middle of the millisecond-scale requests.
    with hostspeed.HostSpeed() as speed:
        ready, setups, publishes = serving_runs.stand_up_reps(
            SETUP_REPS, TOWNS, MODEL_SEED, workdir, warmup, speed)
    # The last set-up's engine is warm: the caches hold the whole pool,
    # so every measured request is a hit in both.
    service, engine = ready.service, ready.engine
    popularity = common.permuted(pool, common.seeded(seed, 1))
    weights = zipf_weights(len(pool), ZIPF_EXPONENT)
    mix_rng = common.seeded(seed, 2)
    arrival_rng = common.seeded(seed, 3)
    next_id = [0]

    def ladder(rung_s):
        rungs = []
        for qps in LADDER_QPS:
            count = max(1, int(qps * rung_s))
            picks = mix_rng.choice(len(pool), size=count, p=weights)
            requests = []
            for index in picks:
                next_id[0] += 1
                requests.append(RankRequest(*popularity[int(index)],
                                            request_id=next_id[0]))
            arrivals = poisson_arrivals(count, qps, rng=arrival_rng)
            rungs.append(serving_runs.open_loop(engine, requests, arrivals,
                                                qps, out.ledger))
        return rungs

    rung_s = (seconds / 2.0 if trace else seconds) / len(LADDER_QPS)
    rungs = ladder(rung_s)

    layers: dict = {}
    if trace:
        tracer = spans.Tracer()
        kernel = csr_for(ready.network)
        before = kernel.profile_counters()
        caches, flushes = common.cache_counts(service), \
            common.occupancy(engine)
        with probes.library_probes(tracer), \
                probes.service_probes(tracer, service):
            t_rungs = ladder(rung_s)
        delta = common.counter_delta(before, kernel.profile_counters())
        latency = {}
        for rung in t_rungs:
            latency.update(rung.served.latency_ms)
        layers.update(common.graph_layer(tracer, delta))
        layers.update(common.serving_layer(
            tracer, latency, [caches], [common.cache_counts(service)],
            [flushes], [common.occupancy(engine)]))
        layers["loadgen.late_p99_ms"] = stats.percentile(
            [ms for rung in t_rungs for ms in rung.late_ms], 99.0)
        layers["bench.trace_overhead"] = (
            _mean_latency(t_rungs) / _mean_latency(rungs))

    engine.close()
    responses = {}
    for rung in rungs:
        responses.update(rung.served.responses)
    sample_rid = int(common.seeded(seed, 4).choice(sorted(responses)))
    taus = serving_runs.check_sample(ready, responses, [sample_rid],
                                     out.ledger, ServingConfig().candidates)

    completed = sum(len(r.served.latency_ms) for r in rungs)
    elapsed = sum(r.served.elapsed_s for r in rungs)
    summaries = [r.summary(LIMIT_MS) for r in rungs]
    m = out.metrics
    m["setup_s"] = statistics.median(setups)
    m["fit_s"] = statistics.median(publishes)
    m["qps"] = completed / elapsed
    common.fill_latency(m, [ms for r in rungs
                            for ms in r.served.latency_ms.values()])
    m["slo_qps"] = stats.slo_rate(summaries, LIMIT_MS)
    m["cpu_ms_per_req"] = \
        sum(r.served.cpu_s for r in rungs) * 1000.0 / completed
    m["tau"] = common.mean_or(taus)
    m["job_s"] = elapsed
    late = [ms for r in rungs for ms in r.late_ms]
    out.notes.append(
        "rungs: " + ", ".join(
            f"{s['offered_qps']:.0f}/s tail {s['tail_ms']:.2f} ms"
            f"{' backlog' if s['backlog'] else ''}" for s in summaries)
        + f"; generator late p99 {stats.percentile(late, 99.0):.2f} ms")
    return out, layers


def _mean_latency(rungs) -> float:
    return statistics.fmean(ms for rung in rungs
                            for ms in rung.served.latency_ms.values())
