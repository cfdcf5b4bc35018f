"""Inputs, the reference oracle and metric reduction shared by workloads.

Every workload runs on a rung of the ``north_jutland_like(seed=11)``
ladder.  The program sees only the generated inputs; the benchmark's
``--seed`` drives the request streams drawn from them.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path as FilePath

import numpy as np

from repro.core.ranker import (PathRankRanker, RankerConfig,
                               generate_candidates, rank_paths)
from repro.core.variants import build_pathrank
from repro.errors import NoPathError
from repro.graph.builders import north_jutland_like
from repro.graph.csr import use_routing_backend
from repro.graph.shortest_path import shortest_path_cost
from repro.ranking.metrics import kendall_tau

import spans
import stats

#: The ladder's network seed, fixed for every workload and every run.
NETWORK_SEED = 11

#: Score agreement required between the served ranking and the oracle.
SCORE_TOLERANCE = 1e-6

#: End-to-end metrics, in the order they are printed.
END_TO_END = {
    "setup_s": "s", "qps": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "slo_qps": "1/s", "cpu_ms_per_req": "ms",
    "success_rate": "ratio", "fit_s": "s", "tau": "tau", "job_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run.  Every workload reports all of
#: them; a layer the workload does not reach reads 0.
PER_LAYER = {
    "graph.candidates.ms_p50": "ms",
    "graph.candidates.ms_mean": "ms",
    "graph.candidates.examined": "count",
    "graph.candidates.kept_per_examined": "ratio",
    "graph.candidates.limit_hit_share": "ratio",
    "graph.kernel.spur_searches": "count",
    "graph.kernel.settled": "count",
    "graph.kernel.heap_pops": "count",
    "graph.busy_share": "ratio",
    "serving.admit.ms": "ms",
    "serving.prepare_hit.ms": "ms",
    "serving.prepare_miss.ms": "ms",
    "serving.score_states.ms": "ms",
    "serving.assemble.ms": "ms",
    "serving.wait.ms": "ms",
    "serving.candidate_cache.hit_rate": "ratio",
    "serving.score_cache.hit_rate": "ratio",
    "serving.engine.requests_per_flush": "count",
    "serving.engine.paths_per_flush": "count",
    "loadgen.late_p99_ms": "ms",
    "core.encode.ms": "ms",
    "nn.forward.ms": "ms",
    "nn.forward.paths_per_call": "count",
    "embedding.walks_s": "s",
    "embedding.skipgram_s": "s",
    "ranking.generate_queries_s": "s",
    "core.trainer.epoch_s": "s",
    "analytics.od_matrix_s": "s",
    "analytics.od_pairs_ch_s": "s",
    "analytics.service_area_s": "s",
    "analytics.route_frequencies_s": "s",
    "analytics.od_matrix.sssp_runs": "count",
    "analytics.od_matrix.settled": "count",
    "analytics.od_pairs_ch.sssp_runs": "count",
    "analytics.od_pairs_ch.settled": "count",
    "analytics.service_area.sssp_runs": "count",
    "analytics.service_area.settled": "count",
    "analytics.route_frequencies.sssp_runs": "count",
    "analytics.route_frequencies.settled": "count",
    "bench.trace_overhead": "ratio",
    "bench.fail_rate": "ratio",
    "bench.tail_percentile": "pct",
    "bench.latency_samples": "count",
}


@dataclass
class Outcome:
    """What one workload run measured, before it is printed."""

    ledger: stats.Ledger = field(default_factory=stats.Ledger)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.ledger.failed == 0 and self.ledger.attempted > 0


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: FilePath) -> None:
        self.path = root / ".perfbench_work" / f"run-{time.time_ns()}"
        self._count = 0

    def fresh(self) -> FilePath:
        self._count += 1
        path = self.path / f"{self._count:03d}"
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def units(seconds: float, unit_s: float) -> int:
    """How many fixed work units make a run of about ``seconds``.

    Each workload repeats a fixed unit of work (a pass, a job, a fit)
    whose typical duration ``unit_s`` was measured on a 2-core host.
    Deriving the count from ``--seconds`` rather than from the clock
    keeps the work, and so the sample count and the tail percentile it
    allows, the same on every run.
    """
    return max(1, round(seconds / unit_s))


def rung(towns: int):
    """One ladder rung: a fresh network object (no kernels built yet)."""
    return north_jutland_like(num_towns=towns, seed=NETWORK_SEED)


def sample_pairs(network, count: int, rng, min_metres: float,
                 max_metres: float = math.inf) -> list[tuple[int, int]]:
    """``count`` distinct reachable OD pairs, ``min_metres`` to
    ``max_metres`` apart by road."""
    ids = network.vertex_ids()
    taken = set()
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        source, target = (int(v) for v in rng.choice(ids, size=2,
                                                     replace=False))
        if (source, target) in taken:
            continue
        try:
            metres = shortest_path_cost(network, source, target)
        except NoPathError:
            continue
        if not min_metres <= metres <= max_metres:
            continue
        taken.add((source, target))
        pairs.append((source, target))
    return pairs


def random_ranker(network, seed: int) -> PathRankRanker:
    """A ranker with randomly initialised weights at the default sizes.

    Serving cost does not depend on weight quality, so the serving
    workloads publish an untrained model of the default architecture.
    """
    config = RankerConfig()
    ranker = PathRankRanker(network, config)
    ranker.model = build_pathrank(
        config.variant, num_vertices=network.num_vertices,
        embedding_dim=config.embedding_dim, hidden_size=config.hidden_size,
        fc_hidden=config.fc_hidden, bidirectional=config.bidirectional,
        pooling=config.pooling, rng=seed)
    return ranker


def oracle_ranking(network, model, source, target, candidates_config):
    """The reference ranking: dict routing backend, module scoring."""
    with use_routing_backend("dict"):
        paths = generate_candidates(network, source, target,
                                    candidates_config)
    scores = model.score_paths(paths, backend="module")
    return rank_paths(paths, scores)


def check_ranking(label: str, served, reference,
                  ledger: stats.Ledger) -> float | None:
    """Compare a ranking (``(path, score)`` pairs) with the oracle's.

    Candidate order must match exactly and scores within
    :data:`SCORE_TOLERANCE`.  A mismatch is recorded in ``ledger``.
    Returns Kendall's tau between served and reference scores in
    candidate order (``None`` when the ranking mismatched).
    """
    if [p.vertices for p, _ in served] != [p.vertices for p, _ in reference]:
        ledger.mismatch(f"oracle: {label} candidate order differs")
        return None
    worst = max((abs(a - b) for (_, a), (_, b) in zip(served, reference)),
                default=0.0)
    if worst > SCORE_TOLERANCE:
        ledger.mismatch(f"oracle: {label} score differs by {worst:.3g}")
        return None
    if len(served) < 2:
        return 1.0
    return kendall_tau([b for _, b in reference], [a for _, a in served])


def check_response(response, reference, ledger: stats.Ledger) -> float | None:
    """:func:`check_ranking` for a served :class:`RankResponse`."""
    label = f"{response.request.source}->{response.request.target}"
    if response.served_by != "model":
        ledger.mismatch(f"oracle: {label} served by {response.served_by}")
        return None
    return check_ranking(label, [(r.path, r.score) for r in response.results],
                         reference, ledger)


def mean_or(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.fmean(values) if values else default


def fill_latency(metrics: dict, latencies_ms) -> None:
    """Median/tail end-to-end metrics plus the tail's percentile and count."""
    summary = stats.latency_summary(latencies_ms)
    metrics["latency_p50_ms"] = summary["p50_ms"]
    metrics["latency_tail_ms"] = summary["tail_ms"]
    metrics["bench.tail_percentile"] = summary["tail_pct"]
    metrics["bench.latency_samples"] = summary["samples"]


# ----------------------------------------------------------------------
# Per-layer reduction of a traced run
# ----------------------------------------------------------------------
def graph_layer(tracer: spans.Tracer, kernel_delta: dict) -> dict:
    """``graph.*`` from candidate spans and kernel counter deltas."""
    found = tracer.named("graph.candidates")
    out: dict[str, float] = {}
    if found:
        ms = [span.duration * 1000.0 for span in found]
        examined = sum(span.attrs["examined"] for span in found)
        out["graph.candidates.ms_p50"] = stats.percentile(ms, 50.0)
        out["graph.candidates.ms_mean"] = statistics.fmean(ms)
        out["graph.candidates.examined"] = examined / len(found)
        out["graph.candidates.kept_per_examined"] = \
            sum(span.attrs["kept"] for span in found) / max(examined, 1)
        out["graph.candidates.limit_hit_share"] = \
            sum(1 for span in found if span.attrs["limit_hit"]) / len(found)
        for key, name in (("yen_spur_searches", "spur_searches"),
                          ("settled", "settled"),
                          ("heap_pops", "heap_pops")):
            out[f"graph.kernel.{name}"] = \
                kernel_delta.get(key, 0) / len(found)
    busy = spans.root_busy(tracer.spans)
    graph_time = sum(seconds for name, seconds
                     in spans.self_times(tracer.spans).items()
                     if name.startswith("graph."))
    out["graph.busy_share"] = graph_time / busy if busy else 0.0
    return out


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def cache_counts(service) -> dict:
    """``{cache: (hits, misses)}`` of a service's candidate/score caches."""
    view = service.stats()
    return {cache: (view[cache].get("hits", 0), view[cache].get("misses", 0))
            for cache in ("candidate_cache", "score_cache")}


def occupancy(engine) -> tuple[int, int, float]:
    """``(flushes, requests, paths)`` the engine's flushes scored so far."""
    view = engine.occupancy.as_dict()
    return (view["flushes"], view["requests_coalesced"],
            view["mean_paths_per_flush"] * view["flushes"])


def serving_layer(tracer: spans.Tracer, latency_by_rid: dict,
                  cache_before: list, cache_after: list,
                  occupancy_before: list, occupancy_after: list) -> dict:
    """``serving.*`` and ``core``/``nn`` from stage spans and stats deltas.

    The ``*_before``/``*_after`` lists hold :func:`cache_counts` and
    :func:`occupancy` readings taken around the traced phase, one per
    service or engine it used (``None`` before means a fresh one).
    """
    out: dict[str, float] = {}
    for stage in ("admit", "prepare_hit", "prepare_miss", "score_states",
                  "assemble"):
        out[f"serving.{stage}.ms"] = mean_or(
            span.duration * 1000.0
            for span in tracer.named(f"serving.{stage}"))
    # Wait = latency not spent busy in a stage on the request's behalf:
    # inbox queueing, the flush deadline and thread scheduling.
    busy: dict[object, float] = {}
    for span in tracer.spans:
        if span.name in ("serving.admit", "serving.prepare_hit",
                         "serving.prepare_miss"):
            busy[span.rid] = busy.get(span.rid, 0.0) + span.duration
        elif span.name == "serving.score_states":
            for rid in span.attrs["rids"]:
                busy[rid] = busy.get(rid, 0.0) + span.duration
    out["serving.wait.ms"] = mean_or(
        max(0.0, latency - busy[rid] * 1000.0)
        for rid, latency in latency_by_rid.items() if rid in busy)
    for cache in ("candidate_cache", "score_cache"):
        hits = lookups = 0
        for before, after in zip(cache_before, cache_after):
            base = before[cache] if before else (0, 0)
            hit, miss = (after[cache][0] - base[0], after[cache][1] - base[1])
            hits += hit
            lookups += hit + miss
        out[f"serving.{cache}.hit_rate"] = hits / lookups if lookups else 0.0
    totals = [0.0, 0.0, 0.0]
    for before, after in zip(occupancy_before, occupancy_after):
        for i in range(3):
            totals[i] += after[i] - (before[i] if before else 0.0)
    flushes, requests, paths = totals
    out["serving.engine.requests_per_flush"] = \
        requests / flushes if flushes else 0.0
    out["serving.engine.paths_per_flush"] = paths / flushes if flushes else 0.0
    out.update(scoring_layer(tracer))
    return out


def scoring_layer(tracer: spans.Tracer) -> dict:
    forward = tracer.named("nn.forward")
    return {
        "core.encode.ms": mean_or(span.duration * 1000.0
                                  for span in tracer.named("core.encode")),
        "nn.forward.ms": mean_or(span.duration * 1000.0 for span in forward),
        "nn.forward.paths_per_call": mean_or(span.attrs["paths"]
                                             for span in forward),
    }


def per_layer(outcome: Outcome, measured: dict) -> dict:
    """Every per-layer metric, zero where the workload never reached it."""
    values = {name: 0.0 for name in PER_LAYER}
    values.update({k: v for k, v in measured.items() if k in PER_LAYER})
    values["bench.fail_rate"] = outcome.ledger.fail_rate
    for name in ("bench.tail_percentile", "bench.latency_samples"):
        values[name] = outcome.metrics.get(name, 0.0)
    return values


def finite(values) -> bool:
    return all(math.isfinite(value) for value in values)


def permuted(items, rng) -> list:
    return [items[int(i)] for i in rng.permutation(len(items))]


def seeded(seed: int, stream: int) -> np.random.Generator:
    """Independent generator ``stream`` of the run's seed."""
    return np.random.default_rng([seed, stream])
