"""``od-batch``: a fixed batch-analytics job on the 4,134-vertex rung.

Each job is twenty product requests through :class:`BatchAnalytics`,
each sized to take about 50 ms so that the median and the tail of
request latency do not flip between product kinds: eight 100 x 100 OD
matrices, five sparse pair sets of 400 pairs from distinct origins
(which the program answers through the contraction-hierarchy lane once
a hierarchy exists), two service-area requests of 40 sources and five
route-frequency requests of 10 pairs.  The weights are chosen so that
each product the workload exists for moves ``job_s`` past its bound:
multi-source sweeps (OD matrices and service areas) are about half of
a job, so a sweep twice as slow shows; the CH pair sets are about a
quarter, and answering them by sweeps instead costs about four times
as much, so a change that drops the CH lane shows although it also
takes contraction out of ``setup_s``.  Set-up builds the routing kernel
and the hierarchy, so contraction counts in ``setup_s``.  The seed
draws every origin, destination, source and pair.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.analytics import BatchAnalytics
from repro.errors import AnalyticsError
from repro.graph.csr import csr_for
from repro.graph.shortest_path import shortest_path_cost
from repro.obs.metrics import MetricsRegistry
from repro.ranking.metrics import kendall_tau

import common
import hostspeed
import probes
import spans
import stats

TOWNS = 200
OD_REQUESTS = 8
OD_SIDE = 100
CH_REQUESTS = 5
CH_PAIRS = 400
AREA_REQUESTS = 2
AREA_SOURCES = 40
AREA_BUDGETS = (2000.0, 5000.0, 10000.0)
FREQ_REQUESTS = 5
FREQ_PAIRS = 10
SETUP_REPS = 9
CHECK_CELLS = 12
#: Seconds of ``--seconds`` per job.  One job takes about 0.9 s on a
#: 2-core host; the rest of the run goes to the nine set-ups.
JOB_S = 1.5
#: Goodput limit for one product request.
LIMIT_MS = 5000.0

PRODUCTS = ("od_matrix", "od_pairs_ch", "service_area", "route_frequencies")


def _job_inputs(network, rng) -> list[tuple[str, dict]]:
    ids = network.vertex_ids()

    def draw(count):
        return [int(v) for v in rng.choice(ids, size=count, replace=False)]

    def pairs(count):
        sources, targets = draw(count), draw(count)
        return [(s, t) for s, t in zip(sources, targets) if s != t]

    requests = [("od_matrix", {"origins": draw(OD_SIDE),
                               "destinations": draw(OD_SIDE)})
                for _ in range(OD_REQUESTS)]
    requests += [("od_pairs_ch", {"pairs": pairs(CH_PAIRS)})
                 for _ in range(CH_REQUESTS)]
    requests += [("service_area", {"sources": draw(AREA_SOURCES)})
                 for _ in range(AREA_REQUESTS)]
    requests += [("route_frequencies", {"pairs": pairs(FREQ_PAIRS)})
                 for _ in range(FREQ_REQUESTS)]
    return requests


def _call(plane: BatchAnalytics, product: str, args: dict):
    if product == "od_matrix":
        return plane.od_cost_matrix(args["origins"], args["destinations"])
    if product == "od_pairs_ch":
        return plane.od_cost_pairs(args["pairs"])
    if product == "service_area":
        return plane.service_area(args["sources"], AREA_BUDGETS)
    return plane.route_frequencies(args["pairs"])


def _stand_up(warm_pair):
    """Fresh rung; the timed part builds the kernel and the hierarchy."""
    network = common.rung(TOWNS)
    began = time.perf_counter()
    plane = BatchAnalytics(network, metrics=MetricsRegistry())
    csr_for(network)
    contract_began = time.perf_counter()
    try:
        # Per-pair CH queries need the hierarchy; building it here keeps
        # contraction out of the first job.
        plane.od_cost_pairs([warm_pair], method="ch")
    except AnalyticsError:
        # No CH lane: the sparse pairs run on sweeps instead, which
        # costs far more job time than the contraction saved here.
        pass
    contract_s = time.perf_counter() - contract_began
    return network, plane, time.perf_counter() - began, contract_s


def run(seed: int, seconds: float, trace: bool,
        workdir: common.Workdir) -> tuple[common.Outcome, dict]:
    with hostspeed.HostSpeed() as speed:
        return _run(seed, seconds, trace, speed)


def _run(seed, seconds, trace, speed):
    out = common.Outcome()
    job_rng = common.seeded(seed, 1)
    warm_pair = tuple(int(v) for v in common.seeded(seed, 2).choice(
        common.rung(TOWNS).vertex_ids(), size=2, replace=False))
    setups, contracts = [], []
    network = plane = None
    for _ in range(SETUP_REPS):
        # Each set-up starts from a collected heap, with the previous
        # network gone.
        network = plane = None
        gc.collect()
        before = speed.probe()
        network, plane, setup_s, contract_s = _stand_up(warm_pair)
        factor = speed.scale(before, speed.probe())
        setups.append(setup_s * factor)
        contracts.append(contract_s * factor)
    kernel = csr_for(network)

    def job(tracer=None):
        """One job; each request's times scaled by its host-speed factor."""
        latency_ms, results = [], []
        elapsed_s = cpu_s = 0.0
        for product, args in _job_inputs(network, job_rng):
            cpu = time.process_time()
            t0 = time.perf_counter()
            if tracer is None:
                result = _call(plane, product, args)
            else:
                ch_before = _ch_counters(kernel)
                with tracer.span(f"analytics.{product}") as span:
                    result = _call(plane, product, args)
                span.attrs["ch"] = common.counter_delta(
                    ch_before, _ch_counters(kernel))
            t1 = time.perf_counter()
            wall_s = t1 - t0
            cpu = time.process_time() - cpu
            factor = speed.factor(t0, t1)
            latency_ms.append(wall_s * factor * 1000.0)
            elapsed_s += wall_s * factor
            cpu_s += cpu * factor
            results.append((product, args, result))
            out.ledger.ok()
        return {"latency_ms": latency_ms, "results": results,
                "elapsed_s": elapsed_s, "cpu_s": cpu_s}

    def jobs_of(count, tracer=None):
        """``count`` jobs; only the last keeps its products, for the checks.

        Dropping the others keeps the run's peak memory to what the
        program needs for one job, not what the benchmark hoards.
        """
        done = []
        for _ in range(count):
            if done:
                done[-1]["results"] = None
            done.append(job(tracer))
        return done

    count = common.units(seconds / 2.0 if trace else seconds, JOB_S)
    jobs = jobs_of(count)

    layers: dict = {}
    if trace:
        tracer = spans.Tracer()
        with probes.library_probes(tracer):
            traced = jobs_of(count, tracer)
        layers.update(_analytics_layers(tracer, len(traced)))
        layers.update(common.graph_layer(tracer, {}))
        layers["bench.trace_overhead"] = (
            statistics.fmean(j["elapsed_s"] for j in traced)
            / statistics.fmean(j["elapsed_s"] for j in jobs))

    taus = _check(out, network, jobs[-1]["results"], common.seeded(seed, 3))

    latencies = [ms for j in jobs for ms in j["latency_ms"]]
    elapsed = sum(j["elapsed_s"] for j in jobs)
    m = out.metrics
    m["setup_s"] = statistics.median(setups)
    m["fit_s"] = statistics.median(contracts)
    m["qps"] = len(latencies) / elapsed
    common.fill_latency(m, latencies)
    m["slo_qps"] = stats.goodput(latencies, elapsed, LIMIT_MS)
    m["cpu_ms_per_req"] = \
        sum(j["cpu_s"] for j in jobs) * 1000.0 / len(latencies)
    m["tau"] = common.mean_or(taus)
    m["job_s"] = statistics.median(j["elapsed_s"] for j in jobs)
    out.notes.append(f"{len(jobs)} jobs of {len(jobs[0]['latency_ms'])} "
                     f"product requests on {network.num_vertices} vertices")
    out.notes.append(speed.note())
    return out, layers


def _ch_counters(kernel) -> dict:
    """CH query effort so far (empty if the kernel has no CH lane)."""
    counters = getattr(kernel, "ch_profile_counters", None)
    return counters() if counters is not None else {}


def _analytics_layers(tracer: spans.Tracer, jobs: int) -> dict:
    """Per-job seconds and search effort of each product.

    ``sssp_runs`` counts the searches a product ran: one per source of
    each multi-source sweep, one per SSSP tree and one per CH query.
    ``settled`` counts the vertices those searches reached.
    """
    children: dict = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)
    out = {}
    for product in PRODUCTS:
        seconds = runs = settled = 0.0
        for span in tracer.named(f"analytics.{product}"):
            seconds += span.duration
            ch = span.attrs["ch"]
            runs += ch.get("queries", 0)
            settled += ch.get("settled", 0)
            for child in children.get(span.span_id, ()):
                runs += child.attrs.get("sources", 0)
                settled += child.attrs.get("settled", 0)
        out[f"analytics.{product}_s"] = seconds / jobs
        out[f"analytics.{product}.sssp_runs"] = runs / jobs
        out[f"analytics.{product}.settled"] = settled / jobs
    return out


def _check(out: common.Outcome, network, results, rng) -> list[float]:
    """Sampled OD cells and sparse pairs against dict per-pair costs."""
    ledger = out.ledger
    taus = []
    for product, args, result in results:
        if product == "od_matrix":
            cells = [(int(rng.choice(args["origins"])),
                      int(rng.choice(args["destinations"])))
                     for _ in range(CHECK_CELLS)]
            batch = [result.cost(o, d) for o, d in cells]
        elif product == "od_pairs_ch":
            picks = rng.choice(len(args["pairs"]), size=CHECK_CELLS,
                               replace=False)
            cells = [args["pairs"][int(k)] for k in picks]
            batch = [float(result[int(k)]) for k in picks]
        else:
            continue
        reference = [shortest_path_cost(network, o, d, backend="dict")
                     for o, d in cells]
        for (o, d), got, want in zip(cells, batch, reference):
            if got != want:
                ledger.mismatch(f"{product} {o}->{d}: {got!r} != {want!r}")
        taus.append(kendall_tau(reference, batch))
    return taus
