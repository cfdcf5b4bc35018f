"""Drivers for the serving workloads: set-up, closed loop, open loop.

The drivers are the benchmark's own (the program's load generators
time requests from ``submit``, which hides a late generator), and each
runs in one thread:

* the closed loop sends requests in rounds of a fixed width: a round
  submits its requests together and waits for all their responses
  before the next round is sent;
* the open loop submits each request at its due time and times it
  from that due time, so a stalled generator shows up as latency; its
  lateness is reported on its own.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.serving.engine import ServingEngine
from repro.serving.registry import ModelRegistry
from repro.serving.service import RankingService, RankRequest, ServingConfig

import common
import hostspeed
import stats

#: A response not back within this many seconds counts as a hang.
HANG_S = 60.0

#: Publishes per set-up.  One publish (save, load, compile) takes
#: about 10 ms, mostly file I/O, so ``fit_s`` reports the median over
#: all of them; with 11 per set-up its quartile spread over seeds was
#: 0.15.
PUBLISHES = 25


@dataclass
class Ready:
    """A service stood up to the point of answering its first request."""

    network: object
    registry: object
    service: RankingService
    engine: ServingEngine
    setup_s: float
    publish_s: list


def stand_up(towns: int, model_seed: int, workdir: common.Workdir,
             warmup: list[RankRequest]) -> Ready:
    """Publish a model and warm a service over a fresh rung network.

    The timed set-up starts once the inputs exist (network and model
    weights) and ends when the engine reports ready.  It covers one
    model publish (save, load, compile), the lazy routing-kernel builds
    the warm-up requests trigger, and the warm-up itself.  The model is
    then re-published (a hot swap of the same weights) before anything
    is cached, for a steadier publish time.
    """
    network = common.rung(towns)
    ranker = common.random_ranker(network, model_seed)
    registry = ModelRegistry(workdir.fresh(), network)
    publishes = []
    for _ in range(PUBLISHES):
        began = time.perf_counter()
        registry.publish(ranker, activate=True)
        publishes.append(time.perf_counter() - began)
    began = time.perf_counter()
    service = RankingService(network, registry, ServingConfig())
    engine = ServingEngine(service, warmup=warmup)
    ready_s = time.perf_counter() - began
    return Ready(network, registry, service, engine,
                 setup_s=publishes[0] + ready_s,
                 publish_s=publishes)


def stand_up_reps(reps: int, towns: int, model_seed: int,
                  workdir: common.Workdir, warmup: list[RankRequest],
                  speed: hostspeed.HostSpeed):
    """Set up ``reps`` times; return the last ``Ready`` and the timings.

    Returns ``(ready, setup_s, publish_s)``: the last set-up, whose
    engine is still open, and every set-up's and publish's seconds,
    each scaled by the idle host-speed probes around its set-up.  Each
    earlier set-up is closed and dropped before the next starts, so
    the run's peak memory holds one stood-up service, not ``reps``.

    The long-lived heap built by set-up (network, model, caches) is then
    frozen out of the cyclic garbage collector, as a long-running Python
    server would do once it is up.  Otherwise each full collection
    scans it, stalling every thread for 10-30 ms, and how many such
    stalls land in a 20-second run decides the open-loop p99: it moved
    between 6 and 16 ms from run to run, against about 4.3 ms frozen.
    """
    setups, publishes = [], []
    ready = None
    for _ in range(reps):
        if ready is not None:
            ready.engine.close()
            ready = None
            gc.collect()
        before = speed.probe()
        ready = stand_up(towns, model_seed, workdir, warmup)
        factor = speed.scale(before, speed.probe())
        setups.append(ready.setup_s * factor)
        publishes.extend(seconds * factor for seconds in ready.publish_s)
    gc.collect()
    gc.freeze()
    return ready, setups, publishes


def new_engine(ready: Ready):
    """A fresh service and engine (empty caches) over the ready state."""
    service = RankingService(ready.network, ready.registry, ServingConfig())
    return service, ServingEngine(service)


@dataclass
class Served:
    """Responses and timings of one batch of requests."""

    latency_ms: dict = field(default_factory=dict)   # request_id -> ms
    responses: dict = field(default_factory=dict)    # request_id -> response
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    raw_s: float = 0.0       # elapsed_s before host-speed scaling


def record(served: Served, ledger: stats.Ledger, rid, response,
           latency_ms: float) -> None:
    """Book one answered request; anything but a model answer fails."""
    served.responses[rid] = response
    if response.served_by != "model" or not response.results:
        ledger.fail(f"served_by={response.served_by}: {response.error}")
        return
    served.latency_ms[rid] = latency_ms
    ledger.ok()


def closed_loop(engine, requests: list[RankRequest], width: int,
                ledger: stats.Ledger, speed: hostspeed.HostSpeed) -> Served:
    """Send ``requests`` in rounds of ``width``, each round's together.

    A request is timed from its submission to the moment the pipeline
    finished it.  Each round's times are scaled by its host-speed
    factor.
    """
    served = Served()
    for start in range(0, len(requests), width):
        cpu = time.process_time()
        began = time.perf_counter()
        tickets = [engine.submit(request)
                   for request in requests[start:start + width]]
        answered = []
        for ticket in tickets:
            try:
                answered.append((ticket, ticket.wait(HANG_S)))
            except ServingError as exc:
                ledger.fail(f"hang or refusal: {exc}")
        ended = time.perf_counter()
        cpu = time.process_time() - cpu
        factor = speed.factor(began, ended)
        served.elapsed_s += (ended - began) * factor
        served.raw_s += ended - began
        served.cpu_s += cpu * factor
        for ticket, response in answered:
            record(served, ledger, ticket.request.request_id, response,
                   (ticket.completed - ticket.submitted) * 1000.0 * factor)
    return served


@dataclass
class Rung:
    """One open-loop rate: who was due when, and how it went."""

    offered_qps: float
    served: Served
    due_s: dict          # request_id -> due offset (s)
    late_ms: list

    def summary(self, limit_ms: float) -> dict:
        rids = sorted(self.served.latency_ms)
        latencies = [self.served.latency_ms[rid] for rid in rids]
        failed = len(self.due_s) - len(latencies)
        tail = stats.latency_summary(latencies)["tail_ms"] if latencies \
            else float("inf")
        return {
            "offered_qps": self.offered_qps,
            "achieved_qps": len(latencies) / self.served.elapsed_s,
            "tail_ms": tail,
            "backlog": stats.backlog_growing(
                [self.due_s[rid] for rid in rids], latencies, limit_ms),
            "failed": failed,
        }


def open_loop(engine, requests: list[RankRequest], arrivals_s,
              offered_qps: float, ledger: stats.Ledger) -> Rung:
    """Submit each request at its due time from this one thread.

    Latency runs from the due time to the moment the pipeline finished
    the request; assembly happens afterwards, when the responses are
    collected, outside the timed path.
    """
    tickets = []
    due_s: dict = {}
    late_ms: list[float] = []
    cpu = time.process_time()
    start = time.perf_counter() + 0.01
    for request, offset in zip(requests, arrivals_s):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        ticket = engine.submit(request)
        late_ms.append(max(0.0, ticket.submitted - due) * 1000.0)
        due_s[request.request_id] = float(offset)
        tickets.append((due, ticket))
    served = Served()
    last_done = start
    for due, ticket in tickets:
        rid = ticket.request.request_id
        try:
            response = ticket.wait(HANG_S)
        except ServingError as exc:
            ledger.fail(f"hang: {exc}")
            continue
        last_done = max(last_done, ticket.completed)
        record(served, ledger, rid, response,
               (ticket.completed - due) * 1000.0)
    served.elapsed_s = last_done - start
    served.cpu_s = time.process_time() - cpu
    return Rung(offered_qps, served, due_s, late_ms)


def check_sample(ready: Ready, responses: dict, rids, ledger: stats.Ledger,
                 candidates_config) -> list[float]:
    """Oracle-check the sampled responses; returns their tau values."""
    model = ready.registry.snapshot().model
    taus = []
    for rid in rids:
        response = responses.get(rid)
        if response is None:
            ledger.mismatch(f"oracle: request {rid} has no response")
            continue
        request = response.request
        reference = common.oracle_ranking(ready.network, model,
                                          request.source, request.target,
                                          candidates_config)
        tau = common.check_response(response, reference, ledger)
        if tau is not None:
            taus.append(tau)
    return taus
