"""Layer probes: wrap each layer's entry points with spans for a traced run.

Layers are named after the program's modules.  The wrapped entry
points are the calls one layer makes into the next:

* ``graph`` — ``diversified_top_k`` as called by candidate generation
  (serving) and by training-query generation (``ranking``), and the
  routing kernel's batch searches analytics runs on (multi-source
  sweeps, SSSP trees, CH point-to-point queries);
* ``serving`` — the four pipeline stages the engine calls on the
  service instance (``admit``, ``prepare``, ``score_states``,
  ``assemble``);
* ``core``/``nn`` — length-bucketed path encoding and the fused
  kernel's forward pass;
* ``embedding`` — node2vec walks and skip-gram training;
* ``ranking`` — ``generate_queries`` inside ``fit``;
* ``core.trainer`` — ``Trainer.fit`` (its epochs).

``analytics`` needs no probe: the benchmark calls it directly and opens
its spans around its own calls.
"""

from __future__ import annotations

import functools
from contextlib import ExitStack, contextmanager

import numpy as np

import repro.core.model
import repro.core.ranker
import repro.core.trainer
import repro.embedding.node2vec
import repro.graph.csr
import repro.nn.fused
import repro.ranking.training_data

from spans import patched


def _candidates_probe(tracer):
    def make(original):
        @functools.wraps(original)
        def wrapper(network, source, target, k, *args, **kwargs):
            with tracer.span("graph.candidates") as span:
                result = original(network, source, target, k, *args, **kwargs)
            limit = kwargs.get("examine_limit")
            span.attrs.update(
                examined=result.examined, kept=len(result.paths),
                limit_hit=limit is not None and result.examined >= limit)
            return result
        return wrapper
    return make


def _sweep_probe(tracer):
    def make(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            slabs = original(self, *args, **kwargs)
            while True:
                with tracer.span("graph.sweep") as span:
                    try:
                        start, rows = next(slabs)
                    except StopIteration:
                        return
                span.attrs.update(sources=rows.shape[0],
                                  settled=int(np.isfinite(rows).sum()))
                yield start, rows
        return wrapper
    return make


def _tree_probe(tracer):
    def make(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            with tracer.span("graph.sssp") as span:
                dist, parent = original(self, *args, **kwargs)
            span.attrs.update(sources=1, settled=int(np.isfinite(dist).sum()))
            return dist, parent
        return wrapper
    return make


def _call_probe(tracer, name):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)
        return wrapper
    return make


def _forward_probe(tracer):
    def make(original):
        @functools.wraps(original)
        def wrapper(self, vertex_ids, mask):
            with tracer.span("nn.forward", paths=int(vertex_ids.shape[0])):
                return original(self, vertex_ids, mask)
        return wrapper
    return make


def _encode_probe(tracer):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            buckets = original(*args, **kwargs)
            while True:
                # The span closes before the bucket is handed on, so the
                # forward pass the caller runs on it is not encode time.
                with tracer.span("core.encode"):
                    try:
                        item = next(buckets)
                    except StopIteration:
                        return
                yield item
        return wrapper
    return make


def _trainer_probe(tracer):
    def make(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            with tracer.span("core.trainer.fit") as span:
                history = original(self, *args, **kwargs)
            span.attrs["epochs"] = history.epochs_run
            return history
        return wrapper
    return make


def _stage_probes(tracer, service):
    """Wrap the service instance's pipeline stages."""

    def admit(original):
        def wrapper(request, *args, **kwargs):
            with tracer.span("serving.admit", rid=request.request_id):
                return original(request, *args, **kwargs)
        return wrapper

    def prepare(original):
        def wrapper(state):
            with tracer.span("serving.prepare",
                             rid=state.request.request_id) as span:
                result = original(state)
            span.name = ("serving.prepare_hit" if state.cache_hit
                         else "serving.prepare_miss")
            return result
        return wrapper

    def score_states(original):
        def wrapper(states):
            rids = [state.request.request_id for state in states]
            with tracer.span("serving.score_states", rids=rids):
                return original(states)
        return wrapper

    def assemble(original):
        def wrapper(state, *args, **kwargs):
            with tracer.span("serving.assemble",
                             rid=state.request.request_id):
                return original(state, *args, **kwargs)
        return wrapper

    return {"admit": admit, "prepare": prepare,
            "score_states": score_states, "assemble": assemble}


@contextmanager
def library_probes(tracer):
    """Probes on module-level entry points (every layer but serving)."""
    targets = [
        (repro.core.ranker, "diversified_top_k", _candidates_probe(tracer)),
        (repro.ranking.training_data, "diversified_top_k",
         _candidates_probe(tracer)),
        (repro.graph.csr.CSRGraph, "iter_multi_source", _sweep_probe(tracer)),
        (repro.graph.csr.CSRGraph, "sssp_parents", _tree_probe(tracer)),
        (repro.graph.csr.CSRGraph, "ch_shortest_path_cost",
         _call_probe(tracer, "graph.ch")),
        (repro.nn.fused.CompiledPathRank, "forward", _forward_probe(tracer)),
        (repro.core.model, "encode_path_buckets", _encode_probe(tracer)),
        (repro.embedding.node2vec.BiasedWalkGenerator, "generate",
         _call_probe(tracer, "embedding.walks")),
        (repro.embedding.node2vec.SkipGramModel, "train",
         _call_probe(tracer, "embedding.skipgram")),
        (repro.core.ranker, "generate_queries",
         _call_probe(tracer, "ranking.generate_queries")),
        (repro.core.trainer.Trainer, "fit", _trainer_probe(tracer)),
    ]
    with ExitStack() as stack:
        for owner, attr, make in targets:
            # An entry point a later change deleted simply records no
            # spans, so the traced run survives the deletion.
            if hasattr(owner, attr):
                stack.enter_context(patched(owner, attr, make))
        yield


@contextmanager
def service_probes(tracer, service):
    """Probes on one service instance's pipeline stages."""
    with ExitStack() as stack:
        for attr, make in _stage_probes(tracer, service).items():
            stack.enter_context(patched(service, attr, make))
        yield
