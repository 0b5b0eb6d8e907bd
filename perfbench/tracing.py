"""Spans and counters around ffsel's public functions, installed from outside.

`Tracer.install` rebinds each traced function in every ffsel module that
imported it (``from .data import load_csv`` makes a second binding in
``ffsel.sweep``) and wraps methods on their classes, so calls made inside
`run_sweep` are seen without changing the package. `uninstall` puts every
original back.

A span records the layer name, wall start and end, thread CPU time
and nesting depth within its thread. Counters that fire too often for spans
(redundancy lookups) use ``itertools.count``, whose ``next`` is atomic under
the interpreter lock, so the counts stay exact with worker threads.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def thread_cpu() -> float:
    return time.clock_gettime(time.CLOCK_THREAD_CPUTIME_ID)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    cpu: float
    depth: int
    count: int = 0  # layer-specific count, e.g. tree nodes grown by a fit

    @property
    def wall(self) -> float:
        return self.end - self.start


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    def __init__(self, ffsel):
        self.ffsel = ffsel
        self.spans: list[Span] = []
        self.lookups = itertools.count()
        self.caches: list = []
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording --------------------------------------------------------

    def _traced(self, func, namer, counter=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "depth", 0)
            self._local.depth = depth + 1
            name = namer(args, kwargs)
            c0, t0 = thread_cpu(), time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), thread_cpu()
                self._local.depth = depth
            count = counter(args) if counter else 0
            self.spans.append(Span(name, t0, t1, c1 - c0, depth, count))
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind_function(self, func, wrapper) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "ffsel":
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, wrapper)
                    self._undo.append(functools.partial(setattr, mod, attr, func))

    def _rebind_method(self, cls, attr, wrapper) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def install(self) -> None:
        f = self.ffsel

        def fixed(name):
            return lambda args, kwargs: name

        def by_arg(func, param, prefix, names):
            sig = inspect.signature(func)
            return lambda args, kwargs: prefix + names.get(_arg(sig, args, kwargs, param), "other")

        layer_of = {
            f.load_csv: fixed("data.load_csv"),
            f.standard_scale: fixed("data.standard_scale"),
            f.make_folds: fixed("data.make_folds"),
            f.relevance_all: by_arg(f.relevance_all, "estimator", "relevance.",
                                    {"MI": "mi", "FVALUE": "fvalue", "GINI": "gini", "COSINE": "cosine"}),
            f.select_kbest: fixed("selectors.kbest"),
            f.select_kgroups: fixed("selectors.kgroups"),
            f.select_mrmr: by_arg(f.select_mrmr, "redundancy", "selectors.",
                                  {"MI_PAIR": "mrmr_mi", "ABS_PEARSON": "mrmr_pearson"}),
            f.cross_validate: by_arg(f.cross_validate, "classifier", "evaluate.",
                                     {"KNN": "cv_knn", "GNB": "cv_gnb", "RF": "cv_rf"}),
        }
        for func, namer in layer_of.items():
            self._rebind_function(func, self._traced(func, namer))

        forest = f.RandomForest

        def nodes_grown(args) -> int:
            return sum(len(getattr(t, "feature", ())) for t in getattr(args[0], "trees", ()))

        self._rebind_method(forest, "fit", self._traced(forest.fit, fixed("forest.fit"), nodes_grown))
        self._rebind_method(forest, "predict", self._traced(forest.predict, fixed("forest.predict")))

        cache = f.RedundancyCache
        get, init = cache.get, cache.__init__
        lookups, caches = self.lookups, self.caches

        @functools.wraps(get)
        def counted_get(obj, i, j):
            next(lookups)
            return get(obj, i, j)

        @functools.wraps(init)
        def registered_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            caches.append(obj)

        self._rebind_method(cache, "get", counted_get)
        self._rebind_method(cache, "__init__", registered_init)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


class Unit:
    """One stretch of work: a set-up repetition or a measured round.

    With a tracer it keeps the spans, lookups and computed pairs that fell
    inside it; without one it only carries the sweep interval and record
    count, which cost nothing to note.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.sweep: tuple[float, float] | None = None
        self.records = 0
        self.spans: list[Span] = []
        self.lookups = 0
        self.pairs = 0

    def __enter__(self) -> "Unit":
        if self.tracer is not None:
            self.first_span = len(self.tracer.spans)
            self.caches_before = len(self.tracer.caches)
            self.lookups_before = next(self.tracer.lookups)
        return self

    def __exit__(self, *exc) -> bool:
        t = self.tracer
        if t is not None:
            self.spans = t.spans[self.first_span :]
            # Reading the counter advances it once, which the subtraction removes.
            self.lookups = next(t.lookups) - self.lookups_before - 1
            self.pairs = sum(len(c) for c in t.caches[self.caches_before :])
            del t.caches[self.caches_before :]  # let the unit's caches go
        return False

    def layer_values(self) -> dict[str, float]:
        v: dict[str, float] = {}

        def add(key: str, amount: float) -> None:
            v[key] = v.get(key, 0) + amount

        for s in self.spans:
            add(s.name + "_s", s.wall)
            if s.name.startswith("relevance."):
                add("relevance.calls", 1)
            elif s.name.startswith("evaluate."):
                add("evaluate.cv_calls", 1)
            elif s.name.startswith("selectors.mrmr"):
                add("selectors.mrmr_calls", 1)
            elif s.name == "forest.fit":
                add("forest.fits", 1)
                add("forest.nodes", s.count)
        v["relevance.redundancy_lookups"] = self.lookups
        v["relevance.redundancy_pairs"] = self.pairs
        v["sweep.records"] = self.records
        if self.sweep is not None:
            lo, hi = self.sweep
            inside = [s for s in self.spans if s.start >= lo and s.end <= hi]
            v["sweep.self_s"] = (hi - lo) - _covered(inside)
            v["sweep.wait_s"] = sum(s.wall - s.cpu for s in inside if s.depth == 0)
        return v


def _covered(spans) -> float:
    """Length of the union of the spans' wall intervals."""
    total, reach = 0.0, -np.inf
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


PER_LAYER = (
    ("data.load_csv_s", "s"),
    ("data.standard_scale_s", "s"),
    ("data.make_folds_s", "s"),
    ("relevance.mi_s", "s"),
    ("relevance.fvalue_s", "s"),
    ("relevance.gini_s", "s"),
    ("relevance.calls", "count"),
    ("relevance.redundancy_lookups", "count"),
    ("relevance.redundancy_pairs", "count"),
    ("relevance.cache_hit_ratio", "ratio"),
    ("selectors.kbest_s", "s"),
    ("selectors.kgroups_s", "s"),
    ("selectors.mrmr_mi_s", "s"),
    ("selectors.mrmr_pearson_s", "s"),
    ("selectors.mrmr_calls", "count"),
    ("forest.fit_s", "s"),
    ("forest.predict_s", "s"),
    ("forest.fits", "count"),
    ("forest.nodes", "count"),
    ("evaluate.cv_knn_s", "s"),
    ("evaluate.cv_gnb_s", "s"),
    ("evaluate.cv_rf_s", "s"),
    ("evaluate.cv_calls", "count"),
    ("sweep.self_s", "s"),
    ("sweep.wait_s", "s"),
    ("sweep.records", "count"),
)


def per_layer(setups: list[Unit], rounds: list[Unit]) -> dict[str, float]:
    """Median over set-up repetitions plus median over rounds, per metric.

    Set-up contributes the data layer's load, scale and folds; a round
    contributes everything its operations call.
    """
    out = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    for units in (setups, rounds):
        values = [u.layer_values() for u in units]
        for name in out:
            if values:
                out[name] += float(np.median([v.get(name, 0.0) for v in values]))
    lookups = out["relevance.redundancy_lookups"]
    out["relevance.cache_hit_ratio"] = 1.0 - out["relevance.redundancy_pairs"] / lookups if lookups else 0.0
    return out
