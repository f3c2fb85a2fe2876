"""Spans recorded from outside the program, around calls into each layer.

A span has a name, start, end, parent span and run id. Spans stay in
memory and are written out when the run ends; a layer's self time is
its span's duration minus the part covered by its child spans.

:func:`instrument` patches, for the duration of a traced run, the
module attributes through which ``prepare`` and ``run_darwin`` reach
each layer. A traced call returns exactly what the untraced call
returns; only Spark stages are forced at the layer boundary (an action
on the cached corpus), which is what lets their time be attributed.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str, spark=None):
        self.run_id = run_id
        self.spark = spark
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.values: dict[str, list[float]] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str, *, job_group: bool = False):
        """Record one span; with ``job_group`` its Spark jobs are tagged."""
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        sc = self.spark.sparkContext if (job_group and self.spark) else None
        if sc is not None:
            group = f"{self.run_id}:{sid}:{name}"
            sc.setJobGroup(group, name)
            rec["job_group"] = group
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if sc is not None:
                sc.setLocalProperty("spark.jobGroup.id", None)
                rec["spark_tasks"] = spark_tasks(sc, rec["job_group"])

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def by_name(self, name: str) -> list[tuple[dict, float]]:
        """(span, self time) for every span called ``name``."""
        st = self.self_times()
        return [(s, st[s["id"]]) for s in self.spans if s["name"] == name]

    def dump(self) -> list[dict]:
        st = self.self_times()
        return [dict(s, self=st[s["id"]]) for s in self.spans]


def spark_tasks(sc, group: str) -> int:
    tracker = sc.statusTracker()
    n = 0
    for job in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(job)
        for stage in (info.stageIds if info else ()):
            si = tracker.getStageInfo(stage)
            n += si.numTasks if si else 0
    return n


class CountingIndex:
    """Pass-through proxy around a ``HeuristicIndex`` that counts lookups."""

    def __init__(self, index):
        self._index = index
        self.coverage_calls = 0

    def coverage(self, key):
        self.coverage_calls += 1
        return self._index.coverage(key)

    def __contains__(self, key):
        return key in self._index

    def __getattr__(self, name):
        return getattr(self._index, name)


class TracedClassifier:
    """Pass-through wrapper timing ``fit`` and ``scores``."""

    def __init__(self, clf, tracer: Tracer):
        self._clf = clf
        self._tracer = tracer

    def fit(self, *args, **kwargs):
        with self._tracer.span("classifier.fit"):
            self._clf.fit(*args, **kwargs)
        return self

    def scores(self, *args, **kwargs):
        with self._tracer.span("classifier.scores"):
            return self._clf.scores(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._clf, name)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points used by ``prepare`` and ``run_darwin``."""
    from repro.core import darwin
    from repro.corpora import generator
    from repro.eval import pipeline
    from repro.text import embeddings

    patches = []

    def patch(obj, name, value):
        patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def spanned(fn, name, job_group=False):
        def wrapper(*args, **kwargs):
            with tracer.span(name, job_group=job_group):
                return fn(*args, **kwargs)
        return wrapper

    # -- loop layers (Algorithm 1's callees) ---------------------------
    patch(darwin, "generate_candidates",
          spanned(darwin.generate_candidates, "candidates"))

    base_hierarchy = darwin.Hierarchy

    class TracedHierarchy(base_hierarchy):
        @classmethod
        def build(cls, index, candidates, positives, **kwargs):
            with tracer.span("hierarchy.build"):
                h = super().build(index, candidates, positives, **kwargs)
            tracer.values["hierarchy.candidates"].append(len(candidates))
            tracer.values["hierarchy.nodes"].append(len(h.nodes))
            return h

    patch(darwin, "Hierarchy", TracedHierarchy)

    def traced_strategy(cls):
        class Traced(cls):
            def select(self, *args, **kwargs):
                with tracer.span("traversal.select"):
                    return super().select(*args, **kwargs)
        Traced.__name__ = cls.__name__
        return Traced

    patch(darwin, "STRATEGIES",
          {k: traced_strategy(v) for k, v in darwin.STRATEGIES.items()})

    # -- corpus-width stages (prepare's callees) ------------------------
    patch(generator, "generate_pandas",
          spanned(generator.generate_pandas, "corpora.generate"))
    build_corpus = pipeline.build_corpus

    def traced_build_corpus(spark, spec, **kwargs):
        with tracer.span("corpora.annotate", job_group=True):
            df = build_corpus(spark, spec, **kwargs).cache()
            tracer.values["corpora.rows"].append(df.count())
        return df

    patch(pipeline, "build_corpus", traced_build_corpus)

    base_index = pipeline.HeuristicIndex

    class TracedIndex(base_index):
        @classmethod
        def from_sketch(cls, *args, **kwargs):
            with tracer.span("index.build", job_group=True):
                return base_index.from_sketch.__func__(base_index, *args, **kwargs)

    patch(pipeline, "HeuristicIndex", TracedIndex)
    patch(embeddings, "word2vec_embeddings",
          spanned(embeddings.word2vec_embeddings, "embeddings.word2vec",
                  job_group=True))
    patch(embeddings, "combined_matrix",
          spanned(embeddings.combined_matrix, "embeddings.features"))
    try:
        yield
    finally:
        for obj, name, old in reversed(patches):
            setattr(obj, name, old)
