"""The three workloads and the timed region they share.

Load model: a closed loop. One process drives Spark ``local[k]`` with
one simulated annotator, the ground-truth oracle behind a stopwatch;
the next query is issued only after the previous one is answered.

Every workload runs the same stages. Set-up starts Spark. The timed
region runs ``prepare`` once (corpus annotation, sketch explosion, index
aggregation and collect, featurization), in a fresh process as every
job does, so it includes starting the Python workers. Then rule-seeded
Darwin(HS) sessions at budget 100 and ``apply_rules`` over the whole
corpus alternate in ``ROUNDS`` rounds: round ``r`` runs sessions until
``r / ROUNDS`` of the workload's loop time (its ``loop_share`` of
``--seconds``) has been spent in the loop, then labels the corpus once.
A run has at least ``MIN_SESSIONS`` sessions. Then ``dedupe_rules`` →
``label_matrix`` → ``LabelModel.fit`` run once. The workloads differ in
corpus and grammar.

The rounds spread both the loop's and the labeling's samples over most
of the run. The machine's speed drifts by up to ~40 % over tens of
seconds, and a median over one contiguous few-second block follows that
drift (see README).

Each corpus is a fixed Table 1 dataset spec; the workload seed derives
the classifier seeds, session ``i`` using ``1000 * seed + i``. (Seeding
the corpus too made the number of accepted rules, and with it every
loop latency, swing by 2x between seeds; see README.)
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
from pyspark.sql import functions as F

import checks
from spans import CountingIndex, TracedClassifier, Tracer, instrument
from repro.core.darwin import run_darwin
from repro.core.labeling import apply_rules, dedupe_rules, label_matrix
from repro.core.oracle_sim import GroundTruthOracle
from repro.corpora import datasets
from repro.corpora.generator import CorpusSpec
from repro.eval.pipeline import prepare
from repro.index.sketch import SketchConfig
from repro.snorkel_lite.label_model import LabelModel

BUDGET = 100
MIN_COUNT = 2          # prepare()'s default index threshold
LABEL_RULES = 8        # rules applied by the labeling stage (see README)
ROUNDS = 5             # loop blocks, each followed by one timed apply_rules
MIN_SESSIONS = 2       # 200 queries: query_ms_p95 has 10 samples beyond it


@dataclass(frozen=True)
class Workload:
    name: str
    spec: CorpusSpec
    cfg: SketchConfig
    loop_share: float  # share of --seconds the loop runs for


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Loop-bound: ~25-35 accepts per session at Table 1 size. Its
        # waits are mostly the classifier fit and are steady over two
        # sessions.
        Workload("interactive-directions", datasets.directions(),
                 SketchConfig(max_len=5), loop_share=0.35),
        # Corpus-width-bound: prepare and apply_rules dominate; a session
        # accepts only ~7 rules. Its waits are mostly candidate
        # generation, which follows the machine's speed drift closely, so
        # its loop gets the whole of --seconds.
        Workload("batch-professions", datasets.professions(n=12_000),
                 SketchConfig(max_len=5), loop_share=1.0),
        # Deep TreeMatch keys: ~9x the keys per sentence.
        Workload("treematch-musicians", datasets.musicians(n=4_000),
                 SketchConfig(max_len=4, use_treematch=True), loop_share=0.35),
    )
}


class Annotator:
    """The simulated annotator: ``GroundTruthOracle`` behind a stopwatch."""

    def __init__(self, labels: np.ndarray, tracer: Tracer | None = None):
        self.oracle = GroundTruthOracle(labels)
        self.tracer = tracer
        self.calls: list[tuple[float, float, bool]] = []

    def __call__(self, key, ids) -> bool:
        with (self.tracer.span("oracle") if self.tracer else contextlib.nullcontext()):
            t = time.perf_counter()
            answer = self.oracle(key, ids)
            self.calls.append((t, time.perf_counter(), answer))
        return answer

    def waits(self, t_end: float) -> list[tuple[float, bool]]:
        """(ms the annotator waited after an answer, that answer): until
        the next query, or after the last answer until the session ended."""
        nxt = [c[0] for c in self.calls[1:]] + [t_end]
        return [((t - exit_) * 1e3, yes) for (_, exit_, yes), t in zip(self.calls, nxt)]


@dataclass
class Session:
    cls_seed: int
    seconds: float
    result: object
    waits: list[tuple[float, bool]]

    @property
    def recall(self) -> float:
        curve = self.result.recall_curve()
        return curve[-1][1] if curve else 0.0

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.result.rules).encode()).hexdigest()[:16]


def run_session(prep, cls_seed: int, tracer: Tracer, traced: bool) -> Session:
    clf = prep.make_classifier(seed=cls_seed)
    index = prep.index
    annotator = Annotator(prep.labels, tracer if traced else None)
    if traced:
        clf, index = TracedClassifier(clf, tracer), CountingIndex(index)
    with tracer.span("session") as sp:
        res = run_darwin(index, clf, annotator, seed_rule=prep.seed_rule_key(),
                         budget=BUDGET, strategy="hybrid", true_labels=prep.labels)
    if traced:
        tracer.values["index.coverage_calls"].append(index.coverage_calls)
    # The classifier holds its own copy of the feature matrix; keeping one
    # per session would make peak RSS grow with the number of sessions run.
    res = dataclasses.replace(res, classifier=None)
    return Session(cls_seed, sp["end"] - sp["start"], res, annotator.waits(sp["end"]))


class Run:
    """One benchmark run of one workload: set-up, timed region, checks."""

    def __init__(self, spark, wl: Workload, seed: int, seconds: float,
                 traced: bool, t_start: float):
        self.spark, self.wl, self.seed = spark, wl, seed
        self.seconds, self.traced, self.t_start = seconds, traced, t_start
        self.tracer = Tracer(f"{wl.name}-{seed}", spark if traced else None)
        self.attempted = 0
        self.failures: list[str] = []
        self.sessions: list[Session] = []
        self.timing: dict[str, list[float] | float] = {}

    # -- operations ----------------------------------------------------
    def op(self, name: str, fn, *args, fatal: bool = True, **kwargs):
        """Run one counted operation; a failure is recorded (and re-raised
        when later stages cannot go on without its result)."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{name}: {traceback.format_exc(limit=4)}")
            print(f"[darwinbench] FAILED {name}\n{traceback.format_exc()}",
                  file=sys.stderr)
            if fatal:
                raise
            return None

    def _instrumented(self):
        return instrument(self.tracer) if self.traced else contextlib.nullcontext()

    def _prepare(self):
        with self._instrumented(), self.tracer.span("prepare") as sp:
            prep = prepare(self.spark, self.wl.spec, cfg=self.wl.cfg, min_count=MIN_COUNT)
        self.timing["prepare_s"] = sp["end"] - sp["start"]
        return prep

    def timed(self) -> None:
        self.timing["setup_s"] = time.perf_counter() - self.t_start
        self.prep = prep = self.op("prepare", self._prepare)
        if self.traced:
            # Tracing overhead on the loop: the first session is run
            # untraced here and again, traced, as session 0 below.
            self.untraced_ref = run_session(prep, 1000 * self.seed, self.tracer, False).seconds
        self.weak = []
        loop_s = 0.0
        budget = self.seconds * self.wl.loop_share
        with self._instrumented():
            for r in range(1, ROUNDS + 1):
                # Round 1 always runs a session: the labeling needs its rules.
                while loop_s < budget * r / ROUNDS or (
                        r == ROUNDS and len(self.sessions) < MIN_SESSIONS):
                    s = self.op("session", run_session, prep,
                                1000 * self.seed + len(self.sessions), self.tracer,
                                self.traced)
                    self.sessions.append(s)
                    loop_s += s.seconds
                if r == 1:
                    self.label_rules = self.sessions[0].result.rules[:LABEL_RULES]
                self.weak.append(self.op("apply_rules", self._apply))
        self.op("label_model", self._label_model)
        # Peak driver memory of the measured work, before the checks add theirs.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _apply(self) -> tuple[int, list[int]]:
        """Weak labels for the whole corpus, forced by a sum of
        ``weak_label``; the same action gathers the labeled ids for the
        check."""
        with self.tracer.span("labeling.apply", job_group=self.traced) as sp:
            labeled = apply_rules(self.prep.corpus_df, self.label_rules, self.prep.cfg)
            row = labeled.agg(
                F.sum(F.col("weak_label").cast("long")).alias("n"),
                F.collect_list(F.when(F.col("weak_label"), F.col("sid"))).alias("sids"),
            ).collect()[0]
        self.timing.setdefault("apply_s", []).append(sp["end"] - sp["start"])
        return int(row["n"] or 0), row["sids"]

    def _label_model(self) -> None:
        prep = self.prep
        with self.tracer.span("labeling.label_matrix"):
            L = label_matrix(prep.index, dedupe_rules(prep.index, self.label_rules), prep.n)
        with self.tracer.span("label_model.fit"):
            LabelModel().fit(L)

    # -- checks (outside the timed region) -------------------------------
    def check(self) -> None:
        prep = self.prep
        self.op("check.corpus", checks.corpus_matches_spec, prep, fatal=False)
        self.keys_checked, self.sketch_rows = self.op(
            "check.index_duckdb", checks.index_counts, self.spark, prep, MIN_COUNT,
            fatal=False) or (0, 0)
        self.op("check.weak_labels", self._check_weak, fatal=False)
        for s in self.sessions:
            self.op("check.session", checks.session_invariants, s.result, prep,
                    fatal=False, budget=BUDGET, seed_rule=prep.seed_rule_key())

    def _check_weak(self) -> None:
        for n, ids in self.weak:
            if len(ids) != n or len(set(ids)) != n:
                raise checks.CheckFailed(f"sum(weak_label)={n}, {len(ids)} ids")
            checks.weak_labels_match_index(set(ids), self.prep, self.label_rules)

    # -- metrics -------------------------------------------------------
    def end_to_end(self) -> tuple[dict, dict]:
        """(metric → (value, unit), metric → sample count)."""
        n = self.prep.n
        waits = [w for s in self.sessions for w in s.waits]
        accept = [ms for ms, yes in waits if yes]
        all_ms = [ms for ms, _ in waits]
        m = {
            "setup_s": (self.timing["setup_s"], "s"),
            "prepare_sents_per_s": (n / self.timing["prepare_s"], "sent/s"),
            "label_sents_per_s": (n / statistics.median(self.timing["apply_s"]), "sent/s"),
            "session_s": (statistics.median(s.seconds for s in self.sessions), "s"),
            "accept_ms_mean": (statistics.fmean(accept), "ms"),
            "accept_ms_p50": (float(np.percentile(accept, 50)), "ms"),
            "query_ms_p95": (float(np.percentile(all_ms, 95)), "ms"),
            "recall_at_budget": (statistics.fmean(s.recall for s in self.sessions), "fraction"),
            "driver_peak_rss_mb": (self.peak_rss_mb, "MB"),
            "error_rate": (len(self.failures) / max(self.attempted, 1), "fraction"),
        }
        samples = {k: 1 for k in m}
        samples.update(label_sents_per_s=len(self.timing["apply_s"]),
                       session_s=len(self.sessions), recall_at_budget=len(self.sessions),
                       accept_ms_mean=len(accept), accept_ms_p50=len(accept),
                       query_ms_p95=len(all_ms),
                       error_rate=self.attempted)
        return m, samples

    def per_layer(self) -> dict:
        """Per-layer metrics from the trace (traced runs only). Loop
        figures are per session and labeling figures per call, so that
        runs with more sessions compare."""
        tr = self.tracer
        k = len(self.sessions)
        n_apply = len(self.timing["apply_s"])

        def total(name):
            return sum(st for _, st in tr.by_name(name))

        def calls(name):
            return len(tr.by_name(name))

        def p50_ms(name):
            return float(np.median([st * 1e3 for _, st in tr.by_name(name)] or [0.0]))

        def tasks(name):
            return sum(s.get("spark_tasks", 0) for s, _ in tr.by_name(name))

        idx = self.prep.index
        session_total = sum(s.seconds for s in self.sessions)
        cands = sum(tr.values["hierarchy.candidates"])
        oracle_yes = sum(h["answer"] for s in self.sessions for h in s.result.history)
        loop_layers = sum(total(n) for n in ("candidates", "classifier.fit",
                                             "classifier.scores", "hierarchy.build",
                                             "traversal.select", "oracle"))
        return {
            "corpora.generate_s": (total("corpora.generate"), "s"),
            "corpora.annotate_s": (total("corpora.annotate"), "s"),
            "corpora.rows": (sum(tr.values["corpora.rows"]), "count"),
            "index.sketch_rows": (self.sketch_rows, "count"),
            "index.keys": (len(idx), "count"),
            "index.postings": (sum(idx.count(key) for key in idx.keys()), "count"),
            "index.build_s": (total("index.build"), "s"),
            "index.spark_tasks": (tasks("index.build"), "count"),
            "pipeline.collect_s": (total("prepare"), "s"),
            "embeddings.word2vec_s": (total("embeddings.word2vec"), "s"),
            "embeddings.features_s": (total("embeddings.features"), "s"),
            "candidates.calls": (calls("candidates") / k, "count"),
            "candidates.s": (total("candidates") / k, "s"),
            "candidates.ms_p50": (p50_ms("candidates"), "ms"),
            "index.coverage_calls": (sum(tr.values["index.coverage_calls"]) / k, "count"),
            "classifier.fit_calls": (calls("classifier.fit") / k, "count"),
            "classifier.fit_s": (total("classifier.fit") / k, "s"),
            "classifier.scores_s": (total("classifier.scores") / k, "s"),
            "hierarchy.build_s": (total("hierarchy.build") / k, "s"),
            "hierarchy.nodes_mean": (statistics.fmean(tr.values["hierarchy.nodes"]), "count"),
            "hierarchy.kept_frac": (sum(tr.values["hierarchy.nodes"]) / cands, "fraction"),
            "traversal.select_s": (total("traversal.select") / k, "s"),
            "traversal.select_ms_p50": (p50_ms("traversal.select"), "ms"),
            "oracle.calls": (calls("oracle") / k, "count"),
            "oracle.yes_frac": (oracle_yes / calls("oracle"), "fraction"),
            "loop.session_s": (session_total / k, "s"),
            "labeling.apply_s": (total("labeling.apply") / n_apply, "s"),
            "labeling.apply_spark_tasks": (tasks("labeling.apply") / n_apply, "count"),
            "labeling.weak_positives": (self.weak[-1][0], "count"),
            "labeling.label_matrix_s": (total("labeling.label_matrix"), "s"),
            "label_model.fit_s": (total("label_model.fit"), "s"),
            "trace.overhead_frac": (self.sessions[0].seconds / self.untraced_ref - 1, "fraction"),
            "trace.session_unattributed_frac": (1 - loop_layers / session_total, "fraction"),
        }

    def session_records(self) -> list[dict]:
        return [{"cls_seed": s.cls_seed, "digest": s.digest, "recall": s.recall,
                 "rules": len(s.result.rules), "queries": len(s.result.history),
                 "seconds": s.seconds} for s in self.sessions]
