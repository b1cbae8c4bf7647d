"""The :class:`Experiment` driver: chain stages, record, cache, resume.

``Experiment(config).run()`` executes the config's stage list in order
over one shared :class:`~repro.api.stages.PipelineContext` and returns a
structured :class:`ExperimentReport` (per-stage status/timings plus the
context's metrics tree; the live context rides along as ``.context`` for
callers that want the rich artifacts).

With a :class:`~repro.engine.cache.ResultCache`, each cacheable stage is
addressed by a *chained* content key — its own ``cache_key`` digested
together with the key of everything upstream — so re-running an
identical config replays every stage from disk with **zero**
re-executions, while editing any stage's config invalidates exactly that
stage and everything after it (stage-granular resume).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .. import __version__
from ..engine.cache import ResultCache, digest
from ..obs import get_registry, span, span_tree
from .config import ExperimentConfig, config_to_dict
from .stages import PipelineContext, Stage, get_stage

#: Version of the report dict layout.  2 adds the ``spans`` tree (the
#: experiment/stage timing forest recorded by :mod:`repro.obs`).
REPORT_SCHEMA_VERSION = 2

#: Bump when stage payload layouts change; part of every chained key so
#: stale stores never decode against new stage code.
STAGE_CACHE_FORMAT = 1


@dataclass
class StageRecord:
    """One stage's slice of the report."""

    name: str
    status: str                # "completed" | "cached"
    elapsed_s: float
    cache_key: Optional[str]   # chained key, None when uncacheable/uncached

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "status": self.status,
                "elapsed_s": self.elapsed_s, "cache_key": self.cache_key}


@dataclass
class ExperimentReport:
    """Structured output of one experiment run (JSON-able via to_dict)."""

    name: str
    config: Dict[str, Any]
    stages: List[StageRecord] = field(default_factory=list)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per-stage span forest (``repro.obs.span_tree`` of everything this
    #: run recorded): each root is the experiment span, its children the
    #: stages, plus any nested spans the stages themselves opened.
    spans: List[Dict[str, Any]] = field(default_factory=list)
    total_elapsed_s: float = 0.0
    cached: bool = False
    context: Optional[PipelineContext] = None  # not serialised

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.stages if s.status == "cached")

    def stage(self, name: str) -> StageRecord:
        for record in self.stages:
            if record.name == name:
                return record
        raise KeyError(f"no stage {name!r} in this report; ran: "
                       f"{', '.join(s.name for s in self.stages)}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "repro_version": __version__,
            "name": self.name,
            "config": self.config,
            "cached": self.cached,
            "stages": [s.to_dict() for s in self.stages],
            "cache_hits": self.cache_hits,
            "metrics": self.metrics,
            "spans": self.spans,
            "total_elapsed_s": self.total_elapsed_s,
        }


class Experiment:
    """Drive an :class:`ExperimentConfig` through its stage chain.

    ``cache`` enables stage-granular resume; ``on_stage_start`` /
    ``on_stage_end`` are display hooks (the CLI uses them for its
    progress lines) receiving the :class:`Stage` / :class:`StageRecord`
    respectively.
    """

    def __init__(self, config: ExperimentConfig,
                 cache: Optional[ResultCache] = None,
                 on_stage_start: Optional[Callable[[Stage], None]] = None,
                 on_stage_end: Optional[Callable[[StageRecord], None]] = None):
        self.config = config
        self.cache = cache
        self.on_stage_start = on_stage_start
        self.on_stage_end = on_stage_end
        self.stages: List[Stage] = [get_stage(name, config)
                                    for name in config.stages]

    # ------------------------------------------------------------------
    def run(self, context: Optional[PipelineContext] = None
            ) -> ExperimentReport:
        """Execute (or replay) every stage; returns the report."""
        ctx = context or PipelineContext(config=self.config)
        report = ExperimentReport(name=self.config.name,
                                  config=config_to_dict(self.config),
                                  cached=self.cache is not None,
                                  context=ctx)
        registry = get_registry()
        spans_before = len(registry.spans()) if registry.enabled else 0
        t_run = time.perf_counter()
        chain: Optional[str] = None
        with span(f"experiment.{self.config.name}"):
            for stage in self.stages:
                record = self._run_stage(stage, ctx, chain)
                report.stages.append(record)
                if record.cache_key is not None:
                    # uncacheable (analytic) stages leave the chain
                    # untouched: they produce no context a later stage's
                    # output consumes
                    chain = record.cache_key
        report.metrics = ctx.metrics
        report.total_elapsed_s = time.perf_counter() - t_run
        if registry.enabled:
            # everything recorded during this run — the experiment/stage
            # forest plus any worker spans merged in along the way
            report.spans = span_tree(registry.spans()[spans_before:])
        return report

    def _run_stage(self, stage: Stage, ctx: PipelineContext,
                   chain: Optional[str]) -> StageRecord:
        """Execute (or replay) one stage, spanned and counted."""
        registry = get_registry()
        if self.on_stage_start is not None:
            self.on_stage_start(stage)
        # cache keys digest real stage inputs (weights, datasets),
        # so only pay for them when there is a cache to address
        local = (stage.cache_key(ctx) if self.cache is not None
                 else None)
        key: Optional[str] = None
        if local is not None:
            key = digest("api-stage", STAGE_CACHE_FORMAT, __version__,
                         stage.name, local, chain or "")
        t0 = time.perf_counter()
        status = "completed"
        with span(f"stage.{stage.name}") as rec:
            if key is not None:
                payload = self.cache.get(key)
                if payload is not None:
                    stage.restore(ctx, payload)
                    status = "cached"
            if status == "completed":
                stage.run(ctx)
                if key is not None:
                    payload = stage.export(ctx)
                    if payload is not None:
                        self.cache.put(key, payload)
            if rec is not None:
                rec["meta"] = {"status": status}
        elapsed = time.perf_counter() - t0
        if registry.enabled:
            registry.counter(
                "repro_stage_cache_total",
                "Stage executions by cache outcome").inc(
                    1, stage=stage.name,
                    outcome="hit" if status == "cached" else "miss")
            registry.histogram(
                "repro_stage_seconds",
                "Wall time per pipeline stage (cached replays "
                "included)").observe(elapsed, stage=stage.name)
        record = StageRecord(name=stage.name, status=status,
                             elapsed_s=elapsed, cache_key=key)
        if self.on_stage_end is not None:
            self.on_stage_end(record)
        return record

