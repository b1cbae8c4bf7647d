"""Unified simulation engine: one layer walk under every simulator stack.

``executor``  — the shared per-layer primitives, the walk itself, and
the ``dense``/``event`` execution backends (``event`` scatters only the
:class:`~repro.events.EventStream` events that occurred);
``plan``      — compiled per-layer execution plans (CSR adjacency /
conv offset tables), the segment-sum scatter kernels, and plan
(de)serialisation for artifact bundles;
``runner``    — batched/chunked execution with aggregated statistics;
``registry``  — pluggable coding schemes (``ttfs-closed-form``,
``ttfs-early``, ``rate``, ``fixed-point``, ...) and their aliases
(``ttfs``, ``ttfs-timestep``, ``fp``);
``cache``     — content-addressed on-disk store of chunk results;
``sweep``     — scheme x max-timestep x batch experiment orchestration,
its cache-missed chunks fanned over the shared thread pool.

See ``docs/engine.md`` for the architecture note and how to add a new
coding scheme.
"""

from .executor import (
    BACKENDS,
    FIRE_TOL,
    CodingScheme,
    ExecutionContext,
    LayerTrace,
    SpikeTrainScheme,
    affine,
    available_backends,
    avgpool_events,
    avgpool_times,
    bias_shaped,
    conv_fanout,
    integrate_events,
    integrate_events_reference,
    layer_sops,
    output_shape,
    pool_times,
    pool_values,
    run_pipeline,
    run_value_pipeline,
    validate_backend,
)
from .cache import ResultCache, digest, run_key, scheme_digest
from .plan import (
    PLAN_FORMAT_VERSION,
    ConvPlan,
    LinearPlan,
    PlanError,
    PlanSet,
    compile_plans,
    load_plans,
    save_plans,
    scatter_add_rows,
)
from .registry import (
    available_schemes,
    create_scheme,
    get_scheme,
    register_scheme,
    register_scheme_alias,
    resolve_scheme_name,
    scheme_aliases,
)
from .runner import (
    PipelineRunner,
    chunk_bounds,
    merge_traces,
    result_predictions,
)
from .sweep import SweepGrid, SweepPoint, point_options, run_sweep, variant_snn

__all__ = [
    "BACKENDS",
    "FIRE_TOL",
    "available_backends",
    "avgpool_events",
    "integrate_events",
    "integrate_events_reference",
    "validate_backend",
    "PLAN_FORMAT_VERSION",
    "ConvPlan",
    "LinearPlan",
    "PlanError",
    "PlanSet",
    "compile_plans",
    "load_plans",
    "save_plans",
    "scatter_add_rows",
    "CodingScheme",
    "ExecutionContext",
    "LayerTrace",
    "SpikeTrainScheme",
    "affine",
    "avgpool_times",
    "bias_shaped",
    "conv_fanout",
    "layer_sops",
    "output_shape",
    "pool_times",
    "pool_values",
    "run_pipeline",
    "run_value_pipeline",
    "available_schemes",
    "create_scheme",
    "get_scheme",
    "register_scheme",
    "register_scheme_alias",
    "resolve_scheme_name",
    "scheme_aliases",
    "PipelineRunner",
    "chunk_bounds",
    "merge_traces",
    "result_predictions",
    "ResultCache",
    "digest",
    "run_key",
    "scheme_digest",
    "SweepGrid",
    "SweepPoint",
    "point_options",
    "run_sweep",
    "variant_snn",
]
