"""Which functions of which layer the traced run wraps, and the metrics they give.

Each wrapped name is patched where its callers look it up: a method on its
class, a module-level function in every module that imported it by name.
The README lists which end-to-end metric each of these should move.
"""

from __future__ import annotations

import os

from tracing import Tracer

#: Every per-layer metric in report order: (name, unit, better, source).
#: ``source`` is (span metric, field): "self_s" sums self time, "calls"
#: counts outermost calls, "tally" reads a count an exit hook recorded;
#: ``None`` marks the metrics ``per_layer_metrics`` measures apart.
PER_LAYER: tuple[tuple[str, str, str, tuple[str, str] | None], ...] = (
    ("runtime.run_s", "s", "lower", ("runtime.run", "self_s")),
    ("runtime.runs", "count", "lower", ("runtime.run", "calls")),
    ("runtime.profile_s", "s", "lower", ("runtime.profile", "self_s")),
    ("runtime.profiles", "count", "lower", ("runtime.profile", "calls")),
    ("core.optimize_s", "s", "lower", ("core.optimize", "self_s")),
    ("core.optimize_calls", "count", "lower", ("core.optimize", "calls")),
    ("core.feasibility_s", "s", "lower", ("core.feasibility", "self_s")),
    ("batch.model_build_s", "s", "lower", ("batch.model_build", "self_s")),
    ("batch.models_built", "count", "lower", ("batch.model_build", "calls")),
    ("batch.classify_s", "s", "lower", ("batch.classify", "self_s")),
    ("batch.classify_calls", "count", "lower", ("batch.classify", "calls")),
    ("batch.classify_distinct", "count", "lower", None),
    ("batch.simulate_s", "s", "lower", ("batch.simulate", "self_s")),
    ("batch.records_s", "s", "lower", ("batch.records", "self_s")),
    ("batch.stream_fold_s", "s", "lower", ("batch.stream_fold", "self_s")),
    ("batch.peak_bytes", "bytes", "lower", None),
    ("batch.pareto_s", "s", "lower", ("batch.pareto", "self_s")),
    ("batch.front_points", "count", "higher", ("batch.front_points", "tally")),
    ("scenarios.realize_s", "s", "lower", ("scenarios.realize", "self_s")),
    ("scenarios.realizations", "count", "lower", ("scenarios.realize", "calls")),
    ("api.expand_s", "s", "lower", ("api.expand", "self_s")),
    ("api.specs", "count", "lower", ("api.specs", "tally")),
    ("api.batch_map_self_s", "s", "lower", ("api.batch_map", "self_s")),
    ("faults.aggregate_s", "s", "lower", ("faults.aggregate", "self_s")),
    ("warehouse.plan_s", "s", "lower", ("warehouse.plan", "self_s")),
    ("warehouse.get_s", "s", "lower", ("warehouse.get", "self_s")),
    ("warehouse.hits", "count", "higher", ("warehouse.hits", "tally")),
    ("warehouse.misses", "count", "lower", ("warehouse.misses", "tally")),
    ("warehouse.put_s", "s", "lower", ("warehouse.put", "self_s")),
    ("warehouse.puts", "count", "lower", ("warehouse.puts", "tally")),
    ("warehouse.bytes_written", "bytes", "lower", ("warehouse.bytes_written", "tally")),
    ("service.submit_s", "s", "lower", ("service.submit", "self_s")),
    ("service.requests", "count", "lower", ("service.submit", "calls")),
    ("service.stream_s", "s", "lower", ("service.stream", "self_s")),
    ("service.rows", "count", "higher", ("service.rows", "tally")),
    ("trace.overhead_s", "s", "lower", None),
    ("trace.overhead_ref", "ref", "lower", None),
)


def _identity(obj):
    """A structural, hashable description of a fault model.

    Fault models are rebuilt per spec, so two equal models are different
    objects; their class and parameters identify them.
    """
    if isinstance(obj, (int, float, str, bool, type(None))):
        return obj
    if isinstance(obj, (tuple, list)):
        return tuple(_identity(item) for item in obj)
    fields = getattr(obj, "__dict__", {})
    return (
        type(obj).__qualname__,
        tuple(sorted((name, _identity(value)) for name, value in fields.items())),
    )


def install(tracer: Tracer) -> None:
    """Wrap every traced function of every layer."""
    import repro.analysis.cross_technology as cross_technology
    import repro.api.executors as executors
    import repro.api.registry as registry
    import repro.api.session as session
    import repro.api.spec as spec
    import repro.batch.engine as engine
    import repro.batch.model as model
    import repro.batch.streaming as streaming
    import repro.core.optimizer as optimizer
    import repro.faults.campaign as campaign
    import repro.runtime.executor as runtime
    import repro.runtime.profile_cache as profile_cache
    import repro.scenarios.stochastic as stochastic
    import repro.service.client as client
    import repro.warehouse.planner as planner
    import repro.warehouse.store as store

    # runtime
    tracer.wrap(runtime.TaskExecutor, "run", "runtime.run")

    def profile_misses():
        return profile_cache.default_cache().stats.misses

    def mark_hit(span, args, kwargs, result, misses_before):
        # Only walks that missed the cache count as profiling work.
        if profile_misses() == misses_before:
            span.metric = "runtime.profile_hit"

    for module in (runtime, model):
        tracer.wrap(module, "profile_task", "runtime.profile", on_exit=mark_hit,
                    before=profile_misses)

    # core
    tracer.wrap(optimizer.ChunkSizeOptimizer, "optimize", "core.optimize")
    tracer.wrap(registry, "optimize_chunk_size", "core.optimize")
    for module in (executors, cross_technology):
        tracer.wrap(module, "feasible_region", "core.feasibility")

    # batch.model
    tracer.wrap(model.BatchTaskModel, "__init__", "batch.model_build")

    def classified(span, args, kwargs, result, token):
        code = args[0] if args else kwargs["code"]
        fault_model = args[1] if len(args) > 1 else kwargs["fault_model"]
        with tracer._lock:
            tracer.distinct["batch.classify"].add((repr(code), _identity(fault_model)))

    tracer.wrap(model, "classify_outcomes", "batch.classify", on_exit=classified)

    # batch.engine / batch.streaming
    tracer.wrap(model.BatchTaskModel, "simulate", "batch.simulate")
    tracer.wrap(engine, "simulate_columns", "batch.simulate")
    tracer.wrap_generator(engine, "iter_column_blocks", "batch.simulate")
    tracer.wrap(engine, "records_from_columns", "batch.records")
    tracer.wrap(streaming.StreamingAggregator, "update", "batch.stream_fold")

    # batch.pareto
    def front_points(span, args, kwargs, result, token):
        tracer.tally("batch.front_points", len(result.points))

    tracer.wrap(executors, "grid_pareto_front", "batch.pareto", on_exit=front_points)

    # scenarios
    tracer.wrap(stochastic.StochasticScenario, "realize", "scenarios.realize")

    # api
    def specs(span, args, kwargs, result, token):
        tracer.tally("api.specs", len(result))

    tracer.wrap(spec.CampaignSpec, "expand", "api.expand", on_exit=specs)
    tracer.wrap(spec.SweepSpec, "expand", "api.expand", on_exit=specs)
    tracer.wrap(executors.BatchCampaignExecutor, "map", "api.batch_map")

    # faults
    for module in (session, campaign):
        tracer.wrap(module, "aggregate_runs", "faults.aggregate")

    # warehouse
    tracer.wrap(planner.DeltaPlanner, "plan", "warehouse.plan")

    def got(span, args, kwargs, result, token):
        tracer.tally("warehouse.misses" if result is None else "warehouse.hits")

    tracer.wrap(store.ResultWarehouse, "get", "warehouse.get", on_exit=got)

    def put(span, args, kwargs, result, token):
        if result:
            warehouse, key = args[0], (args[1] if len(args) > 1 else kwargs["key"])
            tracer.tally("warehouse.puts")
            tracer.tally("warehouse.bytes_written", os.path.getsize(warehouse._path(key)))

    tracer.wrap(store.ResultWarehouse, "put", "warehouse.put", on_exit=put)

    # service
    tracer.wrap(client.ServiceClient, "submit", "service.submit")

    def streamed(line):
        if f'"{client.SPEC_INDEX_KEY}"' in line:
            tracer.tally("service.rows")

    tracer.wrap_generator(client.ServiceClient, "stream_lines", "service.stream",
                          on_item=streamed)


def per_layer_metrics(tracer: Tracer, traced_rounds: int, overhead: dict[str, float]) -> dict:
    """Every per-layer metric: one set-up plus the mean of the traced rounds.

    ``overhead`` holds the two ``trace.*`` metrics, measured by the caller.
    """
    from repro.batch.streaming import peak_bytes

    totals = tracer.layer_totals()

    def combined(source: str, field: str) -> float:
        if field == "tally":
            setup = tracer.tallies.get(("setup", source), 0.0)
            rounds = tracer.tallies.get(("round", source), 0.0)
        else:
            setup = totals.get(("setup", source), {}).get(field, 0.0)
            rounds = totals.get(("round", source), {}).get(field, 0.0)
        return setup + rounds / traced_rounds

    measured = {
        "batch.classify_distinct": float(len(tracer.distinct["batch.classify"])),
        "batch.peak_bytes": float(peak_bytes("campaign")),
        **overhead,
    }
    return {
        name: {"value": combined(*source) if source else measured[name], "unit": unit}
        for name, unit, _better, source in PER_LAYER
    }
