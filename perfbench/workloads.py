"""The three workloads: their inputs, one timed round, and their checks.

A workload derives every input from the run's ``--seed`` and exposes:

* ``start()`` / ``stop()`` — the set-up the run repeats to time ``setup_s``
  (session, server) and its teardown;
* ``input_seeds`` — the (application, input seed) pairs set-up
  characterizes into the fresh profile cache, so no round walks a profile;
* ``operations()`` — one round: the same named calls every round, each
  returning a result and its row count;
* ``check(results)`` — correctness of one round's results, computed apart
  from the timed calls; returns the names of the checks that ran.

Every check compares against an independent computation or a property the
method must have, never against stored output.
"""

from __future__ import annotations

import math
import os
import statistics
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any

import numpy as np

from repro.analysis import experiments as ex
from repro.api.executors import SerialExecutor
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.apps.registry import PAPER_BENCHMARK_ORDER, available_applications, get_application
from repro.batch.pareto import reference_non_dominated
from repro.core.config import PAPER_OPERATING_POINT
from repro.core.cost_model import MitigationCostModel
from repro.faults.campaign import aggregate_runs
from repro.runtime.executor import MAX_ROLLBACK_ATTEMPTS, characterize_app

#: Registry names of the Fig. 5 configurations, in the paper's order.
FIG5_STRATEGIES = ("default", "sw-mitigation", "hw-mitigation", "hybrid-optimal",
                   "hybrid-suboptimal")


class CheckFailed(AssertionError):
    """A workload's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


Step = Callable[[dict[str, Any]], Any]


def _first(pieces: list) -> Any:
    return pieces[0]


@dataclass(frozen=True)
class Operation:
    """One timed operation of a round.

    Its ``steps`` are called one after the other with the round's results so
    far, and ``combine`` joins their results (a single step's result stands
    alone).  A long operation is given as several steps: the reference
    kernel is sampled between steps, so no stretch of timed work is long
    compared with the host's spells of speed.
    """

    label: str
    rows: Callable[[Any], int]
    steps: tuple[Step, ...]
    combine: Callable[[list], Any] = _first


def _op(label: str, call: Step, rows: Callable[[Any], int]) -> Operation:
    return Operation(label, rows, (call,))


def same(a: Any, b: Any) -> bool:
    """Exact equality through dataclasses, containers and NumPy arrays."""
    if is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and bool(np.all(np.asarray(a) == np.asarray(b)))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _distinct_seeds(rng: np.random.Generator, count: int) -> tuple[int, ...]:
    return tuple(sorted(int(s) for s in rng.choice(1 << 20, size=count, replace=False)))


def _seed_range(rng: np.random.Generator, count: int) -> tuple[int, ...]:
    start = int(rng.integers(1 << 30))
    return tuple(range(start, start + count))


class Workload:
    """Shared plumbing; subclasses fill in the inputs, round and checks."""

    name = ""
    #: Value of ``REPRO_NO_WAREHOUSE`` for the whole run.
    no_warehouse = "1"
    #: Names of the checks ``check`` runs, in order.
    checks: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool) -> None:
        self.rng = np.random.default_rng([seed, 0xBE7C4])
        self.session: Session | None = None
        #: (application, input seed) pairs characterized during set-up.
        self.input_seeds: set[tuple[str, int]] = {
            (app, 0) for app in available_applications()
        }

    def start(self) -> None:
        self.session = Session()

    def stop(self) -> None:
        self.session = None

    def begin_round(self, scratch: str) -> None:
        """Untimed preparation before each round (``scratch`` is a fresh dir)."""

    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def failed(self, label: str, result: Any) -> bool:
        """Whether a completed operation returned a known-wrong result."""
        return False

    def check(self, results: dict[str, Any]) -> list[str]:
        raise NotImplementedError


def characterize_inputs(workload: Workload) -> None:
    """Walk every profile the workload's rounds will read (set-up work)."""
    for app, seed in sorted(workload.input_seeds):
        characterize_app(get_application(app), seed)


# ---------------------------------------------------------------------- #
# paper
# ---------------------------------------------------------------------- #
class Paper(Workload):
    """Every paper artefact through the default (behavioural) engines."""

    name = "paper"
    checks = ("fig4-table1-equal-batched", "table1-budgets-and-argmin",
              "fig5-mitigated-outputs-correct", "pareto-non-dominated")

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.apps = ("adpcm-encode",) if tiny else tuple(PAPER_BENCHMARK_ORDER)
        # Fig. 5 runs at fixed seeds: it fails every round on every run seed
        # (see ``failed``), so its inputs must not depend on the run seed.
        self.fig5_seeds = (0,) if tiny else (0, 1)
        self.sweep_seeds = _distinct_seeds(self.rng, 1)
        self.chunk_stride = 16 if tiny else 1
        self.input_seeds |= {(app, s) for app in self.apps for s in self.fig5_seeds}
        self.input_seeds |= {("adpcm-encode", s) for s in self.sweep_seeds}

    def operations(self) -> list[Operation]:
        s = self.session
        ops = [
            _op("fig4", lambda r: ex.fig4_feasible_region(session=s, chunk_stride=self.chunk_stride),
                lambda res: len(res.region.points)),
            _op("table1",
                lambda r: ex.table1_optimal_chunks(session=s, applications=list(self.apps)),
                lambda res: len(res.rows_by_app)),
            # One Fig. 5 call per application, joined into the whole figure
            # (each application's bars depend on that application only).
            Operation(
                "fig5",
                lambda res: len(res.outcomes) * len(res.seeds),
                tuple(
                    lambda r, app=app: ex.fig5_energy(
                        session=s, applications=[app], seeds=self.fig5_seeds
                    )
                    for app in self.apps
                ),
                lambda pieces: replace(
                    pieces[0], outcomes=[o for piece in pieces for o in piece.outcomes]
                ),
            ),
            _op("timing", lambda r: ex.timing_overhead(fig5=r["fig5"]),
                lambda res: len(res.rows())),
        ]
        for name in ("error_rate", "area_budget", "correction_strength", "drain_latency"):
            study = getattr(ex, f"ablation_{name}")
            ops.append(_op(f"ablation-{name}", lambda r, study=study: study(session=s),
                           lambda res: len(res.table_rows)))
        ops.append(_op("scenario-sweep",
                       lambda r: ex.scenario_sweep(session=s, seeds=self.sweep_seeds),
                       lambda res: len(res.cells) * len(res.seeds)))
        for app in self.apps:
            ops.append(_op(f"pareto-{app}",
                           lambda r, app=app: s.pareto(app, chunk_stride=self.chunk_stride),
                           lambda res: len(res.points)))
        return ops

    def failed(self, label: str, result: Any) -> bool:
        # The paper's shape: the hybrid optimum costs less energy than both
        # SW and HW mitigation on every application.  At this revision SW
        # mitigation (parity plus rare whole-task restarts) costs ~8 % over
        # Default against ~75-130 % in the paper, so the Fig. 5 operation
        # returns a result without that shape on every run.
        if label != "fig5":
            return False
        for app in self.apps:
            energy = {o.strategy: o.normalized_energy for o in result.outcomes
                      if o.application == app}
            if not energy["hybrid-optimal"] < min(energy["sw-mitigation"],
                                                  energy["hw-mitigation"]):
                return True
        return False

    def check(self, results: dict[str, Any]) -> list[str]:
        s = self.session
        constraints = PAPER_OPERATING_POINT
        ran = []

        batched_fig4 = ex.fig4_feasible_region(
            session=s, chunk_stride=self.chunk_stride, engine="batched"
        )
        _require(same(batched_fig4.region, results["fig4"].region),
                 "behavioural Fig. 4 differs from the batched design engine")
        batched_table1 = ex.table1_optimal_chunks(
            session=s, applications=list(self.apps), engine="batched"
        )
        table1 = results["table1"]
        _require(
            same(batched_table1.rows_by_app, table1.rows_by_app)
            and same(batched_table1.optimizations, table1.optimizations),
            "behavioural Table I differs from the batched design engine",
        )
        ran.append("fig4-table1-equal-batched")

        for app in self.apps:
            best = table1.optimizations[app].best
            _require(best.area_fraction <= constraints.area_overhead,
                     f"{app}: Table I optimum breaks the OV1 area budget")
            _require(best.overhead_cycles <= constraints.cycle_overhead * best.baseline_cycles,
                     f"{app}: Table I optimum breaks the OV2 cycle budget")
            model = MitigationCostModel(characterize_app(get_application(app), 0), constraints)
            scan = [model.evaluate(chunk) for chunk in range(1, model.app.output_words + 1)]
            within = [
                c.objective_pj for c in scan
                if c.area_fraction <= constraints.area_overhead
                and c.overhead_cycles <= constraints.cycle_overhead * c.baseline_cycles
            ]
            _require(bool(within) and best.objective_pj == min(within),
                     f"{app}: Table I optimum is not the energy argmin of the chunk scan")
        ran.append("table1-budgets-and-argmin")

        fig5 = results["fig5"]
        for outcome in fig5.outcomes:
            if outcome.strategy != "default":
                _require(outcome.fully_mitigated_fraction == 1.0,
                         f"{outcome.application}/{outcome.strategy}: a run's output is wrong")
        ran.append("fig5-mitigated-outputs-correct")

        for app in self.apps:
            front = results[f"pareto-{app}"]
            for rate in front.rate_levels():
                values = [
                    tuple(point.metric(o) for o in front.objectives)
                    for point in front.points if point.error_rate == rate
                ]
                _require(reference_non_dominated(values) == list(range(len(values))),
                         f"{app}: Pareto front at rate {rate} holds a dominated point")
        ran.append("pareto-non-dominated")
        return ran


# ---------------------------------------------------------------------- #
# campaign
# ---------------------------------------------------------------------- #
#: Metrics compared between engines, with the absolute floors of the
#: cross-engine equivalence suite (``tests/batch/test_equivalence.py``).
_EQUIVALENCE_FLOORS = {
    "energy_pj": 0.35,
    "total_cycles": 0.35,
    "upsets_injected": 0.35,
    "errors_detected": 0.35,
    "rollbacks": 0.35,
    "task_restarts": 0.35,
    "fully_mitigated": 0.05,
}


def _statistically_close(behavioural: list[float], batched: list[float], floor: float) -> bool:
    """The equivalence suite's bound: 4.5 standard errors plus a floor."""
    mean_b, mean_f = statistics.fmean(behavioural), statistics.fmean(batched)
    var_b = statistics.variance(behavioural) if len(behavioural) > 1 else 0.0
    var_f = statistics.variance(batched) if len(batched) > 1 else 0.0
    spread = math.sqrt(
        var_f * (1.0 / len(behavioural) + 1.0 / len(batched)) + var_b / len(behavioural)
    )
    return abs(mean_b - mean_f) <= 4.5 * spread + max(0.02 * abs(mean_b), floor)


#: Seeds of each campaign cell rerun through the behavioural engine.
BEHAVIOURAL_SAMPLE = 4


class Campaign(Workload):
    """Batched fault-injection campaigns with the warehouse off."""

    name = "campaign"
    checks = ("behavioural-subsample-equivalent", "stream-equals-materialized",
              "hybrid-fully-mitigated")

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        apps = ("adpcm-encode",) if tiny else tuple(PAPER_BENCHMARK_ORDER)
        sizes = (40, 40, 8, 4, 20_000) if tiny else (400, 1500, 200, 40, 400_000)
        cell_seeds, optimal_seeds, adaptive_seeds, estimating_seeds, stream_seeds = sizes

        self.cells: dict[str, CampaignSpec] = {}
        for app in apps:
            for strategy in FIG5_STRATEGIES:
                self.cells[f"{app}/{strategy}"] = CampaignSpec(
                    base=ExperimentSpec(app=app, strategy=strategy, engine="batched"),
                    seeds=_seed_range(self.rng, cell_seeds),
                )
        #: Labels of the cells under a stochastic fault environment.
        self.stochastic: set[str] = set()
        for scenario, strategy, count in (
            ("markov", "hybrid-optimal", optimal_seeds),
            ("markov", "hybrid-adaptive", adaptive_seeds),
            ("storm", "hybrid-estimating", estimating_seeds),
        ):
            self.stochastic.add(f"adpcm-encode/{strategy}/{scenario}")
            self.cells[f"adpcm-encode/{strategy}/{scenario}"] = CampaignSpec(
                base=ExperimentSpec(app="adpcm-encode", strategy=strategy,
                                    scenario=scenario, engine="batched"),
                seeds=_seed_range(self.rng, count),
            )
        self.stream = CampaignSpec(
            base=ExperimentSpec(app="g721-decode", strategy="hybrid-optimal",
                                engine="batched"),
            seeds=_seed_range(self.rng, stream_seeds),
        )
        #: Seed range shared by the streamed and the materialized check.
        self.shared = replace(self.stream, seeds=self.stream.seeds[: 2000 if not tiny else 200])

    def operations(self) -> list[Operation]:
        s = self.session
        ops = [
            _op(label, lambda r, spec=spec: s.campaign(spec, engine="batched"),
                lambda res: res.runs)
            for label, spec in self.cells.items()
        ]
        ops.append(_op("stream",
                       lambda r: s.campaign(self.stream, engine="batched", stream=True),
                       lambda res: res.runs))
        return ops

    def check(self, results: dict[str, Any]) -> list[str]:
        s = self.session
        ran = []
        behavioural_executor = SerialExecutor()
        for label, spec in self.cells.items():
            batched_rows = results[label].raw
            sample = [replace(spec.base, engine="behavioural", seed=seed)
                      for seed in spec.seeds[:BEHAVIOURAL_SAMPLE]]
            behavioural_rows = [o.record for o in behavioural_executor.map(sample)]
            for metric, floor in _EQUIVALENCE_FLOORS.items():
                _require(
                    _statistically_close(
                        [float(r[metric]) for r in behavioural_rows],
                        [float(r[metric]) for r in batched_rows],
                        floor,
                    ),
                    f"{label}: batched {metric} is outside the engine-equivalence bound",
                )
            if not spec.base.app.startswith("jpeg"):
                # Seed-invariant skeletons: useful cycles are bit-identical.
                useful = {r["useful_cycles"] for r in batched_rows + behavioural_rows}
                _require(len(useful) == 1, f"{label}: engines disagree on useful cycles")
        ran.append("behavioural-subsample-equivalent")

        streamed = s.campaign(self.shared, engine="batched", stream=True)
        materialized = s.campaign(self.shared, engine="batched")
        metrics = list(streamed.metrics)
        recomputed = aggregate_runs(materialized.raw, metrics=metrics)
        _require(streamed.runs == recomputed.runs and same(streamed.metrics, recomputed.metrics),
                 "streamed statistics differ from aggregate_runs over materialized rows")
        ran.append("stream-equals-materialized")

        for label, spec in self.cells.items():
            if not spec.base.strategy.startswith("hybrid"):
                continue
            rows = results[label].raw
            if label not in self.stochastic:
                _require(all(r["fully_mitigated"] == 1.0 for r in rows),
                         f"{label}: a hybrid run is not fully mitigated")
                continue
            # Under a stochastic scenario a burst can fail a phase on every
            # one of its bounded rollbacks, about once in 10^4 runs; the run
            # then consumes the detected-corrupt chunk.  That, and only that,
            # leaves a hybrid run unmitigated: one detection more than the
            # rollbacks, after at least MAX_ROLLBACK_ATTEMPTS of them.
            for row in rows:
                exhausted = row["errors_detected"] > row["rollbacks"]
                _require((row["fully_mitigated"] == 1.0) != exhausted,
                         f"{label}: a hybrid run is unmitigated without exhausting "
                         "its rollbacks, or exhausted them and stayed correct")
                _require(not exhausted or row["rollbacks"] >= MAX_ROLLBACK_ATTEMPTS,
                         f"{label}: a phase gave up before MAX_ROLLBACK_ATTEMPTS rollbacks")
        _require(results["stream"]["fully_mitigated"].minimum == 1.0,
                 "stream: a hybrid run is not fully mitigated")
        ran.append("hybrid-fully-mitigated")
        return ran


# ---------------------------------------------------------------------- #
# replay
# ---------------------------------------------------------------------- #
class Replay(Workload):
    """A cold pass that writes a fresh warehouse, then warm passes over it.

    Each round points the warehouse at a fresh directory, so every round
    has the same cold-then-warm shape.  The HTTP client is a
    ``Session.connect`` to an in-process server in thread mode with one
    worker: a closed loop with one client.
    """

    name = "replay"
    no_warehouse = "0"
    checks = ("warm-equals-no-warehouse", "http-equals-in-process")

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.fig5_apps = ["adpcm-encode"] if tiny else list(PAPER_BENCHMARK_ORDER)
        self.fig5_seeds = _distinct_seeds(self.rng, 2 if tiny else 3)
        self.sweep_seeds = _distinct_seeds(self.rng, 2 if tiny else 6)
        size = 200 if tiny else 3000

        self.campaigns = {
            "campaign-a": CampaignSpec(
                base=ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal",
                                    engine="batched"),
                seeds=_seed_range(self.rng, size),
            ),
            "campaign-b": CampaignSpec(
                base=ExperimentSpec(app="g721-decode", strategy="sw-mitigation",
                                    engine="batched"),
                seeds=_seed_range(self.rng, size),
            ),
        }
        self.pareto_stride = 16 if tiny else 1
        self.input_seeds |= {(app, self.fig5_seeds[0]) for app in self.fig5_apps}
        # The poisoning probe: fixed inputs that do not depend on the seed.
        self.poison_args = {"applications": ["adpcm-encode"], "seeds": (0, 1)}
        self.input_seeds |= {("adpcm-encode", 0), ("adpcm-encode", 1)}
        self.server = None
        self.remote: Session | None = None
        self._reference: dict[str, Any] | None = None

    def start(self) -> None:
        from repro.service.scaling import ScalingPolicy
        from repro.service.server import ExperimentServer

        super().start()
        policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=1)
        self.server = ExperimentServer(host="127.0.0.1", port=0, policy=policy,
                                       mode="thread").start()
        self.remote = Session.connect(self.server.url)

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.remote = None
        super().stop()

    def begin_round(self, scratch: str) -> None:
        os.environ["REPRO_WAREHOUSE_DIR"] = scratch

    def _mix(self, session: Session) -> list[tuple[str, Callable[[], Any], Callable]]:
        return [
            ("fig5", lambda: ex.fig5_energy(session=session, applications=self.fig5_apps,
                                            seeds=self.fig5_seeds, engine="batched"),
             lambda res: len(res.outcomes) * len(res.seeds)),
            ("sweep", lambda: ex.scenario_sweep(session=session, seeds=self.sweep_seeds,
                                                engine="batched"),
             lambda res: len(res.cells) * len(res.seeds)),
            *[
                (label, lambda spec=spec: session.campaign(spec), lambda res: res.runs)
                for label, spec in self.campaigns.items()
            ],
            ("pareto", lambda: session.pareto("adpcm-encode", chunk_stride=self.pareto_stride),
             lambda res: len(res.points)),
        ]

    def _over_http(self, spec: CampaignSpec) -> list[dict]:
        # The client shares this process, hence its warehouse: through
        # Session.campaign a full local hit would skip the server, so the
        # connected session's executor is called directly and every row
        # crosses HTTP (the server answers from the same warm store).
        return [outcome.record for outcome in self.remote.executor.map(spec.expand())]

    def _poison_probe(self):
        ex.fig5_energy(session=self.session, engine="batched", **self.poison_args)
        return ex.fig5_energy(session=self.session, **self.poison_args)

    def operations(self) -> list[Operation]:
        ops = [
            _op(f"{phase}-{label}", lambda r, call=call: call(), rows)
            for phase in ("cold", "warm")
            for label, call, rows in self._mix(self.session)
        ]
        for label, spec in self.campaigns.items():
            ops.append(_op(f"http-{label}", lambda r, spec=spec: self._over_http(spec),
                           lambda res: len(res)))
        ops.append(_op("cross-engine-poisoning", lambda r: self._poison_probe(),
                       lambda res: len(res.outcomes) * len(res.seeds)))
        return ops

    def reference(self) -> dict[str, Any]:
        """Every mix call, and the poisoning probe, with the warehouse off."""
        if self._reference is None:
            os.environ["REPRO_NO_WAREHOUSE"] = "1"
            try:
                refs = {label: call() for label, call, _rows in self._mix(self.session)}
                refs["cross-engine-poisoning"] = ex.fig5_energy(
                    session=self.session, **self.poison_args
                )
            finally:
                os.environ["REPRO_NO_WAREHOUSE"] = self.no_warehouse
            self._reference = refs
        return self._reference

    def failed(self, label: str, result: Any) -> bool:
        # The cross-engine fault: behavioural rows served from the batched
        # run's warehouse entry.  Known to fail at this revision.
        return label == "cross-engine-poisoning" and not same(result, self.reference()[label])

    def check(self, results: dict[str, Any]) -> list[str]:
        reference = self.reference()
        for label, _call, _rows in self._mix(self.session):
            for phase in ("cold", "warm"):
                _require(same(results[f"{phase}-{label}"], reference[label]),
                         f"{phase} {label} differs from the same call without the warehouse")
        ran = ["warm-equals-no-warehouse"]
        for label in self.campaigns:
            _require(same(results[f"http-{label}"], results[f"warm-{label}"].raw),
                     f"{label}: rows served over HTTP differ from in-process rows")
        ran.append("http-equals-in-process")
        return ran


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Paper, Campaign, Replay)}
