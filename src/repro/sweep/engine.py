"""Sharded, process-parallel evaluation of sweep scenarios.

The engine turns an expanded scenario list into flattened result records
through one evaluation loop, whatever the backend or ``jobs`` value:

* the scenarios are cut into ``(positions, scenarios)`` groups: template
  groups (:func:`repro.fastpath.group_scenarios`) on the batch backend,
  contiguous slices on the scalar backend;
* each group is evaluated in one attempt (the compiled template's
  ``evaluate_group`` on the batch backend, the reference oracle —
  :meth:`EcoChip.estimate`, :class:`~repro.cost.model.ChipletCostModel` and
  :func:`make_record` per scenario — on the scalar backend).  When the
  attempt raises, or a chaos plan is mounted, the group is replayed
  scenario by scenario through
  :func:`repro.resilience.records.evaluate_contained`, so the failure is
  isolated, retried and recorded (or raised) as the resilience policy says;
* ``jobs=1`` runs that loop in-process; ``jobs>1`` ships chunks of groups
  to a supervised worker pool and streams every chunk back, in order, as
  soon as it and the chunks before it are done;
* each evaluated group travels as one
  :class:`~repro.sweep.store.RecordBlock` and :meth:`SweepEngine.run`
  writes it with one :meth:`~repro.sweep.store.ResultStore.extend`.  A
  group whose scenarios are not contiguous in the run's order is split
  into blocks of one record.

Records come out in scenario order and are bit-identical across both
backends and every ``jobs`` value.

Out-of-tree packaging architectures *and* sweep axes work at any ``jobs``
value: the pool initializer receives the shared plugin-module snapshot
(:func:`repro.packaging.registry.plugin_modules`, which also records
:func:`repro.axes.register_axis` modules) and re-imports it in the worker
(:func:`repro.packaging.registry.import_plugin_modules`), so scenario
packaging dicts and axis overrides referencing plugins resolve in worker
processes under any multiprocessing start method, including ``spawn``,
where workers do not inherit the parent's registry state.

Scenario axis overrides (:mod:`repro.axes`) are applied per scenario:
system-target axes inside :meth:`Scenario.build_system`, config-target
axes by keying one estimator per (fab source, config-override signature).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.axes import (
    apply_config_overrides,
    config_overrides_signature,
    system_overrides_signature,
)
from repro.core.estimator import EcoChip, EstimatorConfig
from repro.core.results import SystemCarbonReport
from repro.core.system import ChipletSystem
from repro.packaging.registry import import_plugin_modules, plugin_modules
from repro.resilience.policy import ResiliencePolicy, WorkerLostError
from repro.resilience.records import (
    error_info,
    error_record,
    evaluate_contained,
    is_error_record,
)
from repro.sweep.spec import Scenario, SweepSpec, resolve_base
from repro.sweep.store import (
    RecordBlock,
    ResultStore,
    iter_records as _iter_store_records,
    repair_torn_tail,
)
from repro.technology.nodes import TechnologyTable

Record = Dict[str, Any]

#: Plugin-module snapshot shipped to worker initializers.
PluginModules = Tuple[Tuple[str, Optional[str]], ...]


# ---------------------------------------------------------------------------
# Scenario evaluation (shared by the serial path and worker processes)
# ---------------------------------------------------------------------------
def _source_name(source: Any) -> str:
    return str(getattr(source, "value", source))


def derive_scenario_config(
    base_config: EstimatorConfig,
    fab_source: Optional[str],
    overrides: Optional[Mapping[str, Any]] = None,
) -> EstimatorConfig:
    """The estimator configuration a scenario evaluates under.

    One definition of the scenario→config semantics, shared by the scalar
    evaluator and :class:`repro.api.Session`: a scenario ``fab_source``
    replaces all three energy sources, then config-target axis overrides
    (:mod:`repro.axes`) are applied on top.
    """
    config = base_config
    if fab_source is not None:
        config = dataclasses.replace(
            config,
            fab_carbon_source=fab_source,
            package_carbon_source=fab_source,
            design_carbon_source=fab_source,
        )
    return apply_config_overrides(config, overrides)


def make_record(
    scenario: Scenario,
    system: ChipletSystem,
    report: SystemCarbonReport,
    fab_source: str,
    cost_usd: Optional[float] = None,
) -> Record:
    """Flatten one evaluated scenario into a JSON/CSV-friendly record.

    Metric keys deliberately match :data:`repro.core.explorer.OBJECTIVES`
    so reloaded records plug into the Pareto tooling unchanged.  The batch
    backend (:meth:`repro.fastpath.batch.BatchEstimator._record`) emits the
    same keys in the same order; the scalar-vs-batch parity suites enforce
    this.
    """
    record = scenario.to_record()
    record.update(
        {
            "system": system.name,
            "nodes": [float(n) for n in report.node_configuration],
            "packaging": report.packaging.architecture,
            "fab_source": fab_source,
            "lifetime_years": report.operational.lifetime_years,
            "system_volume": system.system_volume,
            "total_carbon_g": report.total_cfp_g,
            "embodied_carbon_g": report.embodied_cfp_g,
            "manufacturing_carbon_g": report.manufacturing_cfp_g,
            "design_carbon_g": report.design_cfp_g,
            "hi_carbon_g": report.hi_cfp_g,
            "operational_carbon_g": report.operational_cfp_g,
            "silicon_area_mm2": report.total_silicon_area_mm2,
            "package_area_mm2": report.packaging.package_area_mm2,
            "power_w": report.operational.energy.total_power_w,
        }
    )
    if cost_usd is not None:
        record["cost_usd"] = cost_usd
    return record


#: One evaluation group: scenario positions (indices into the run's scenario
#: list) and the scenarios at those positions.
Group = Tuple[List[int], List[Scenario]]

#: What a chunk of groups evaluates to: one ``(positions, block)`` pair per
#: group plus the per-scenario retry attempts spent on them.
ChunkResult = Tuple[List[Tuple[List[int], RecordBlock]], int]

#: The policy of engines built without one: the first failing scenario
#: raises its own exception, and a lost worker pool is not respawned.
FAIL_FAST = ResiliencePolicy(on_error="raise", max_pool_respawns=0)


class _GroupEvaluator:
    """Per-process evaluation context of either backend.

    ``attempt`` evaluates a whole group in one go; ``evaluate`` evaluates
    one scenario, the seam :func:`evaluate_contained` replays a group
    through.  Both are bound once, here: to the compiled templates of a
    :class:`~repro.fastpath.BatchEstimator` on the batch backend, to
    :meth:`oracle_record` on the scalar backend.  Both produce
    bit-identical records.
    """

    def __init__(
        self,
        backend: str,
        config: Optional[EstimatorConfig],
        include_cost: bool,
        table: Optional[TechnologyTable],
        policy: ResiliencePolicy,
        chaos: Optional[Any] = None,
        compile_cache: Optional[Any] = None,
        batch_estimator: Optional[Any] = None,
        in_worker: bool = False,
    ):
        self.policy = policy
        self.chaos = chaos
        self.in_worker = in_worker
        # The oracle's context (used on the scalar backend only).
        self.config = config if config is not None else EstimatorConfig()
        self.include_cost = include_cost
        self.table = table
        self._bases: Dict[Tuple[str, str], ChipletSystem] = {}
        # One estimator per (fab source, config-axis override signature):
        # config-target axes (repro.axes) produce distinct EstimatorConfigs.
        self._estimators: Dict[Tuple[Optional[str], Optional[Tuple]], EcoChip] = {}
        self._cost_model: Optional[Any] = None
        # Cost depends only on (base, nodes, NS) and any axis overrides —
        # not packaging, fab source or lifetime — so one evaluation serves
        # every scenario sharing them.
        self._cost_cache: Dict[
            Tuple[str, str, Optional[Tuple[float, ...]], float, Optional[Tuple]], float
        ] = {}
        self.attempt: Callable[[Sequence[Scenario]], RecordBlock]
        self.evaluate: Callable[[Scenario], Record]
        if backend == "scalar":
            self.evaluate = self.oracle_record
            self.attempt = lambda scenarios: RecordBlock(map(self.evaluate, scenarios))
            return
        batch = batch_estimator
        if batch is None:
            from repro.fastpath import BatchEstimator

            # ``compile_cache`` mounts the persistent on-disk template
            # cache: the first worker to compile a template persists it
            # for its siblings (and for every later run against the same
            # directory).
            batch = BatchEstimator(
                config=config,
                table=table,
                include_cost=include_cost,
                persistent_cache=compile_cache,
            )
        self.evaluate = batch.evaluate_scenario
        self.attempt = lambda scenarios: batch.evaluate_group(
            batch.compile_for(scenarios[0]), scenarios
        )

    def _base(self, scenario: Scenario) -> ChipletSystem:
        key = (scenario.base_kind, scenario.base_ref)
        system = self._bases.get(key)
        if system is None:
            system = resolve_base(scenario.base_kind, scenario.base_ref)
            self._bases[key] = system
        return system

    def _estimator(
        self, fab_source: Optional[str], overrides: Optional[Mapping[str, Any]] = None
    ) -> EcoChip:
        key = (fab_source, config_overrides_signature(overrides))
        estimator = self._estimators.get(key)
        if estimator is None:
            config = derive_scenario_config(self.config, fab_source, overrides)
            estimator = EcoChip(config=config, table=self.table)
            self._estimators[key] = estimator
        return estimator

    def _cost_usd(self, scenario: Scenario, system: ChipletSystem) -> float:
        """Dollar cost of the scenario's system (memoised)."""
        if self._cost_model is None:
            from repro.cost.model import ChipletCostModel

            # Same table as the batch backend's cost terms, so cost_usd
            # stays bit-identical across backends under custom tables.
            self._cost_model = ChipletCostModel(table=self.table)
        # Config-target axes never reach the cost model, so only the
        # system-target subset keys the cache (matches the batch compiler's
        # system-override-aware cost base key).
        key = (
            scenario.base_kind,
            scenario.base_ref,
            scenario.nodes,
            system.system_volume,
            system_overrides_signature(scenario.overrides),
        )
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = self._cost_model.estimate(system).total_cost_usd
            self._cost_cache[key] = cost
        return cost

    def oracle_record(self, scenario: Scenario) -> Record:
        """The reference record of one scenario: the full
        :meth:`EcoChip.estimate` pipeline (scalar backend only)."""
        system = scenario.build_system(base=self._base(scenario))
        estimator = self._estimator(scenario.fab_source, scenario.overrides)
        report = estimator.estimate(system)
        fab_source = (
            scenario.fab_source
            if scenario.fab_source is not None
            else _source_name(self.config.fab_carbon_source)
        )
        cost_usd = self._cost_usd(scenario, system) if self.include_cost else None
        return make_record(scenario, system, report, fab_source, cost_usd=cost_usd)


#: Worker-process evaluation context, built once per worker by the pool
#: initializer.
_WORKER: Optional[_GroupEvaluator] = None


def _init_worker(plugins: PluginModules, *args: Any) -> None:
    """Pool initializer: import the plugins, build the worker's evaluator."""
    global _WORKER
    import_plugin_modules(plugins)
    _WORKER = _GroupEvaluator(*args, in_worker=True)


def _evaluate_groups(
    groups: Sequence[Group], evaluator: Optional[_GroupEvaluator] = None
) -> ChunkResult:
    """Evaluate a chunk of groups, in ``evaluator`` or the worker's context.

    One attempt per group; when it raises, or a chaos plan is mounted, the
    group is replayed scenario by scenario under the policy, so error
    records, attempts and retries are those of per-scenario containment.
    A replayed group's block has no shared keys.
    """
    evaluator = evaluator if evaluator is not None else _WORKER
    assert evaluator is not None, "worker initializer did not run"
    blocks: List[Tuple[List[int], RecordBlock]] = []
    retries = 0
    for positions, scenarios in groups:
        records: Optional[RecordBlock] = None
        if evaluator.chaos is None:
            try:
                records = evaluator.attempt(scenarios)
            except Exception:  # noqa: BLE001 - replayed per scenario below
                records = None
        if records is None:
            records = RecordBlock()
            for scenario in scenarios:
                record, attempts_over = evaluate_contained(
                    evaluator.evaluate,
                    scenario,
                    evaluator.policy,
                    chaos=evaluator.chaos,
                    in_worker=evaluator.in_worker,
                )
                retries += attempts_over
                records.append(record)
        blocks.append((positions, records))
    return blocks, retries


def _annotate(block: RecordBlock, annotations: Mapping[str, Any]) -> RecordBlock:
    """``block`` with ``annotations`` merged into every record, as extra
    shared keys."""
    records = []
    for record in block:
        collisions = [key for key in annotations if key in record]
        if collisions:
            raise ValueError(
                f"annotate keys {sorted(collisions)} collide with record columns"
            )
        records.append({**record, **annotations})
    return RecordBlock(records, block.shared_keys + tuple(annotations))


def shard(items: Sequence[Any], chunk_size: int) -> List[List[Any]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    return [list(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


def prepare_resume(
    scenarios: Sequence[Scenario],
    resume: Union[ResultStore, str, "Path"],
) -> Tuple[List[Scenario], int, List[Record], bool]:
    """Shared resume preparation for :meth:`SweepEngine.run` and the CLI.

    Repairs a torn store tail left by a crash, loads the records already on
    disk, and filters out the scenarios whose ids they cover.

    Returns:
        ``(remaining_scenarios, skipped_count, existing_records, repaired)``
        — ``existing_records`` lets callers fold already-computed results
        into best/top/Pareto summaries so a resumed run reports on the whole
        sweep, not just the newly evaluated tail.
    """
    repaired = repair_torn_tail(resume)
    path = resume.path if isinstance(resume, ResultStore) else Path(resume)
    existing: List[Record] = []
    if path.is_file() and path.stat().st_size > 0:
        existing = list(_iter_store_records(path))
    done_ids = {
        int(record["scenario"])
        for record in existing
        if record.get("scenario") is not None
    }
    scenarios = list(scenarios)
    if not done_ids:
        return scenarios, 0, existing, repaired
    remaining = [s for s in scenarios if s.index not in done_ids]
    return remaining, len(scenarios) - len(remaining), existing, repaired


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepSummary:
    """Outcome of one :meth:`SweepEngine.run`.

    Attributes:
        scenario_count: Number of scenarios evaluated.
        elapsed_s: Wall-clock duration of the run.
        jobs: Parallelism the run used.
        best: Record with the lowest ``total_carbon_g`` (``None`` when the
            spec was empty).
        store_path: Where records were streamed (``None`` without a store).
        skipped_count: Scenarios skipped because a resume store already
            contained their ids.
        backend: Evaluation backend the run used.
        cached: True when the whole run was served from a Session-level
            result cache without evaluating any scenario
            (:class:`repro.api.Session` with a shared ``result_cache``).
        error_count: Scenarios contained as structured error records
            (resilience policies with ``on_error="record"`` only).
        retry_count: Total per-scenario retry attempts across the run.
        error_codes: ``(code, count)`` pairs summarising the error
            records, sorted by code.
    """

    scenario_count: int
    elapsed_s: float
    jobs: int
    best: Optional[Record]
    store_path: Optional[str] = None
    skipped_count: int = 0
    backend: str = "batch"
    cached: bool = False
    error_count: int = 0
    retry_count: int = 0
    error_codes: Tuple[Tuple[str, int], ...] = ()

    @property
    def scenarios_per_second(self) -> float:
        """Evaluation throughput."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.scenario_count / self.elapsed_s


#: Evaluation backends of :class:`SweepEngine`.
BACKENDS = ("scalar", "batch")


class SweepEngine:
    """Evaluates sweep scenarios, serially or across worker processes.

    Every run goes through one contained evaluation loop (see the module
    docstring): one attempt per scenario group, replayed per scenario only
    when the attempt raises or a chaos plan is mounted.

    Args:
        jobs: Worker processes; ``1`` runs serially in-process.  Scenario
            shards are sized automatically: about ``8 x jobs`` slices of at
            most 256 scenarios on the scalar backend, about ``4 x jobs``
            chunks of whole template groups on the batch backend.
        config: Estimator configuration shared by all scenarios (scenario
            ``fab_source`` overrides the energy sources per scenario).
        backend: ``"batch"`` (default) groups scenarios by compiled
            template (:mod:`repro.fastpath`) and evaluates each group as
            flat arithmetic.  ``"scalar"`` is the reference oracle the
            batch backend is checked against: plain
            :meth:`EcoChip.estimate`, :class:`~repro.cost.model.ChipletCostModel`
            and :func:`make_record` per scenario, bit-identical records at
            an order of magnitude lower throughput.
        include_cost: Add ``cost_usd`` (the Chiplet-Actuary-style dollar
            cost) to every record.
        mp_context: Multiprocessing start method for worker pools
            (``"fork"``, ``"spawn"``, ``"forkserver"``); ``None`` uses the
            platform default.  Workers re-import out-of-tree packaging
            plugins in their initializer, so plugin sweeps work under every
            start method.
        table: Technology table override, honoured by both backends and
            shipped to worker processes (``None`` uses the built-in table).
        batch_estimator: A pre-built :class:`repro.fastpath.BatchEstimator`
            to evaluate with instead of creating a fresh one per run.  Lets
            a long-lived process (:mod:`repro.serve`) share one compiled-
            template cache across many runs.  Only meaningful with
            ``backend="batch"`` and ``jobs=1`` (worker processes cannot
            share an in-process cache); it must have been built with the
            same ``config``/``table``/``include_cost`` as this engine.
        compile_cache: Persistent on-disk compile cache for the batch
            backend — a directory path or a
            :class:`repro.fastpath.DiskCompileCache`.  ``jobs=1`` mounts it
            on the run's estimator; ``jobs>1`` mounts it in every worker
            process, so templates compile once *across* workers, runs and
            restarts (records stay bit-identical to a cold compile).
            Mutually exclusive with ``batch_estimator`` — mount the cache
            on the shared estimator itself instead.
        resilience: Optional :class:`repro.resilience.ResiliencePolicy`.
            A raising scenario is retried per the policy and then
            (``on_error="record"``) captured as a structured error record
            instead of aborting the sweep; hung or dead worker pools are
            detected, their unfinished chunks requeued and the pool
            respawned (bounded by the policy's respawn budget).  ``None``
            means :data:`FAIL_FAST`: the first failing scenario raises its
            own exception, and a worker death on a parallel run raises
            :class:`~repro.resilience.WorkerLostError` once the records of
            every chunk finished before it have been yielded.
        chaos: Optional :class:`repro.resilience.ChaosPlan` injecting
            deterministic faults before scenario evaluations (test
            harness).  Parallel runs require a resilience policy and a
            plan with a ``state_dir``, so fault accounting survives
            worker death.
    """

    def __init__(
        self,
        jobs: int = 1,
        config: Optional[EstimatorConfig] = None,
        backend: str = "batch",
        include_cost: bool = True,
        mp_context: Optional[str] = None,
        table: Optional[TechnologyTable] = None,
        batch_estimator: Optional[Any] = None,
        compile_cache: Optional[Any] = None,
        resilience: Optional[ResiliencePolicy] = None,
        chaos: Optional[Any] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known backends: {list(BACKENDS)}"
            )
        if mp_context is not None:
            known = multiprocessing.get_all_start_methods()
            if mp_context not in known:
                raise ValueError(
                    f"unknown multiprocessing start method {mp_context!r}; "
                    f"available on this platform: {known}"
                )
        if batch_estimator is not None and (backend != "batch" or jobs != 1):
            raise ValueError(
                "batch_estimator requires backend='batch' and jobs=1 "
                f"(got backend={backend!r}, jobs={jobs})"
            )
        if compile_cache is not None:
            if backend != "batch":
                raise ValueError(
                    "compile_cache requires backend='batch' (the scalar "
                    f"backend compiles no templates; got backend={backend!r})"
                )
            if batch_estimator is not None:
                raise ValueError(
                    "compile_cache and batch_estimator are mutually "
                    "exclusive; mount the persistent cache on the shared "
                    "estimator (BatchEstimator(persistent_cache=...)) instead"
                )
            from repro.fastpath import as_disk_cache

            compile_cache = as_disk_cache(compile_cache)
        if chaos is not None and jobs > 1:
            if resilience is None:
                raise ValueError(
                    "chaos injection on parallel sweeps (jobs > 1) requires a "
                    "resilience policy: injected worker deaths must be "
                    "survivable"
                )
            if getattr(chaos, "state_dir", None) is None:
                raise ValueError(
                    "chaos plans need a state_dir for parallel sweeps "
                    "(jobs > 1): fault accounting must survive worker death"
                )
        self.jobs = jobs
        self.config = config
        self.backend = backend
        self.include_cost = include_cost
        self.mp_context = mp_context
        self.table = table
        self.batch_estimator = batch_estimator
        self.compile_cache = compile_cache
        self.resilience = resilience
        self.chaos = chaos
        #: Per-scenario retry attempts observed by the last iter_records.
        self.last_retry_count: int = 0

    # -- worker supervision -----------------------------------------------------------
    def _run_chunks(
        self, chunks: List[List[Group]], policy: ResiliencePolicy
    ) -> Iterator[ChunkResult]:
        """Evaluate chunks on a supervised pool, yielding results in order.

        Every chunk is submitted as its own future; a chunk's result is
        yielded as soon as it and every earlier chunk are done, under a
        soft deadline of ``scenario_timeout_s x chunk scenarios + grace``.
        A deadline miss (hung worker) or a :class:`BrokenProcessPool`
        (dead worker) kills the whole pool, harvests the chunks that *did*
        complete, and respawns a fresh pool for the rest, at most
        ``max_pool_respawns`` times.  After that the still-unevaluated
        chunks become ``worker-lost`` error records or the loss is raised,
        per ``on_error``, so a crash-looping plugin degrades the sweep
        instead of wedging it.  No chunk is yielded twice.
        """
        context = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context is not None
            else None
        )
        initargs = (
            plugin_modules(), self.backend, self.config, self.include_cost,
            self.table, policy, self.chaos, self.compile_cache,
        )
        done: Dict[int, ChunkResult] = {}
        next_chunk = 0
        respawns_left = policy.max_pool_respawns
        while next_chunk < len(chunks):
            todo = [i for i in range(next_chunk, len(chunks)) if i not in done]
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(todo)),
                mp_context=context,
                initializer=_init_worker,
                initargs=initargs,
            )
            futures = {i: pool.submit(_evaluate_groups, chunks[i]) for i in todo}
            pool_lost = False
            try:
                for index in todo:
                    timeout = None
                    if policy.scenario_timeout_s is not None:
                        weight = sum(len(positions) for positions, _ in chunks[index])
                        timeout = (
                            policy.scenario_timeout_s * max(1, weight)
                            + policy.timeout_grace_s
                        )
                    done[index] = futures[index].result(timeout=timeout)
                    while next_chunk in done:
                        yield done.pop(next_chunk)
                        next_chunk += 1
            except (_FuturesTimeout, BrokenProcessPool, EOFError):
                # Hung or dead worker(s): harvest every chunk that did
                # complete, requeue the rest on a fresh pool.
                pool_lost = True
                for index, future in futures.items():
                    if index < next_chunk or index in done or not future.done():
                        continue
                    try:
                        done[index] = future.result(timeout=0)
                    except Exception:  # noqa: BLE001 - broken future
                        continue
            finally:
                if pool_lost:
                    # Hung workers never return; terminate them so shutdown
                    # cannot block behind a stuck evaluation.
                    for process in list(getattr(pool, "_processes", {}).values()):
                        try:
                            process.terminate()
                        except Exception:  # noqa: BLE001 - already dead
                            pass
                    pool.shutdown(wait=False, cancel_futures=True)
                else:
                    pool.shutdown(wait=True, cancel_futures=True)
            while next_chunk in done:
                yield done.pop(next_chunk)
                next_chunk += 1
            if next_chunk == len(chunks):
                break
            if respawns_left > 0:
                respawns_left -= 1
                continue
            lost = WorkerLostError(
                "worker pool lost and respawn budget exhausted; "
                "remaining scenarios were not evaluated"
            )
            if policy.on_error != "record":
                raise lost
            for index in range(next_chunk, len(chunks)):
                yield done.pop(index, None) or (
                    [
                        (
                            positions,
                            RecordBlock(
                                error_record(scenario, lost) for scenario in scenarios
                            ),
                        )
                        for positions, scenarios in chunks[index]
                    ],
                    0,
                )
            break

    # -- streaming ------------------------------------------------------------------
    def _resolve_scenarios(
        self, sweep: Union[SweepSpec, Iterable[Scenario]]
    ) -> List[Scenario]:
        if isinstance(sweep, SweepSpec):
            return sweep.expand()
        return list(sweep)

    def _chunks(self, scenarios: List[Scenario]) -> List[List[Group]]:
        """The run's groups, sharded into chunks for worker processes.

        Batch groups are template groups in first-occurrence order, about
        ``4 x jobs`` chunks of whole groups, so each template compiles in
        exactly one worker.  Scalar groups are contiguous slices of about
        ``len / (8 x jobs)`` scenarios (at most 256), one per chunk; at
        ``jobs=1`` they are single scenarios, so records stream one by one.
        """
        if self.backend == "batch":
            from repro.fastpath import group_scenarios

            groups = [
                ([position for position, _ in members], [s for _, s in members])
                for _, members in group_scenarios(scenarios)
            ]
            return shard(groups, max(1, -(-len(groups) // (self.jobs * 4))))
        size = 1
        if self.jobs > 1:
            size = max(1, min(256, -(-len(scenarios) // (self.jobs * 8))))
        return [
            [(list(range(start, start + size)), scenarios[start : start + size])]
            for start in range(0, len(scenarios), size)
        ]

    def iter_records(self, sweep: Union[SweepSpec, Iterable[Scenario]]) -> Iterator[Record]:
        """Yield one flattened record per scenario, in scenario order.

        Every combination of backend and ``jobs`` runs the same per-scenario
        arithmetic, so the records (and any totals derived from them) are
        bit-identical across all of them, including structured error
        records under a resilience policy.
        """
        for block in self._iter_blocks(self._resolve_scenarios(sweep)):
            yield from block

    def _iter_blocks(self, scenarios: List[Scenario]) -> Iterator[RecordBlock]:
        """The records of ``scenarios`` in scenario order, as blocks.

        A group whose positions are contiguous travels as its evaluated
        block once it reaches the head of the order buffer; a group that
        is not (scenario orders that interleave templates) is split into
        blocks of one record, so records never leave scenario order.
        """
        self.last_retry_count = 0
        if not scenarios:
            return
        policy = self.resilience if self.resilience is not None else FAIL_FAST
        chunks = self._chunks(scenarios)
        if self.jobs == 1:
            evaluator = _GroupEvaluator(
                self.backend, self.config, self.include_cost, self.table,
                policy, self.chaos, self.compile_cache, self.batch_estimator,
            )
            results: Iterable[ChunkResult] = (
                _evaluate_groups([group], evaluator)
                for chunk in chunks
                for group in chunk
            )
        else:
            results = self._run_chunks(chunks, policy)
        # Blocks are buffered only while a group completes out of input
        # order; spec-expanded grids (template axes outermost) keep groups
        # contiguous, so memory stays bounded by the largest group.
        pending: Dict[int, RecordBlock] = {}
        next_position = 0
        for blocks, retries in results:
            self.last_retry_count += retries
            for positions, block in blocks:
                if positions[-1] - positions[0] == len(positions) - 1:
                    pending[positions[0]] = block
                else:
                    for position, record in zip(positions, block):
                        pending[position] = RecordBlock((record,))
            while next_position in pending:
                block = pending.pop(next_position)
                yield block
                next_position += len(block)

    # -- one-shot -------------------------------------------------------------------
    def run(
        self,
        sweep: Union[SweepSpec, Iterable[Scenario]],
        store: Optional[ResultStore] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        resume: Optional[Union[ResultStore, str, "Path"]] = None,
        on_record: Optional[Callable[[Record], None]] = None,
        annotate: Optional[Mapping[str, Any]] = None,
    ) -> SweepSummary:
        """Evaluate every scenario, streaming records into ``store``.

        Args:
            sweep: A spec (expanded here) or pre-expanded scenarios.
            store: Streaming result store; each evaluated group is written
                with one :meth:`ResultStore.extend` as soon as it and every
                scenario before it are computed.
            progress: Optional ``(done, total)`` callback per record.
            resume: A store (or store path) from a previous run of the same
                spec: scenarios whose ids already appear in it are skipped
                (a torn final line from a crash is repaired first), and the
                stored records compete for :attr:`SweepSummary.best` so the
                summary covers the whole sweep.  Usually the same file as
                ``store``, opened with ``append=True`` so old and new
                records accumulate together.
            on_record: Optional callback invoked with every record, in
                scenario order, after its block reached the ``store``.  Used by
                :class:`repro.api.Session` to collect records without
                round-tripping through a file.
            annotate: Constant extra columns merged into every record of
                this run before it reaches the store and callbacks (e.g.
                the ``search_round`` column :mod:`repro.search` stamps on
                each evaluation batch).  A key that collides with a record
                column raises :class:`ValueError` — annotations may never
                silently overwrite evaluation output.

        Returns:
            A :class:`SweepSummary` with counts, timing and the best record.
        """
        scenarios = self._resolve_scenarios(sweep)
        annotations = dict(annotate) if annotate else None
        skipped = 0
        best: Optional[Record] = None
        if resume is not None:
            scenarios, skipped, existing, _ = prepare_resume(scenarios, resume)
            for record in existing:
                total_g = record.get("total_carbon_g")
                if total_g is not None and (
                    best is None or total_g < best["total_carbon_g"]
                ):
                    best = record
        total = len(scenarios)
        done = 0
        error_count = 0
        error_codes: Dict[str, int] = {}
        start = time.perf_counter()
        for block in self._iter_blocks(scenarios):
            if annotations is not None:
                block = _annotate(block, annotations)
            if store is not None:
                store.extend(block)
            for record in block:
                if on_record is not None:
                    on_record(record)
                if is_error_record(record):
                    error_count += 1
                    code = (error_info(record) or {}).get("code", "evaluation-error")
                    error_codes[code] = error_codes.get(code, 0) + 1
                elif best is None or record["total_carbon_g"] < best["total_carbon_g"]:
                    best = record
                done += 1
                if progress is not None:
                    progress(done, total)
        elapsed = time.perf_counter() - start
        return SweepSummary(
            scenario_count=done,
            elapsed_s=elapsed,
            jobs=self.jobs,
            best=best,
            store_path=str(store.path) if store is not None else None,
            skipped_count=skipped,
            backend=self.backend,
            error_count=error_count,
            retry_count=self.last_retry_count,
            error_codes=tuple(sorted(error_codes.items())),
        )

