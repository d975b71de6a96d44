"""Parallel scenario-sweep engine for large carbon design-space studies.

The paper's closing argument (Section VI) is that carbon must be treated as
a first-order design metric, which requires evaluating *large* scenario
spaces — every node assignment times every packaging architecture times
every fab energy source, lifetime and manufacturing volume.  This package
provides the scale-out machinery for that:

:mod:`repro.sweep.spec`
    Declarative :class:`~repro.sweep.spec.SweepSpec` scenario grids with
    cartesian-product expansion and named presets.
:mod:`repro.sweep.engine`
    :class:`~repro.sweep.engine.SweepEngine` — sharded, process-parallel
    scenario evaluation on the compiled batch backend (see
    :mod:`repro.fastpath`), a deterministic serial fallback and
    resume-from-store; ``backend="scalar"`` is the reference oracle the
    batch records are bit-identical to.
:mod:`repro.sweep.store`
    Streaming JSONL/CSV result stores (crash-safe, constant memory, one
    write per :class:`~repro.sweep.store.RecordBlock`) and row adapters feeding :func:`repro.core.explorer.pareto_front`.
"""

from repro.sweep.engine import (
    BACKENDS,
    SweepEngine,
    SweepSummary,
    prepare_resume,
)
from repro.sweep.spec import PRESETS, Scenario, SweepSpec, load_spec
from repro.sweep.store import (
    CsvResultStore,
    JsonlResultStore,
    RecordBlock,
    SweepRow,
    completed_scenario_ids,
    iter_records,
    load_records,
    load_rows,
    open_store,
    repair_torn_tail,
    rows_from_records,
)

__all__ = [
    "BACKENDS",
    "completed_scenario_ids",
    "prepare_resume",
    "repair_torn_tail",
    "SweepSpec",
    "Scenario",
    "PRESETS",
    "load_spec",
    "SweepEngine",
    "SweepSummary",
    "JsonlResultStore",
    "CsvResultStore",
    "RecordBlock",
    "SweepRow",
    "open_store",
    "iter_records",
    "load_records",
    "load_rows",
    "rows_from_records",
]
