"""Built-in sweepable axes for the paper-relevant non-core knobs.

These are the estimator knobs the paper varies (or holds at a stated
default) that the legacy five-axis grid cannot sweep:

* ``wafer_diameter_mm`` — Section III-C(3) sweeps 25–450 mm wafers for the
  waste model; the headline results use 450 mm.
* ``defect_density_scale`` — scales every node's Table-I defect density in
  the negative-binomial yield model (Eq. 4), the knob behind the paper's
  yield-sensitivity discussion.
* ``router_spec`` — the ORION router microarchitecture (ports, flit width,
  virtual channels, ...) behind the interposer NoC area/power figures.
* operating-spec fields — measured power, duty cycle, supply voltage and
  the use-phase energy source feeding Eqs. 3/14.

Each axis is an ordinary :func:`repro.axes.register_axis` registration —
exactly the API out-of-tree plugins use (see ``examples/custom_axis.py``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Mapping

from repro.axes.registry import register_axis
from repro.noc.orion import RouterSpec
from repro.technology.carbon_sources import carbon_intensity

_ROUTER_FIELDS = frozenset(field.name for field in dataclasses.fields(RouterSpec))


def _require_positive(label: str):
    def validate(value: Any) -> None:
        number = float(value)
        if not (math.isfinite(number) and number > 0):
            raise ValueError(f"{label} must be positive and finite, got {value!r}")

    return validate


def _require_fraction(label: str):
    def validate(value: Any) -> None:
        number = float(value)
        if not 0.0 <= number <= 1.0:
            raise ValueError(f"{label} must be in [0, 1], got {value!r}")

    return validate


def _replace_config(field: str):
    def apply(config: Any, value: Any) -> Any:
        return dataclasses.replace(config, **{field: float(value)})

    return apply


def _replace_operating(field: str):
    def apply(system: Any, value: Any) -> Any:
        return system.with_operating(
            dataclasses.replace(system.operating, **{field: value})
        )

    return apply


def _replace_operating_float(field: str):
    def apply(system: Any, value: Any) -> Any:
        return system.with_operating(
            dataclasses.replace(system.operating, **{field: float(value)})
        )

    return apply


# -- manufacturing-side config axes ---------------------------------------------
register_axis(
    "wafer_diameter_mm",
    "config",
    apply=_replace_config("wafer_diameter_mm"),
    validate=_require_positive("wafer diameter"),
    description="Wafer diameter in mm for the dies-per-wafer/waste model "
    "(paper sweeps 25-450, default 450)",
)

register_axis(
    "defect_density_scale",
    "config",
    apply=_replace_config("defect_density_scale"),
    validate=_require_positive("defect-density scale"),
    description="Multiplier on every node's Table-I defect density in the "
    "Eq. 4 die-yield model (default 1.0)",
)


# -- NoC router / PHY spec -------------------------------------------------------
def _validate_router_spec(value: Any) -> None:
    if not isinstance(value, Mapping):
        raise TypeError(
            f"router_spec values must be mappings of RouterSpec fields "
            f"(e.g. {{'ports': 8}}), got {value!r}"
        )
    unknown = set(value) - _ROUTER_FIELDS
    if unknown:
        raise ValueError(
            f"unknown RouterSpec field(s) {sorted(unknown)}; known fields: "
            f"{sorted(_ROUTER_FIELDS)}"
        )
    RouterSpec(**dict(value))  # field validation (positive ports, ...)


def _apply_router_spec(config: Any, value: Mapping[str, Any]) -> Any:
    return dataclasses.replace(
        config, router_spec=dataclasses.replace(config.router_spec, **dict(value))
    )


register_axis(
    "router_spec",
    "config",
    apply=_apply_router_spec,
    validate=_validate_router_spec,
    description="NoC router microarchitecture overrides for interposer "
    "packages, e.g. {ports: 8, flit_width_bits: 256}",
)


# -- operating-spec system axes --------------------------------------------------
register_axis(
    "operating_power_w",
    "system",
    apply=_replace_operating_float("average_power_w"),
    validate=_require_positive("operating power"),
    description="Measured average use-phase power in W (overrides the "
    "Eq. 14 derivation)",
)

register_axis(
    "annual_energy_kwh",
    "system",
    apply=_replace_operating_float("annual_energy_kwh"),
    validate=_require_positive("annual energy"),
    description="Measured annual use-phase energy in kWh (overrides "
    "everything else in the operating spec)",
)

register_axis(
    "duty_cycle",
    "system",
    apply=_replace_operating_float("duty_cycle"),
    validate=_require_fraction("duty cycle"),
    description="Fraction of wall-clock time the system is ON "
    "(Table I uses 5-20%)",
)

register_axis(
    "vdd_v",
    "system",
    apply=_replace_operating_float("vdd_v"),
    validate=_require_positive("supply voltage"),
    description="Supply voltage in V (default: area-weighted average of "
    "the chiplet nodes' nominal Vdd)",
)


def _validate_use_source(value: Any) -> None:
    carbon_intensity(value)  # raises KeyError/ValueError for unknown sources


register_axis(
    "use_carbon_source",
    "system",
    apply=_replace_operating("use_carbon_source"),
    validate=_validate_use_source,
    description="Energy source of the use phase (any named carbon source "
    "or a g/kWh intensity)",
)
