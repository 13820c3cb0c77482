"""Benchmark and example workloads: schema + constraints + simulators."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.workloads.base import Workload
    from repro.workloads.library import library_workload
    from repro.workloads.orders import orders_workload
    from repro.workloads.payments import payments_workload
    from repro.workloads.random_workload import (
        join_constraint,
        nested_constraint,
        random_workload,
        since_constraint,
        window_constraint,
    )
    from repro.workloads.sensors import sensors_workload

__all__ = [
    "Workload",
    "join_constraint",
    "library_workload",
    "nested_constraint",
    "orders_workload",
    "payments_workload",
    "random_workload",
    "sensors_workload",
    "since_constraint",
    "window_constraint",
]

lazy_surface(__name__, {
    "repro.workloads.base": ("Workload",),
    "repro.workloads.library": ("library_workload",),
    "repro.workloads.orders": ("orders_workload",),
    "repro.workloads.payments": ("payments_workload",),
    "repro.workloads.random_workload": (
        "join_constraint", "nested_constraint", "random_workload",
        "since_constraint", "window_constraint",
    ),
    "repro.workloads.sensors": ("sensors_workload",),
})
