"""Active database substrate: events, ECA rules, engine, and the
constraint-to-trigger compiler (the Chomicki–Toman implementation
route for temporal integrity constraints)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.active.compiler import ActiveChecker
    from repro.active.engine import ActiveDatabase
    from repro.active.events import Event, EventPattern, events_of
    from repro.active.rules import Rule

__all__ = [
    "ActiveChecker",
    "ActiveDatabase",
    "Event",
    "EventPattern",
    "Rule",
    "events_of",
]

lazy_surface(__name__, {
    "repro.active.compiler": ("ActiveChecker",),
    "repro.active.engine": ("ActiveDatabase",),
    "repro.active.events": ("Event", "EventPattern", "events_of"),
    "repro.active.rules": ("Rule",),
})
