"""Unified auxiliary-state accounting: the ``state_profile`` protocol.

Before this module each engine grew its own ad-hoc space hooks (three
divergent ``aux_tuple_count`` implementations, a ``stored_tuples``, a
``_plan_tuples``), which made cross-engine space claims — the paper's
central claims — hard to audit.  Every checking engine now answers the
same accounting questions through one documented protocol:

``aux_tuple_count() -> int``
    Stored (valuation, timestamp) entries across all auxiliary
    relations — the paper's space measure.  Engines without auxiliary
    relations (the naive checkers) report 0 here and expose their real
    footprint through engine-specific sections of ``state_profile``.

``aux_valuation_count() -> int``
    Distinct stored valuations across all auxiliary relations.

``aux_profile() -> Dict[str, int]``
    Per-temporal-subformula stored-entry counts.  Keys are **stable**:
    always ``str(node)`` of the temporal subformula, identical across
    engines monitoring the same constraints.

``aux_nodes() -> List[Formula]``
    The temporal subformulas with attributable auxiliary state, in
    registration (bottom-up) order.

``iter_state_valuations() -> Iterator[(label, valuation, weight)]``
    Every stored valuation with its entry count, labelled by node —
    the feed for heavy-hitter skew sketches.

``state_profile(deep=True) -> Dict``
    The full accounting snapshot::

        {
          "engine": <engine_label>,
          "nodes": {
            "<str(node)>": {
              "kind": ..., "tuples": ..., "valuations": ...,
              "bytes": ...,      # None when deep=False
              "oldest": ...,     # oldest retained anchor timestamp
              "constraints": [names sharing this node],
            }, ...
          },
          "total": {"tuples": ..., "valuations": ..., "bytes": ...},
          "space_tuples": <the uniform space hook value>,
        }

    plus engine-specific sections: ``"buffer"`` (delayed checker's
    verdict-delay window), ``"history"`` (naive checkers), ``"domain"``
    (active-domain checker).  ``deep=False`` skips the byte walk (the
    only expensive part), letting per-step samplers stay cheap.

:class:`AuxAccounting` implements the protocol once over a
``_aux: Dict[Formula, AuxiliaryState]`` map, and every engine inherits
it (the pure-past ones through :class:`repro.core.engine.Engine`):
incremental, active-domain and delayed fill the map, the naive engines
leave it empty and add their ``history`` section, and the active engine
overrides the hooks over its auxiliary tables.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.auxiliary import (
    AuxiliaryState,
    OnceState,
    SinceState,
    deep_size,
)
from repro.core.formulas import Formula
from repro.db.types import Row


def constraint_node_names(constraints) -> Dict[Formula, List[str]]:
    """Map each temporal subformula to the constraints that share it."""
    shared: Dict[Formula, List[str]] = {}
    for c in constraints:
        for node in c.violation_formula.temporal_subformulas():
            names = shared.setdefault(node, [])
            if c.name not in names:
                names.append(c.name)
    return shared


def profile_totals(nodes: Dict[str, Dict]) -> Dict[str, object]:
    """Fold per-node profiles into the ``total`` section."""
    any_bytes = any(p.get("bytes") is not None for p in nodes.values())
    return {
        "tuples": sum(p["tuples"] for p in nodes.values()),
        "valuations": sum(p["valuations"] for p in nodes.values()),
        "bytes": (
            sum(p["bytes"] or 0 for p in nodes.values())
            if any_bytes
            else None
        ),
    }


class AuxAccounting:
    """The ``state_profile`` protocol over a ``_aux`` node map.

    Inherited by every engine; one
    :class:`~repro.core.auxiliary.AuxiliaryState` per temporal node in
    ``_aux`` is what it accounts.  Subclasses extend :meth:`state_profile` with their own sections
    (delay buffer, active domain) and override :meth:`space_tuples`
    when their footprint includes more than the auxiliary relations.
    """

    def aux_nodes(self) -> List[Formula]:
        """Temporal subformulas with attributable auxiliary state."""
        return list(self._aux.keys())

    def auxiliary_of(
        self, node: Formula
    ) -> Optional[Tuple[AuxiliaryState, Dict[str, str]]]:
        """The auxiliary state serving ``node`` and the renaming from
        that state's valuation columns to ``node``'s (empty: they are
        the same); ``None`` when no state serves it.  An engine whose
        states serve several nodes overrides this."""
        aux = self._aux.get(node)
        return None if aux is None else (aux, {})

    def _aux_labels(self) -> Dict[Formula, str]:
        """Cached ``node -> str(node)`` map (labels are per-step keys;
        re-rendering formulas every step would dominate the sampler).

        Engines that already maintain a ``_node_labels`` dict for their
        instrumentation hooks share it; others get a lazy cache.
        """
        labels = getattr(self, "_node_labels", None)
        if isinstance(labels, dict) and len(labels) == len(self._aux):
            return labels
        cache = getattr(self, "_aux_label_cache", None)
        if cache is None or len(cache) != len(self._aux):
            cache = {node: str(node) for node in self._aux}
            self._aux_label_cache = cache
        return cache

    def aux_tuple_count(self) -> int:
        """Total (valuation, timestamp) entries across all auxiliary
        relations — the paper's space measure."""
        return sum(a.tuple_count() for a in self._aux.values())

    def aux_valuation_count(self) -> int:
        """Total distinct valuations across all auxiliary relations."""
        return sum(a.valuation_count() for a in self._aux.values())

    def aux_profile(self) -> Dict[str, int]:
        """Per-temporal-subformula stored-entry counts (stable keys)."""
        return {
            str(node): aux.tuple_count() for node, aux in self._aux.items()
        }

    def aux_counts(self) -> Dict[str, Tuple[int, int]]:
        """Per-node ``(tuples, valuations)`` — the cheap per-step sample
        the state observatory's bound-conformance check runs on."""
        labels = self._aux_labels()
        return {
            labels[node]: (aux.tuple_count(), aux.valuation_count())
            for node, aux in self._aux.items()
        }

    def space_tuples(self) -> int:
        """Uniform space hook (stored tuples); every engine has one."""
        return self.aux_tuple_count()

    def tier_profile(self) -> Dict[str, Dict[str, object]]:
        """Per-node storage-tier classification: resident vs spilled.

        The durable store splits checkpoint state exactly along the
        paper's bounded-history line: a bounded-window node's tuples
        are **hot** — read every step, kept in RAM and in the hot
        checkpoint document — while an unbounded ``ONCE``/``SINCE``
        node collapses to minimal anchors that are written once and
        read only at checkpoint/recovery time, so the store spills
        them **cold** to its SQLite tier.  Keys are the stable
        ``str(node)`` labels the rest of the protocol uses.
        """
        labels = self._aux_labels()
        profile: Dict[str, Dict[str, object]] = {}
        for node, aux in self._aux.items():
            cold = isinstance(aux, (OnceState, SinceState)) and not (
                getattr(node, "interval", None) is not None
                and node.interval.is_bounded
            )
            profile[labels[node]] = {
                "tier": "cold" if cold else "hot",
                "tuples": aux.tuple_count(),
                "valuations": aux.valuation_count(),
            }
        return profile

    def tier_totals(self) -> Dict[str, int]:
        """Tuple totals by tier: ``{"hot": n, "cold": m}``.

        ``cold`` counts the anchor entries a durable checkpoint would
        spill to disk; ``hot`` is what stays in the checkpoint
        document (and always in RAM).
        """
        totals = {"hot": 0, "cold": 0}
        for entry in self.tier_profile().values():
            totals[entry["tier"]] += entry["tuples"]
        return totals

    def iter_state_valuations(self) -> Iterator[Tuple[str, Row, int]]:
        """Yield ``(node label, valuation, stored entries)`` triples."""
        for node, aux in self._aux.items():
            label = str(node)
            for valuation, weight in aux.iter_valuations():
                yield label, valuation, weight

    def state_profile(self, deep: bool = True) -> Dict[str, object]:
        """Full accounting snapshot (see the module docstring)."""
        owners: Dict[int, set] = {}
        for node, names in constraint_node_names(self.constraints).items():
            found = self.auxiliary_of(node)
            if found is not None:
                owners.setdefault(id(found[0]), set()).update(names)
        nodes: Dict[str, Dict] = {}
        for node, aux in self._aux.items():
            entry = aux.state_profile(deep)
            entry["constraints"] = sorted(owners.get(id(aux), ()))
            nodes[str(node)] = entry
        return {
            "engine": self.engine_label,
            "nodes": nodes,
            "total": profile_totals(nodes),
            "space_tuples": self.space_tuples(),
        }

    @property
    def temporal_node_count(self) -> int:
        """Number of distinct temporal subformulas being tracked."""
        return len(self._aux)


__all__ = [
    "AuxAccounting",
    "constraint_node_names",
    "deep_size",
    "profile_totals",
]
