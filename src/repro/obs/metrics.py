"""Metric primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` holds metric *families* keyed by name; each
family fans out into labelled children (``engine="incremental"``,
``constraint="return-window"``, ...) created on demand::

    registry = MetricsRegistry()
    registry.counter("repro_violations_total",
                     engine="incremental", constraint="c1").inc()
    registry.histogram("repro_step_seconds",
                       engine="incremental").observe(0.0003)

Histograms use *fixed* bucket upper bounds chosen at creation (the
Prometheus model: cumulative bucket counts, a running sum, a total
count), so observation is O(log buckets) and export needs no raw
samples.  Exporters live in :mod:`repro.obs.export`.

Everything here is pure Python with no locks: the monitor is
single-threaded per checker, which is the unit a registry instruments.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Default latency bucket upper bounds (seconds): 1µs .. 1s, roughly
#: logarithmic, chosen so the paper's µs-scale step times land in the
#: resolved low range while pathological steps still bucket sensibly.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0,
)

#: Default size bucket upper bounds (rows / tuples per observation).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, violations, ...)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (aux tuples, queue depth, ...)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` minus
    those counted by earlier buckets (i.e. non-cumulative internally);
    observations above the last bound only land in the implicit
    ``+Inf`` bucket, represented by :attr:`count`.
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in buckets)
        for index, bound in enumerate(ordered):
            if bound != bound or bound <= 0 or bound == float("inf"):
                raise ValueError(
                    f"histogram bucket bounds must be strictly positive "
                    f"finite numbers; bound {index} is {bound!r}"
                )
            if index and bound <= ordered[index - 1]:
                raise ValueError(
                    f"histogram bucket bounds must be strictly "
                    f"increasing; bound {index} ({bound!r}) does not "
                    f"exceed bound {index - 1} ({ordered[index - 1]!r})"
                )
        self.buckets = ordered
        self.bucket_counts: List[int] = [0] * len(ordered)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        index = bisect_left(self.buckets, value)
        if index < len(self.buckets):
            self.bucket_counts[index] += 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram, in place.

        Merging is associative and commutative (bucket counts, sum, and
        count all add), which is what lets per-shard or per-chunk
        snapshots fold into the single-run aggregate — the seam the
        health surface and the future sharded monitor rely on.  Both
        histograms must share identical bucket bounds.
        """
        if not isinstance(other, Histogram):
            raise ValueError(
                f"can only merge a Histogram, not {type(other).__name__}"
            )
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different bucket bounds "
                f"({len(self.buckets)} vs {len(other.buckets)} bounds)"
            )
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.sum += other.sum
        self.count += other.count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        The estimate is the upper bound of the bucket containing the
        quantile rank — exact to bucket resolution, which is the best a
        fixed-bucket histogram can do.  Observations above the last
        bound report the last bound (the histogram cannot see further).
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, count in zip(self.buckets, self.bucket_counts):
            running += count
            if running >= rank and count:
                return bound
        return self.buckets[-1]

    def cumulative_counts(self) -> List[int]:
        """Counts ``<= bound`` per bucket, ending with the ``+Inf`` count."""
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        out.append(self.count)
        return out

    @property
    def mean(self) -> float:
        """Mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of raw samples, linearly
    interpolated.

    The exact counterpart of :meth:`Histogram.quantile` for callers
    that kept every observation (``repro stats --percentiles`` over a
    trace).  Matches the common "linear" definition (numpy's default)
    without requiring numpy; returns 0.0 for an empty input.
    """
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be within [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family: a kind, help text, and labelled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name, kind, help_text, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[LabelKey, object] = {}

    def child(self, labels: Dict[str, str]):
        key = _label_key(labels)
        child = self.children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.buckets)
            else:
                child = _KINDS[self.kind]()
            self.children[key] = child
        return child


class MetricsRegistry:
    """Holds metric families; the unit of export.

    One registry per monitored process (or per benchmark run) is the
    intended granularity; engines and constraints are distinguished by
    labels, not by separate registries.
    """

    def __init__(self):
        self._families: Dict[str, _Family] = {}

    def _family(self, name, kind, help_text, buckets=None) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, buckets)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if help_text and not family.help:
            family.help = help_text
        if (
            kind == "histogram"
            and buckets is not None
            and tuple(buckets) != family.buckets
        ):
            raise ValueError(
                f"metric {name!r} was created with different buckets"
            )
        return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The counter child of family ``name`` with the given labels."""
        return self._family(name, "counter", help).child(labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """The gauge child of family ``name`` with the given labels."""
        return self._family(name, "gauge", help).child(labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
        **labels,
    ) -> Histogram:
        """The histogram child of family ``name`` with the given labels.

        The first call for a family fixes its bucket bounds (defaulting
        to :data:`DEFAULT_LATENCY_BUCKETS`); later calls may omit them.
        """
        family = self._families.get(name)
        if family is None and buckets is None:
            buckets = DEFAULT_LATENCY_BUCKETS
        return self._family(
            name, "histogram", help, tuple(buckets) if buckets else None
        ).child(labels)

    def families(self) -> Iterator[tuple]:
        """Yield ``(name, kind, help, [(labels_dict, child), ...])``
        sorted by family name then label values — the exporters' stable
        iteration order."""
        for name in sorted(self._families):
            family = self._families[name]
            series = [
                (dict(key), family.children[key])
                for key in sorted(family.children)
            ]
            yield name, family.kind, family.help, series

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:
        series = sum(len(f.children) for f in self._families.values())
        return f"MetricsRegistry({len(self._families)} famil(ies), {series} series)"
