"""Shard plan: stable hashing, constraint admission, and routing.

The partitioner is the correctness root of the whole shard subsystem:
a constraint admitted with the wrong mode, or a hash that varies
between runs, silently breaks the merged-verdict equivalence — so the
diagnostics and the hash function get golden-value tests.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import Constraint
from repro.db import DatabaseSchema, Transaction
from repro.db.algebra import Table
from repro.errors import MonitorError, ShardingError
from repro.shard import ShardPlan, stable_hash

SCHEMA = DatabaseSchema.from_dict(
    {
        "reading": ["sensor", "level"],
        "alarm": ["sensor"],
        "config": ["mode"],
    }
)


def plan(shards=4, **kwargs):
    return ShardPlan(SCHEMA, "sensor", shards, **kwargs)


class TestStableHash:
    # golden values: the partition is journaled, so the hash must never
    # drift between interpreter versions or runs (True == 1 as a dict
    # key, hence the pair list)
    GOLDEN = [
        (0, 2579607896508839484),
        (1, 15222529847262552521),
        (17, 15585647493277638845),
        ("alice", 4195065925528268257),
        ("bob", 2831571280921523277),
        (1.5, 11125122401504985060),
        (True, 8410682265697068987),
        (None, 15277243691352847981),
    ]

    def test_golden_values(self):
        for value, expected in self.GOLDEN:
            assert stable_hash(value) == expected, value

    def test_type_tags_keep_lookalikes_apart(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(1) != stable_hash(True)
        assert stable_hash(1) != stable_hash(1.0)
        assert stable_hash(None) != stable_hash("None")

    def test_independent_of_hash_seed(self):
        # the builtin hash() is salted per process; stable_hash must
        # not be — run a child with a different PYTHONHASHSEED
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.shard import stable_hash; "
            "print(stable_hash('alice'), stable_hash(17))"
        )
        for seed in ("0", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                capture_output=True,
                text=True,
                cwd=".",
                check=True,
            )
            a, b = out.stdout.split()
            golden = dict((repr(k), v) for k, v in self.GOLDEN)
            assert int(a) == golden["'alice'"]
            assert int(b) == golden["17"]


class TestPlanConstruction:
    def test_key_positions_found(self):
        p = plan()
        assert p.key_positions == {"reading": 0, "alarm": 0}

    def test_unknown_key_rejected_with_known_attributes(self):
        with pytest.raises(ShardingError, match="no relation.*'nope'"):
            ShardPlan(SCHEMA, "nope", 4)
        with pytest.raises(ShardingError, match="level"):
            ShardPlan(SCHEMA, "nope", 4)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ShardingError, match="positive int"):
            ShardPlan(SCHEMA, "sensor", 0)

    def test_bad_unkeyed_policy_rejected(self):
        with pytest.raises(ShardingError, match="on_unkeyed"):
            ShardPlan(SCHEMA, "sensor", 2, on_unkeyed="ignore")

    def test_sharding_error_is_a_monitor_error(self):
        assert issubclass(ShardingError, MonitorError)


class TestAdmission:
    def test_keyed_constraint_admitted(self):
        p = plan()
        c = Constraint("window", "alarm(s) -> ONCE[0,3] reading(s, 2)")
        assert p.admit(c) == ("keyed", "s")
        assert p.mode("window") == ("keyed", "s")

    def test_unkeyed_rejected_by_default(self):
        p = plan()
        c = Constraint("cfg", "config(m) -> m = 1")
        with pytest.raises(ShardingError, match="no relation keyed by"):
            p.admit(c)

    def test_unkeyed_pinned_under_broadcast_policy(self):
        p = plan(on_unkeyed="broadcast")
        c = Constraint("cfg", "config(m) -> m = 1")
        assert p.admit(c) == ("pinned", None)

    def test_constant_at_key_position_rejected(self):
        p = plan()
        c = Constraint("pinned-key", "alarm(3) -> FALSE")
        with pytest.raises(ShardingError, match="constant"):
            p.admit(c)

    def test_explicit_forall_rejected_with_rewrite_hint(self):
        # the closed form compiles to EXISTS s. ... — the key variable
        # is bound and the violating valuations cannot be routed
        p = plan()
        c = Constraint(
            "closed", "NOT (EXISTS s. alarm(s) AND NOT reading(s, 2))"
        )
        with pytest.raises(ShardingError, match="drop the explicit"):
            p.admit(c)

    def test_disagreeing_key_variables_rejected(self):
        p = plan()
        c = Constraint("pair", "alarm(s) AND alarm(t) -> s = t")
        with pytest.raises(ShardingError, match="disagree"):
            p.admit(c)

    def test_mode_of_unadmitted_constraint_raises(self):
        with pytest.raises(ShardingError, match="never admitted"):
            plan().mode("ghost")


class TestRouting:
    def test_route_matches_stable_hash(self):
        p = plan(shards=4)
        for v in (0, 1, 17, "alice"):
            assert p.route(v) == stable_hash(v) % 4

    def test_memoised_routes_keep_equal_keys_of_other_types_apart(self):
        # 1, 1.0 and True are ONE dict key; each must still route by
        # its own type-tagged digest, whichever was seen first
        for first in (1, 1.0, True):
            p = plan(shards=64)
            p.route(first)
            for v in (1, 1.0, True, "1"):
                assert p.route(v) == stable_hash(v) % 64
                assert p.route(v) == stable_hash(v) % 64  # memo hit

    def test_unmemoised_values_fall_through_to_the_digest(self):
        p = plan(shards=64)
        for v in (0.0, -0.0, [1, 2], (1, 2.0)):
            assert p.route(v) == stable_hash(v) % 64
        assert p._routes == {}

    def test_route_memo_is_bounded(self, monkeypatch):
        from repro.shard import partition

        monkeypatch.setattr(partition, "ROUTE_MEMO_LIMIT", 8)
        p = plan(shards=4)
        for v in range(100):
            assert p.route(v) == stable_hash(v) % 4
            assert len(p._routes) <= 8

    def test_split_routes_keyed_and_broadcasts_unkeyed(self):
        p = plan(shards=2)
        txn = Transaction(
            {"reading": [(0, 1), (1, 2)], "config": [(7,)]},
            {"alarm": [(0,)]},
        )
        subs = p.split(txn)
        assert len(subs) == 2
        merged_ins = set()
        for shard, sub in enumerate(subs):
            # broadcast relation reaches every shard
            assert sub.inserts.get("config") == frozenset({(7,)})
            for row in sub.inserts.get("reading", ()):
                assert p.route(row[0]) == shard
                merged_ins.add(row)
            for row in sub.deletes.get("alarm", ()):
                assert p.route(row[0]) == shard
        assert merged_ins == {(0, 1), (1, 2)}

    KEYS = st.one_of(st.integers(0, 5), st.sampled_from(["a", "b", 1.5]))
    ROWS = {
        "reading": st.tuples(KEYS, st.integers(0, 2)),
        "alarm": st.tuples(KEYS),
        "config": st.tuples(st.integers(0, 2)),
    }

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        shards=st.integers(1, 4),
        relations=st.sets(st.sampled_from(sorted(ROWS)), max_size=3),
    )
    def test_split_parts_are_what_the_checking_constructor_builds(
        self, data, shards, relations
    ):
        inserts, deletes = {}, {}
        for name in sorted(relations):
            rows = st.frozensets(self.ROWS[name], max_size=6)
            inserts[name] = data.draw(rows)
            deletes[name] = data.draw(rows) - inserts[name]
        txn = Transaction(inserts, deletes)
        p = plan(shards=shards)
        parts = p.split(txn)
        assert len(parts) == shards
        for shard, part in enumerate(parts):
            # the same rows through the constructor that checks them
            # and drops empty sets; and each is this shard's share
            rebuilt = Transaction(part.inserts, part.deletes)
            assert part == rebuilt and hash(part) == hash(rebuilt)
            assert part.inserts == rebuilt.inserts
            assert part.deletes == rebuilt.deletes
            for side, whole in (
                (part.inserts, txn.inserts), (part.deletes, txn.deletes),
            ):
                assert all(type(rows) is frozenset for rows in side.values())
                assert side == {
                    name: mine for name, rows in whole.items()
                    if (mine := frozenset(
                        row for row in rows
                        if name == "config" or p.route(row[0]) == shard
                    ))
                }

    def test_every_shard_gets_a_transaction(self):
        p = plan(shards=4)
        subs = p.split(Transaction({"reading": [(0, 1)]}))
        assert len(subs) == 4  # no-ops included: indices stay aligned

    def test_filter_witnesses_drops_unowned_rows(self):
        p = plan(shards=2)
        p.admit(
            Constraint("window", "alarm(s) -> ONCE[0,3] reading(s, 2)")
        )
        table = Table(("s",), [(v,) for v in range(8)])
        kept = {
            row
            for shard in range(2)
            for row in p.filter_witnesses(shard, "window", table).rows
        }
        assert kept == set(table.rows)
        for shard in range(2):
            for row in p.filter_witnesses(shard, "window", table).rows:
                assert p.route(row[0]) == shard

    def test_filter_witnesses_leaves_pinned_tables_alone(self):
        p = plan(on_unkeyed="broadcast")
        p.admit(Constraint("cfg", "config(m) -> m = 1"))
        table = Table(("m",), [(1,), (2,)])
        assert p.filter_witnesses(1, "cfg", table) is table


class TestManifest:
    def test_to_dict_round_trips_the_plan_shape(self):
        p = plan(shards=3)
        p.admit(
            Constraint("window", "alarm(s) -> ONCE[0,3] reading(s, 2)")
        )
        d = p.to_dict()
        assert d["version"]
        assert d["key"] == "sensor"
        assert d["shards"] == 3
        assert d["constraints"]["window"] == {
            "mode": "keyed",
            "key_var": "s",
        }
