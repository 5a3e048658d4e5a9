"""Unit semantics of the fault-injection plane (`repro.faults`).

The plan/rule machinery is what every chaos schedule in this suite trusts:
the spec grammar must round-trip, triggers (probability / after / limit)
must be deterministic under a seed, and a fire point with no plan installed
must stay a no-op.
"""
from __future__ import annotations

import errno
import os
import pickle
import time

import pytest

from repro import faults
from repro.faults import FaultInjected, FaultPlan, FaultRule
from repro.obs.metrics import get_metrics


class TestSpecGrammar:
    def test_parse_spec_round_trip(self):
        spec = (
            "seed=7;state=/tmp/chaos;"
            "worker.solve=crash:limit=1,block=1;"
            "checkpoint.merge=delay:p=0.25,after=2,seconds=0.5"
        )
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7
        assert str(plan.state_dir) == "/tmp/chaos"
        assert [r.point for r in plan.rules] == ["worker.solve", "checkpoint.merge"]
        crash, delay = plan.rules
        assert crash.action == "crash"
        assert crash.limit == 1
        assert crash.match == {"block": "1"}
        assert delay.probability == 0.25
        assert delay.after == 2
        assert delay.seconds == 0.5
        # spec() re-emits a string that parses back to the same rules
        again = FaultPlan.parse(plan.spec())
        assert again.seed == plan.seed
        assert again.rules == plan.rules

    def test_builder_and_p_alias(self):
        plan = FaultPlan(seed=3).rule("a.b", "raise", p=0.5, tenant="t1")
        (rule,) = plan.rules
        assert rule.probability == 0.5
        assert rule.match == {"tenant": "t1"}

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule("a.b", "explode")

    def test_trigger_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule("a.b", "raise", probability=1.5)
        with pytest.raises(ValueError, match="limit"):
            FaultRule("a.b", "raise", limit=0)
        with pytest.raises(ValueError, match="after"):
            FaultRule("a.b", "raise", after=-1)


class TestTriggers:
    def test_label_filters_compare_as_strings(self):
        plan = FaultPlan().rule("point", "raise", block=1)
        with pytest.raises(FaultInjected):
            plan.fire("point", block=1)
        plan = FaultPlan().rule("point", "raise", block=1)
        plan.fire("point", block=2)  # filtered out: no fire
        plan.fire("other", block=1)  # different point: no fire

    def test_after_skips_first_hits(self):
        plan = FaultPlan().rule("point", "raise", after=2)
        plan.fire("point")
        plan.fire("point")
        with pytest.raises(FaultInjected):
            plan.fire("point")

    def test_limit_caps_firings_per_process(self):
        plan = FaultPlan().rule("point", "raise", limit=2)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                plan.fire("point")
        plan.fire("point")  # budget exhausted: no fire

    def test_limit_is_cross_process_with_state_dir(self, tmp_path):
        state = tmp_path / "state"
        first = FaultPlan(state_dir=state).rule("point", "raise", limit=1)
        with pytest.raises(FaultInjected):
            first.fire("point")
        assert list(state.glob("rule0.fire*"))
        # a second plan (another process parsing the same env spec) sees the
        # claimed token and lets the call through
        second = FaultPlan.parse(first.spec())
        second.fire("point")

    def test_probability_is_seed_deterministic(self):
        def fired(seed):
            plan = FaultPlan(seed=seed).rule("point", "raise", p=0.5)
            hits = []
            for _ in range(32):
                try:
                    plan.fire("point")
                except FaultInjected:
                    hits.append(True)
                else:
                    hits.append(False)
            return hits

        assert fired(42) == fired(42)
        assert any(fired(42)) and not all(fired(42))
        assert fired(42) != fired(43)


class TestActions:
    def test_enospc_raises_oserror(self):
        plan = FaultPlan().rule("point", "enospc")
        with pytest.raises(OSError) as excinfo:
            plan.fire("point")
        assert excinfo.value.errno == errno.ENOSPC

    def test_delay_sleeps_roughly_seconds(self):
        plan = FaultPlan().rule("point", "delay", seconds=0.05)
        start = time.perf_counter()
        plan.fire("point")
        assert time.perf_counter() - start >= 0.04

    def test_fault_injected_pickles_round_trip(self):
        error = FaultInjected("worker.solve")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.point == "worker.solve"
        assert clone.action == "raise"
        assert str(clone) == str(error)

    def test_mangle_flips_bytes_deterministically(self):
        data = bytes(range(256)) * 8
        plan = FaultPlan(seed=5).rule("point", "corrupt-bytes")
        mutated = plan.mangle("point", data)
        assert mutated != data
        assert len(mutated) == len(data)
        again = FaultPlan(seed=5).rule("point", "corrupt-bytes")
        assert again.mangle("point", data) == mutated

    def test_mangle_without_matching_rule_is_identity(self):
        plan = FaultPlan().rule("other", "corrupt-bytes")
        assert plan.mangle("point", b"abc") == b"abc"

    def test_corrupt_buffer_flips_in_place_past_start(self):
        plan = FaultPlan(seed=9).rule("point", "corrupt-bytes")
        buf = bytearray(b"\x00" * 4096)
        assert plan.corrupt_buffer("point", buf, start=1024)
        assert any(buf)
        assert not any(buf[:1024])  # the header region is never touched

    def test_corrupt_rules_do_not_fire_at_fire_points(self):
        plan = FaultPlan().rule("point", "corrupt-bytes")
        plan.fire("point")  # consumed only by mangle/corrupt_buffer


class TestSwitchboard:
    def test_fire_is_noop_without_plan(self):
        faults.fire("anything.at.all", block=3)

    def test_env_spec_reaches_module_fire(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "point=raise")
        with pytest.raises(FaultInjected):
            faults.fire("point")

    def test_env_cache_tracks_the_raw_string(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "point=raise:limit=1")
        with pytest.raises(FaultInjected):
            faults.fire("point")
        faults.fire("point")  # same spec, same cached plan: limit holds
        monkeypatch.setenv(faults.ENV_VAR, "point=raise:limit=1,fresh=x")
        with pytest.raises(FaultInjected):
            faults.fire("point", fresh="x")  # changed spec re-parses

    def test_a_disabled_point_never_reads_the_environment_mapping(self, monkeypatch):
        """Unset, the variable costs a membership test on ``os.environ``'s
        own dict — no ``Mapping.get`` raising and catching ``KeyError`` per
        call — and a ``setenv`` in this process is still seen at once."""
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        reads = []
        real = type(os.environ).__getitem__

        def counted(environ, key):
            reads.append(key)
            return real(environ, key)

        monkeypatch.setattr(type(os.environ), "__getitem__", counted)
        for _ in range(100):
            faults.fire("point")
        assert reads == []
        monkeypatch.setenv(faults.ENV_VAR, "point=raise")
        with pytest.raises(FaultInjected):
            faults.fire("point")
        monkeypatch.delenv(faults.ENV_VAR)
        faults.fire("point")

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "point=raise")
        with faults.active(FaultPlan()):
            faults.fire("point")  # the (empty) installed plan masks the env

    def test_injection_increments_metric(self):
        registry = get_metrics()
        saved = registry.snapshot()
        registry.reset()
        try:
            with faults.active(FaultPlan().rule("point", "raise")):
                with pytest.raises(FaultInjected):
                    faults.fire("point")
            counter = registry.get("repro_faults_injected_total")
            assert counter is not None
            assert counter.value(point="point", action="raise") == 1
        finally:
            registry.reset()
            registry.absorb(saved)
