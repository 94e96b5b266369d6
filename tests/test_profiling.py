"""Tests for the fleetwide profiler and profile data."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fleet import Fleet, PLATFORM_1, Machine, SocketEpoch, Task
from repro.fleet.calibration import FunctionResponse, ResponseTable
from repro.profiling import FleetProfiler, ProfileData
from repro.profiling import profiler as profiler_module
from repro.workloads import FunctionCategory
from tests.hypothesis_profiles import scaled


class TestProfileData:
    def test_record_and_read(self):
        data = ProfileData()
        data.record("memcpy", instructions=1000, cycles=1500, llc_misses=20)
        stats = data.function("memcpy")
        assert stats.instructions == 1000
        assert stats.cycles == pytest.approx(1500)
        assert stats.llc_misses == 20
        assert stats.llc_mpki == pytest.approx(20.0)

    def test_accumulation(self):
        data = ProfileData()
        data.record("f", 100, 150, 1)
        data.record("f", 100, 150, 1)
        assert data.function("f").instructions == 200

    def test_missing_function_empty(self):
        assert ProfileData().function("nope").instructions == 0

    def test_merge(self):
        a, b = ProfileData(), ProfileData()
        a.record("f", 100, 150, 1)
        b.record("f", 100, 150, 1)
        b.record("g", 50, 60, 0)
        b.samples = 3
        a.merge(b)
        assert a.function("f").instructions == 200
        assert "g" in a
        assert a.samples == 3

    def test_cycle_share(self):
        data = ProfileData()
        data.record("a", 100, 300, 0)
        data.record("b", 100, 100, 0)
        assert data.cycle_share("a") == pytest.approx(0.75)

    def test_category_cycle_shares(self):
        data = ProfileData()
        data.record("memcpy", 100, 300, 0)
        data.record("pointer_chase", 100, 100, 0)
        shares = data.category_cycle_shares()
        assert shares[FunctionCategory.DATA_MOVEMENT] == pytest.approx(0.75)
        assert shares[FunctionCategory.NON_TAX] == pytest.approx(0.25)

    def test_iteration_sorted(self):
        data = ProfileData()
        data.record("z", 1, 1, 0)
        data.record("a", 1, 1, 0)
        assert [name for name, _ in data] == ["a", "z"]


class TestFleetProfiler:
    def loaded_machine(self, hw_on=True, soft=False):
        machine = Machine("m", PLATFORM_1, sockets=1, demand_noise_sigma=0.0)
        socket = machine.sockets[0]
        socket.add_task(Task(
            name="t", cores=8.0, base_qps=800.0, bandwidth_demand=30.0,
            memory_boundedness=0.4,
            function_shares={"memcpy": 0.4, "pointer_chase": 0.6},
            noise_sigma=0.0))
        socket.force_prefetchers(hw_on)
        socket.soft_deployed = soft
        machine.step(0.0)
        return machine

    def test_sample_attributes_all_functions(self):
        profiler = FleetProfiler(sample_rate=1.0)
        profiler.sample_machine(self.loaded_machine())
        assert "memcpy" in profiler.data
        assert "pointer_chase" in profiler.data

    def test_unstepped_machine_ignored(self):
        profiler = FleetProfiler(sample_rate=1.0)
        profiler.sample_machine(Machine("m", PLATFORM_1))
        assert len(profiler.data) == 0

    def test_ablation_shifts_cycle_share_toward_tax(self):
        """With prefetchers off, memcpy burns a larger share of cycles —
        the effect behind Figures 11/12/20."""
        on_profiler = FleetProfiler(sample_rate=1.0)
        on_profiler.sample_machine(self.loaded_machine(hw_on=True))
        off_profiler = FleetProfiler(sample_rate=1.0)
        off_profiler.sample_machine(self.loaded_machine(hw_on=False))
        assert (off_profiler.data.cycle_share("memcpy")
                > on_profiler.data.cycle_share("memcpy"))

    def test_soft_limoncello_restores_share(self):
        off = FleetProfiler(sample_rate=1.0)
        off.sample_machine(self.loaded_machine(hw_on=False))
        soft = FleetProfiler(sample_rate=1.0)
        soft.sample_machine(self.loaded_machine(hw_on=False, soft=True))
        on = FleetProfiler(sample_rate=1.0)
        on.sample_machine(self.loaded_machine(hw_on=True))
        assert (on.data.cycle_share("memcpy")
                <= soft.data.cycle_share("memcpy")
                < off.data.cycle_share("memcpy"))

    def test_mpki_reflects_prefetcher_state(self):
        on = FleetProfiler(sample_rate=1.0)
        on.sample_machine(self.loaded_machine(hw_on=True))
        off = FleetProfiler(sample_rate=1.0)
        off.sample_machine(self.loaded_machine(hw_on=False))
        assert (off.data.function("memcpy").llc_mpki
                > 5 * on.data.function("memcpy").llc_mpki)

    def test_observer_hook_samples_probabilistically(self):
        fleet = Fleet(machines=8, seed=2)
        profiler = FleetProfiler(sample_rate=0.5, rng=random.Random(1))
        fleet.run(10, observers=[profiler])
        assert 0 < profiler.data.samples < 80

    def test_bad_sample_rate(self):
        with pytest.raises(ConfigError):
            FleetProfiler(sample_rate=0.0)


def reference_sample(data, machine, responses):
    """:meth:`FleetProfiler.sample_machine` spelled as one
    :meth:`ProfileData.record` call per sampled function."""
    for socket in machine.sockets:
        if not socket.history:
            continue
        epoch = socket.history[-1]
        latency_ratio = epoch.latency_ns / socket.latency_at(0.0)
        hw_on, soft = epoch.hw_prefetchers_on, socket.soft_deployed
        for task in socket.tasks:
            base = 1.0 + task.memory_boundedness * (latency_ratio - 1.0)
            rows = [(function, share, responses[function])
                    for function, share in task.shares_key if share > 0.0]
            slowdowns = [
                max(base if hw_on else base + response.effective_penalty(soft),
                    1e-6)
                for _, _, response in rows]
            weight_total = sum([share * slowdown for (_, share, _), slowdown
                                in zip(rows, slowdowns)])
            if weight_total <= 0.0:
                continue
            task_cycles = task.cores * 1_000_000
            for (function, share, response), slowdown in zip(rows, slowdowns):
                cycles = task_cycles * share * slowdown / weight_total
                instructions = cycles / slowdown
                data.record(function, instructions, cycles,
                            response.mpki(hw_on, soft) * instructions / 1000.0)
    data.samples += 1


#: Penalties down to -6 push a prefetchers-off slowdown under the 1e-6
#: clamp.
@st.composite
def responses(draw):
    count = draw(st.integers(1, 5))
    return ResponseTable(
        FunctionResponse(
            name=f"f{index}", category=FunctionCategory.NON_TAX,
            cycle_share=0.1,
            cycle_penalty_off=draw(st.floats(-6.0, 3.0)),
            soft_recovery=draw(st.floats(0.0, 1.05)),
            mpki_on=draw(st.floats(0.0, 20.0)),
            mpki_off=draw(st.floats(0.0, 40.0)),
            overfetch=0.1)
        for index in range(count))


@st.composite
def sampled_task(draw, table, name):
    """A task whose mix may give some functions a zero share."""
    shares = {function: draw(st.sampled_from((0.0, 0.3, 1.0))
                             | st.floats(0.01, 1.0))
              for function in table.names()}
    if not any(shares.values()):
        shares[table.names()[0]] = 1.0
    return Task(name=name, cores=draw(st.floats(0.1, 2.0)), base_qps=100.0,
                bandwidth_demand=10.0,
                memory_boundedness=draw(st.floats(0.0, 1.0)),
                function_shares=shares, noise_sigma=0.0, responses=table)


@st.composite
def profiled_machines(draw):
    """A table, a machine and per-sample epochs. A latency ratio under
    one (a zero latency with full memory boundedness) puts the
    prefetchers-on slowdown under the 1e-6 clamp too."""
    table = draw(responses())
    machine = Machine("m", PLATFORM_1, sockets=draw(st.integers(1, 2)),
                      demand_noise_sigma=0.0)
    templates = [draw(sampled_task(table, f"template{index}"))
                 for index in range(draw(st.integers(1, 3)))]
    for index, socket in enumerate(machine.sockets):
        for slot in range(draw(st.integers(0, 6))):
            template = draw(st.sampled_from(templates))
            socket.add_task(dataclasses.replace(
                template, name=f"t{index}.{slot}",
                cores=draw(st.floats(0.1, 2.0)),
                memory_boundedness=draw(st.sampled_from((0.0, 1.0))
                                        | st.floats(0.0, 1.0))))
    unloaded = machine.sockets[0].latency_at(0.0)
    samples = [
        [(draw(st.booleans()), draw(st.booleans()),
          draw(st.just(0.0) | st.floats(0.0, 6.0)) * unloaded)
         for _ in machine.sockets]
        for _ in range(draw(st.integers(1, 4)))]
    return table, machine, samples


def stats_bits(data):
    return {name: repr(dataclasses.astuple(stats)) for name, stats in data}


class TestProfilerOracle:
    @given(case=profiled_machines())
    @settings(max_examples=scaled(100), deadline=None)
    def test_sample_machine_matches_record(self, case):
        table, machine, samples = case
        profiler = FleetProfiler(sample_rate=1.0, responses=table)
        reference = ProfileData()
        for states in samples:
            for socket, (hw_on, soft, latency_ns) in zip(machine.sockets,
                                                         states):
                socket.soft_deployed = soft
                socket.history.append(SocketEpoch(
                    time_ns=0.0, bandwidth=0.0, utilization=0.0,
                    latency_ns=latency_ns, qps=0.0, cores_used=0.0,
                    hw_prefetchers_on=hw_on))
            profiler.sample_machine(machine)
            reference_sample(reference, machine, table)
        assert stats_bits(profiler.data) == stats_bits(reference)
        assert profiler.data.samples == reference.samples

    def test_kernels_compile_once_per_shape(self, monkeypatch):
        compiled = []
        compile_sample = profiler_module._compile_sample

        def counting(count, hw_on):
            compiled.append((count, hw_on))
            return compile_sample(count, hw_on)

        monkeypatch.setattr(profiler_module, "_compile_sample", counting)
        monkeypatch.setattr(profiler_module, "_SAMPLE_KERNELS", {})
        machine = TestFleetProfiler().loaded_machine()
        for _ in range(2):
            profiler = FleetProfiler(sample_rate=1.0)
            profiler.sample_machine(machine)
            profiler.sample_machine(machine)
        assert compiled == [(2, True)]
