"""A machine: sockets plus optional per-socket Limoncello daemons."""

from __future__ import annotations

import hashlib
import math
import random
from typing import List, Optional

from repro.core.actuator import MSRPrefetcherActuator
from repro.core.config import LimoncelloConfig
from repro.core.daemon import LimoncelloDaemon
from repro.errors import ConfigError, ReproError
from repro.fleet.platform import PlatformSpec
from repro.fleet.socket import SimulatedSocket, SocketEpoch
from repro.fleet.task import Task
from repro.telemetry.sampler import PerfBandwidthSampler
from repro.units import SECOND


def machine_seed(name: str) -> int:
    """Stable 63-bit RNG seed for a machine, derived from its name.

    BLAKE2b over the name, in the same style as
    :func:`repro.fleet.shard.shard_seed` — independent of
    ``PYTHONHASHSEED``, process, and platform. The previous
    ``hash(name) & 0xFFFF`` fallback silently changed per interpreter
    invocation under salted string hashing, making directly-constructed
    machines non-reproducible across runs.
    """
    digest = hashlib.blake2b(
        f"limoncello-machine:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


class Machine:
    """One fleet machine: N sockets of one platform.

    When Hard Limoncello is deployed, each socket gets its own daemon
    (telemetry, controller, MSR actuator) — the paper's controller is
    per-socket (Section 3).
    """

    def __init__(self, name: str, platform: PlatformSpec,
                 sockets: int = 2, demand_noise_sigma: float = 0.12,
                 rng: Optional[random.Random] = None,
                 chaos=None, tracer=None) -> None:
        if sockets <= 0:
            raise ConfigError("machines need at least one socket")
        if demand_noise_sigma < 0:
            raise ConfigError("demand noise sigma cannot be negative")
        self.name = name
        self.platform = platform
        self.demand_noise_sigma = demand_noise_sigma
        #: AR(1) persistence of the machine's demand swings: bursts last
        #: several epochs (Figure 7), which is what gives the controller's
        #: sustain timer something real to filter.
        self.demand_noise_rho = 0.7
        self._log_demand_noise = 0.0
        self.sockets: List[SimulatedSocket] = [
            SimulatedSocket(platform, index=i) for i in range(sockets)]
        self._rng = rng or random.Random(machine_seed(name))
        #: Optional :class:`~repro.faults.injectors.MachineChaos` fault
        #: environment; when set, deployed daemons see faulted telemetry
        #: and actuation and the machine follows its crash schedule.
        self.chaos = chaos
        #: Times this machine has come back from a chaos-injected crash.
        self.restarts = 0
        #: Optional :class:`repro.obs.Tracer` shared by this machine's
        #: daemons; events carry ``"<machine>/<socket>"`` idents.
        self.tracer = tracer
        self.daemons: List[LimoncelloDaemon] = []

    # --- Limoncello deployment -------------------------------------------------

    def deploy_hard_limoncello(self, config: Optional[LimoncelloConfig] = None,
                               controller_factory=None) -> None:
        """Install a per-socket control daemon (idempotent).

        ``controller_factory`` is called with the socket's
        ``"<machine>/<socket>"`` ident and returns that socket's
        controller; ``None`` keeps the daemon's stock hysteresis
        controller.
        """
        if self.daemons:
            return
        for socket in self.sockets:
            sampler = PerfBandwidthSampler(socket)
            actuator = MSRPrefetcherActuator(socket.msrs, socket.msr_map)
            if self.chaos is not None:
                sampler = self.chaos.wrap_sampler(sampler, socket.index)
                actuator = self.chaos.wrap_actuator(actuator, socket)
            ident = f"{self.name}/{socket.index}"
            controller = (None if controller_factory is None
                          else controller_factory(ident))
            self.daemons.append(LimoncelloDaemon(
                sampler, actuator, config, controller=controller,
                tracer=self.tracer, ident=ident))

    def deploy_soft_limoncello(self) -> None:
        """Mark the tax-function prefetch insertions as rolled out."""
        for socket in self.sockets:
            socket.soft_deployed = True

    def force_prefetchers(self, enabled: bool) -> None:
        """Directly set prefetcher state on every socket."""
        for socket in self.sockets:
            socket.force_prefetchers(enabled)

    # --- capacity ------------------------------------------------------------------

    @property
    def total_cores(self) -> int:
        """Total CPU cores."""
        return sum(socket.cores for socket in self.sockets)

    @property
    def cores_used(self) -> float:
        """Cores occupied by placed tasks."""
        return sum(socket.cores_used for socket in self.sockets)

    @property
    def cpu_utilization(self) -> float:
        """Occupied cores / total cores — the x-axis of Figures 4 and 19."""
        return self.cores_used / self.total_cores

    @property
    def tasks(self) -> List[Task]:
        """All tasks across this machine's sockets."""
        return [task for socket in self.sockets for task in socket.tasks]

    # --- simulation ------------------------------------------------------------------

    def step(self, now_ns: float, duration_ns: float = SECOND,
             rng: Optional[random.Random] = None,
             demand_scale: float = 1.0, tape=None,
             slot: Optional[int] = None) -> List[SocketEpoch]:
        """Advance one epoch: resample noise, run daemons, solve sockets.

        ``demand_scale`` is the fleet-level demand multiplier: at peak
        traffic every placed task serves more requests, and therefore
        pulls more bandwidth, than its placement-time estimate — which is
        how real machines end up past the saturation threshold the
        scheduler tried to respect.

        ``tape`` is the epoch of a driver tape (a
        :class:`~repro.fleet.tape.TapeEpoch`, DESIGN.md §6). With ``slot``
        unset the machine records into it: its noise slot (the demand
        factor, then every task's noise) and its sockets' solves. With
        ``slot`` set it replays that machine slot instead of drawing:
        it sets each task's noise and takes the demand factor from the
        tape, and its sockets may reuse the recorded solves. Chaos,
        restarts and daemons run either way.
        """
        solves = None if tape is None else tape.solves
        at = None if slot is None else slot * len(self.sockets) * 4
        if self.chaos is not None:
            status = self.chaos.advance()
            if status == "down":
                # The machine is dark: no scheduling noise, no daemons,
                # no demand — sockets idle at zero offered load. No RNG
                # draws are consumed, so the crash schedule (which has
                # its own stream) is the only thing that perturbs the
                # run's randomness. A recording leaves an empty slot (and
                # logs the idle solves); a replay solves them afresh.
                if slot is not None:
                    if tape.slots[slot] != tape.slots[slot + 1]:
                        raise ReproError(
                            f"driver tape out of step: {self.name} is down "
                            "but was up when the tape was recorded")
                    return self._step_sockets(now_ns, duration_ns, 0.0, None, None)
                if tape is not None:
                    tape.slots.append(len(tape.noise))
                return self._step_sockets(now_ns, duration_ns, 0.0, solves, None)
            if status == "restart":
                self._restart(now_ns)
        if slot is None:
            demand_factor = self._draw_noise(rng or self._rng) * demand_scale
            if tape is not None:
                noise = tape.noise
                noise.append(demand_factor)
                for socket in self.sockets:
                    noise.extend([task.noise for task in socket.tasks])
                tape.slots.append(len(noise))
        else:
            demand_factor = self._replay_noise(tape, slot)
        # Daemons act on the *previous* epoch's telemetry, as real
        # controllers do — they cannot see the epoch being computed.
        for daemon in self.daemons:
            daemon.step(now_ns)
        return self._step_sockets(now_ns, duration_ns, demand_factor, solves, at)

    def _draw_noise(self, rng: random.Random) -> float:
        """Redraw every task's noise (:meth:`Task.resample_noise`,
        inline) and the machine's demand factor, before scaling.

        A task's noise is ``rng.lognormvariate(0.0, sigma)`` with the
        stdlib's code inline: ``exp`` of ``normalvariate``'s
        Kinderman-Monahan ratio-of-uniforms loop, which draws the same
        ``random()`` values in the same order (the same from CPython 3.9
        to 3.13). ``normalvariate`` returns ``0.0 + z * sigma``; adding
        0.0 changes only a -0.0, and ``exp`` maps both zeros to 1.0.
        """
        uniform, magic = rng.random, random.NV_MAGICCONST
        exp, log = math.exp, math.log
        for socket in self.sockets:
            for task in socket.tasks:
                sigma = task.noise_sigma
                if sigma > 0:
                    while True:
                        u1 = uniform()
                        u2 = 1.0 - uniform()
                        z = magic * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -log(u2):
                            break
                    task.noise = exp(z * sigma)
                else:
                    task.noise = 1.0
        # Machine-level volatility, shared by co-located tasks (bursts of
        # correlated traffic are what make Figure 7's trace swing). An
        # AR(1) process in log space: persistent bursts, stationary
        # variance equal to demand_noise_sigma**2.
        if self.demand_noise_sigma > 0:
            rho = self.demand_noise_rho
            innovation_sigma = self.demand_noise_sigma * (1 - rho * rho) ** 0.5
            self._log_demand_noise = (rho * self._log_demand_noise
                                      + rng.gauss(0.0, innovation_sigma))
            return math.exp(self._log_demand_noise)
        return 1.0

    def _replay_noise(self, tape, slot: int) -> float:
        """Set every task's noise from a recorded machine slot; returns
        the slot's (scaled) demand factor."""
        noise = tape.noise
        index, end = tape.slots[slot], tape.slots[slot + 1]
        if index == end:
            raise ReproError(
                f"driver tape out of step: {self.name} is up but was down "
                "when the tape was recorded")
        demand_factor = noise[index]
        for socket in self.sockets:
            for task in socket.tasks:
                index += 1
                task.noise = noise[index]
        if index + 1 != end:
            raise ReproError(
                f"driver tape out of step: {self.name} holds "
                "different tasks than when the tape was recorded")
        return demand_factor

    def _step_sockets(self, now_ns: float, duration_ns: float,
                      demand_factor: float, solves, at) -> List[SocketEpoch]:
        if at is None:
            return [socket.step(now_ns, duration_ns, demand_factor, solves)
                    for socket in self.sockets]
        return [socket.step(now_ns, duration_ns, demand_factor, solves,
                            at + 4 * index)
                for index, socket in enumerate(self.sockets)]

    def _restart(self, now_ns: float) -> None:
        """Bring the machine back after a chaos-injected crash.

        The chaos plan's restart policy decides the prefetcher state the
        machine boots with: ``"enabled"`` (the hardware default),
        ``"disabled"`` (a pathological BIOS), or ``"preserved"`` (a
        kexec-style reboot keeping MSR state). Daemons restart with
        fresh controller state either way.
        """
        self.restarts += 1
        policy = self.chaos.restart_policy
        restored: Optional[bool] = None
        if policy == "enabled":
            restored = True
        elif policy == "disabled":
            restored = False
        if restored is not None:
            self.force_prefetchers(restored)
        for daemon in self.daemons:
            daemon.restart(now_ns, restored_enabled=restored)
