"""The bandwidth-aware cluster scheduler.

"When a server starts reaching memory bandwidth saturation, the cluster
scheduler avoids scheduling workloads on the machine to prevent workloads
from encountering performance cliffs due to memory bandwidth contention."
(Section 2.1.) That policy is what strands CPU capacity on
bandwidth-bound platforms — and what lets Limoncello's bandwidth savings
convert directly into schedulable cores (Figure 19).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.fleet.machine import Machine
from repro.fleet.socket import SimulatedSocket
from repro.fleet.task import Task


class BandwidthAwareScheduler:
    """Least-loaded placement with CPU and bandwidth admission checks.

    Args:
        bandwidth_headroom: A socket is admissible only while its
            estimated bandwidth (including the incoming task) stays below
            this fraction of the qualification saturation threshold.
        prefetch_aware: Whether admission estimates account for each
            socket's current prefetcher state. False models the
            pre-Limoncello scheduler (used in ablation studies so that
            both arms receive identical placements); True models the
            deployed integration that converts Limoncello's bandwidth
            savings into schedulable capacity (Figure 19).
    """

    def __init__(self, bandwidth_headroom: float = 1.0,
                 prefetch_aware: bool = False) -> None:
        if not 0.0 < bandwidth_headroom <= 1.0:
            raise SchedulingError(
                f"headroom must be in (0, 1], got {bandwidth_headroom}")
        self.bandwidth_headroom = bandwidth_headroom
        self.prefetch_aware = prefetch_aware
        self.placements = 0
        self.rejections = 0

    def try_place(self, task: Task,
                  machines: Sequence[Machine]) -> Optional[SimulatedSocket]:
        """Place ``task`` on the least bandwidth-loaded admissible socket.

        Returns the chosen socket, or None when no socket can admit the
        task (stranded demand — idle cores the fleet cannot sell).

        Reads the task's estimates once and each socket's running sums
        directly (:meth:`SimulatedSocket.estimated_bandwidth`, inline).
        """
        cores = task.cores
        aware = self.prefetch_aware
        incoming_on = task.estimated_bandwidth(True)
        incoming_off = task.estimated_bandwidth(False)
        headroom = self.bandwidth_headroom
        best_score = 0.0
        best: Optional[SimulatedSocket] = None
        for machine in machines:
            for socket in machine.sockets:
                if socket.cores - socket._cores_used < cores:
                    continue
                if aware and not socket.hw_prefetchers_on:
                    projected = socket._estimated_off + incoming_off
                else:
                    projected = socket._estimated_on + incoming_on
                saturation = socket._saturation_bandwidth
                if projected > headroom * saturation:
                    continue
                score = projected / saturation
                if best is None or score < best_score:
                    best_score, best = score, socket
        if best is None:
            self.rejections += 1
            return None
        best.add_task(task)
        self.placements += 1
        return best

    def place(self, task: Task, machines: Sequence[Machine]) -> SimulatedSocket:
        """Like :meth:`try_place` but raises when placement fails."""
        socket = self.try_place(task, machines)
        if socket is None:
            raise SchedulingError(
                f"no socket can admit task {task.name} "
                f"({task.cores:.1f} cores, "
                f"{task.estimated_bandwidth():.1f} GB/s)")
        return socket

    @staticmethod
    def drain(machines: Sequence[Machine], count: int, rng) -> List[Task]:
        """Remove up to ``count`` randomly chosen tasks (load decrease)."""
        return [task for _, task in
                BandwidthAwareScheduler.drain_sockets(machines, count, rng)]

    @staticmethod
    def drain_sockets(machines: Sequence[Machine], count: int, rng
                      ) -> List[Tuple[SimulatedSocket, Task]]:
        """Like :meth:`drain`, but returns each victim with the socket it
        left, in removal order."""
        candidates = [(socket, task)
                      for machine in machines
                      for socket in machine.sockets
                      for task in socket.tasks]
        rng.shuffle(candidates)
        victims = candidates[:count]
        for socket, task in victims:
            socket.remove_task(task)
        return victims
