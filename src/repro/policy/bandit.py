"""An epsilon-greedy contextual bandit learning prefetcher control online.

Pythia-style online learning, scaled down to the fleet controller's
observability: the context is the bandwidth-utilization bucket, the
arms are per-prefetcher enable/disable, and the reward is agreement
with the threshold-band oracle (computed by
:class:`~repro.policy.base.PolicyController` from the same thresholds
the hysteresis controller uses).

Determinism: exploration draws come from a private
:class:`random.Random` seeded by :func:`policy_seed` over
``(policy seed, socket ident)`` — the same BLAKE2b construction as
:func:`repro.fleet.machine.machine_seed` and the fault planner.
The stream is bound to the socket identity at deploy time, consumes
zero fleet-RNG draws, and is byte-for-byte identical at any worker
count, engine, or hash seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.policy.base import (DEFAULT_PREFETCHERS, POLICY_SCHEMA_VERSION,
                               Policy, _coerce_prefetchers, register_policy)


def policy_seed(*parts) -> int:
    """Stable 63-bit seed for a policy RNG stream.

    BLAKE2b over a namespaced join of ``parts`` — independent of
    ``PYTHONHASHSEED``, process, and platform, and disjoint from the
    machine/fault seed namespaces.
    """
    material = ":".join(str(part) for part in parts)
    digest = hashlib.blake2b(
        f"limoncello-policy:{material}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


def policy_rng(*parts) -> random.Random:
    """A fresh RNG on the :func:`policy_seed` stream for ``parts``."""
    return random.Random(policy_seed(*parts))


@register_policy
class EpsilonGreedyBanditPolicy(Policy):
    """Per-prefetcher epsilon-greedy bandit over utilization contexts.

    Args:
        seed: Study-level exploration seed; combined with the bound
            socket ident so every socket explores independently.
        epsilon: Exploration probability per prefetcher decision.
        buckets: Utilization-context quantization (bucket width
            ``1/buckets``, clamped to ``[0, 1)``).
    """

    kind = "bandit"

    def __init__(self, seed: int = 0, epsilon: float = 0.1,
                 buckets: int = 8, prefetchers=DEFAULT_PREFETCHERS) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
        if buckets < 1:
            raise ConfigError(f"need at least one bucket, got {buckets}")
        self.seed = seed
        self.epsilon = epsilon
        self.buckets = buckets
        self.prefetchers = _coerce_prefetchers(prefetchers)
        self.ident = ""
        self._rng = policy_rng(self.seed, "")
        #: (reward sum, pulls) per (prefetcher, context, action).
        self._arms: Dict[Tuple[str, int, bool], Tuple[float, int]] = {}
        #: Exploration actions taken; read (as a delta) by the
        #: controller for :class:`~repro.policy.metrics.PolicyMetrics`.
        self.explorations = 0

    def bind(self, ident: str) -> None:
        """Derive this socket's private exploration stream."""
        self.ident = ident
        self._rng = policy_rng(self.seed, ident)

    def reset(self) -> None:
        """Machine restart: in-memory learned state and the exploration
        stream restart from the bound seed, like a respawned daemon."""
        self._rng = policy_rng(self.seed, self.ident)
        self._arms.clear()

    def context(self, utilization: float) -> int:
        """Quantize utilization into a context bucket."""
        clamped = min(max(utilization, 0.0), 1.0)
        return min(self.buckets - 1, int(clamped * self.buckets))

    def decide(self, time_ns: float,
               features: Dict[str, float]) -> Dict[str, bool]:
        bucket = self.context(features["utilization"])
        decisions = {}
        for name in self.prefetchers:
            if self.epsilon > 0.0 and self._rng.random() < self.epsilon:
                self.explorations += 1
                decisions[name] = self._rng.random() < 0.5
            else:
                decisions[name] = self._greedy(name, bucket)
        return decisions

    def learn(self, features: Dict[str, float], actions: Dict[str, bool],
              rewards: Dict[str, float]) -> int:
        """Fold one decision's rewards into the arm estimates; returns
        the number of arm updates applied."""
        bucket = self.context(features["utilization"])
        updates = 0
        for name, action in actions.items():
            reward = rewards.get(name)
            if reward is None:
                continue
            key = (name, bucket, action)
            total, pulls = self._arms.get(key, (0.0, 0))
            self._arms[key] = (total + reward, pulls + 1)
            updates += 1
        return updates

    def _greedy(self, name: str, bucket: int) -> bool:
        """Best known action for (prefetcher, context); unseen or tied
        arms prefer enabled (the hardware default)."""
        on_total, on_pulls = self._arms.get((name, bucket, True), (0.0, 0))
        off_total, off_pulls = self._arms.get((name, bucket, False), (0.0, 0))
        # An unpulled arm is optimistically worth the maximum reward, so
        # each context tries both actions before settling.
        on_value = on_total / on_pulls if on_pulls else 1.0
        off_value = off_total / off_pulls if off_pulls else 1.0
        return on_value >= off_value

    def to_dict(self) -> dict:
        """Configuration only — learned arm estimates are runtime state
        and always start fresh on deployment."""
        return {
            "schema": POLICY_SCHEMA_VERSION,
            "kind": self.kind,
            "prefetchers": list(self.prefetchers),
            "seed": self.seed,
            "epsilon": self.epsilon,
            "buckets": self.buckets,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EpsilonGreedyBanditPolicy":
        return cls(seed=payload["seed"], epsilon=payload["epsilon"],
                   buckets=payload["buckets"],
                   prefetchers=payload["prefetchers"])
