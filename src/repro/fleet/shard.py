"""Deterministic sharding of a fleet study's machine population.

The paper's ablation methodology is embarrassingly parallel: every
machine evolves independently except through the scheduler, and the
scheduler's coupling is local to its fleet. Splitting a large study into
several smaller *sub-fleets* therefore preserves the statistics while
letting the shards run on separate workers.

Two properties make sharded results reproducible:

* The shard *plan* depends only on the population size and the shard
  size — never on how many workers execute it — so the same study
  produces the same shards whether it runs serially or in parallel.
* Every shard's seed is derived from the master seed with a stable hash
  (:func:`shard_seed`), so shard ``i`` of study seed ``s`` receives the
  same machine population and traffic on every run, on every host, on
  every Python version (``hash()`` is salted per process and is not used
  here).

Shard 0 always receives the master seed itself, so a plan with a single
shard is byte-for-byte the original unsharded study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigError
from repro.seeds import stable_seed
from repro.units import DEFAULT_SHARD_SIZE


def shard_seed(master_seed: int, index: int) -> int:
    """Stable per-shard seed derived from the master seed.

    Shard 0 keeps the master seed (a one-shard plan *is* the unsharded
    study); later shards take :func:`~repro.seeds.stable_seed` over
    ``(master_seed, index)`` in the ``shard`` namespace.
    """
    if index < 0:
        raise ConfigError(f"shard index cannot be negative, got {index}")
    if index == 0:
        return master_seed
    return stable_seed("shard", master_seed, index)


@dataclass(frozen=True)
class ShardPlan:
    """How one study's machine population splits across shards.

    Attributes:
        machines: Total machine population.
        sizes: Machines per shard; balanced, so sizes differ by at most
            one and ``sum(sizes) == machines``.
    """

    machines: int
    sizes: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.sizes)

    def seeds(self, master_seed: int) -> List[int]:
        """Per-shard seeds for ``master_seed`` (see :func:`shard_seed`)."""
        return [shard_seed(master_seed, i) for i in range(len(self.sizes))]


def plan_shards(machines: int, shard_size: int = DEFAULT_SHARD_SIZE
                ) -> ShardPlan:
    """Split ``machines`` into balanced shards of at most ``shard_size``.

    The number of shards is ``ceil(machines / shard_size)`` and machines
    are distributed as evenly as possible (the first ``machines % n``
    shards take one extra), which keeps parallel workers load-balanced.
    """
    if machines <= 0:
        raise ConfigError("need at least one machine")
    if shard_size <= 0:
        raise ConfigError(f"shard size must be positive, got {shard_size}")
    count = -(-machines // shard_size)  # ceil division
    base, extra = divmod(machines, count)
    sizes = tuple(base + 1 if i < extra else base for i in range(count))
    return ShardPlan(machines=machines, sizes=sizes)
