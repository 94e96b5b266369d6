"""Worker-pool execution for sharded fleet studies.

Shards are mapped across processes with
:class:`concurrent.futures.ProcessPoolExecutor`. The contract that keeps
parallel output bit-identical to serial output:

* the task list (shard specs) is fixed before any worker starts, and
* results are collected *positionally*, so the merge downstream always
  folds shards in plan order no matter which worker finished first.

Anything that prevents a pool from working — a sandbox without process
semaphores, an interpreter without ``fork``/``spawn``, a worker dying —
degrades to the serial path rather than failing the study.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import os
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError
from repro.memsys.hierarchy import DEFAULT_BATCH_SIZE

#: Environment override for the default worker count, honoured by every
#: study entry point when the caller does not pass ``workers`` explicitly.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment override for the lockstep batch size, read once per study
#: by :func:`resolve_batch_size`. ``0`` (or ``off``) disables batching so
#: every arm runs the scalar compiled engine — the oracle configuration
#: CI diffs against.
BATCH_ENV_VAR = "REPRO_BATCH"

_Spec = TypeVar("_Spec")
_Result = TypeVar("_Result")


def resolve_workers(workers: Optional[int] = None) -> int:
    """The worker count to use: explicit arg, else ``$REPRO_WORKERS``,
    else 1 (serial).

    An explicit ``workers=0`` means "all available CPUs" (that is what
    ``--workers 0`` documents). The environment variable is stricter: it
    must be a positive integer, and ``0``, negatives, and non-integers
    are all rejected with a :class:`ConfigError` (a ``ValueError``)
    naming the variable — a mistyped ``REPRO_WORKERS`` silently running
    serial, or accidentally fanning out to every CPU, is exactly the
    kind of quiet misconfiguration that wastes a study run.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV_VAR} must be a positive integer, "
                f"got {env!r}") from None
        if workers <= 0:
            raise ConfigError(
                f"{WORKERS_ENV_VAR} must be a positive integer, "
                f"got {workers}")
        return workers
    if workers < 0:
        raise ConfigError(f"workers cannot be negative, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def resolve_batch_size(batch_size: Optional[int] = None) -> int:
    """The lockstep batch size to use: explicit arg, else ``$REPRO_BATCH``,
    else :data:`DEFAULT_BATCH_SIZE`.

    ``0`` — explicit or via the environment (which also accepts ``off``)
    — disables batching: every arm runs the scalar compiled engine.
    Any other environment value must be a positive integer; junk raises
    a :class:`ConfigError` naming the variable, mirroring
    :func:`resolve_workers` — a mistyped ``REPRO_BATCH`` silently
    running scalar would quietly forfeit the engine an equivalence CI
    run is trying to exercise.
    """
    if batch_size is None:
        env = os.environ.get(BATCH_ENV_VAR, "").strip()
        if not env:
            return DEFAULT_BATCH_SIZE
        if env.lower() == "off":
            return 0
        try:
            batch_size = int(env)
        except ValueError:
            raise ConfigError(
                f"{BATCH_ENV_VAR} must be a non-negative integer or 'off', "
                f"got {env!r}") from None
        if batch_size < 0:
            raise ConfigError(
                f"{BATCH_ENV_VAR} must be a non-negative integer or 'off', "
                f"got {batch_size}")
        return batch_size
    if batch_size < 0:
        raise ConfigError(f"batch size cannot be negative, got {batch_size}")
    return batch_size


def run_sharded(worker: Callable[[_Spec], _Result],
                specs: Sequence[_Spec],
                workers: int = 1) -> List[_Result]:
    """Map ``worker`` over ``specs``; results come back in spec order.

    With ``workers <= 1`` (or a single spec) this is a plain serial loop.
    Otherwise the specs are fanned out over a process pool — ``worker``
    and every spec must be picklable (module-level function, dataclass
    spec). If the pool cannot be created or dies mid-flight the whole
    map is recomputed serially; workers are pure functions of their spec,
    so recomputation cannot change the answer.
    """
    if workers <= 1 or len(specs) <= 1:
        return [worker(spec) for spec in specs]
    try:
        max_workers = min(workers, len(specs))
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=max_workers) as pool:
            return list(pool.map(worker, specs))
    except (OSError, ImportError, PermissionError,
            concurrent.futures.process.BrokenProcessPool):
        # No usable process pool here (restricted sandbox, missing
        # semaphores, killed worker): fall back to the serial path.
        return [worker(spec) for spec in specs]


class _CallbackError(Exception):
    """Wraps an exception raised by an ``on_result`` callback.

    The incremental runner must tell *pool* failures (degrade to serial,
    results unaffected) apart from *callback* failures (the caller's
    journal raised, or deliberately interrupted the queue — propagate).
    Since both surface inside the same ``try``, callback exceptions are
    wrapped in this marker on the way out and unwrapped past the pool
    handler.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


def run_sharded_incremental(
        worker: Callable[[_Spec], _Result],
        specs: Sequence[_Spec],
        workers: int = 1,
        on_result: Optional[Callable[[int, _Result], None]] = None,
) -> List[_Result]:
    """Like :func:`run_sharded`, but reports each result as it lands.

    ``on_result(index, result)`` fires exactly once per spec, in
    *completion* order (which under a pool differs from spec order), as
    soon as that shard's result exists — this is the hook the checkpoint
    journal writes through, so a study killed mid-run keeps every shard
    that finished. The returned list is still in spec order, so the
    downstream merge is unaffected.

    Failure contract:

    * Pool infrastructure failing (no semaphores, broken pool) degrades
      to serial — but only the positions whose callback has *not* fired
      are recomputed, so ``on_result`` still fires exactly once per spec
      and nothing already journaled is recomputed or re-reported.
    * An exception raised *by the callback* (including a deliberate
      :class:`~repro.errors.QueueInterrupted`) propagates to the caller
      unchanged; it is never mistaken for a pool failure.
    """
    if on_result is None:
        return run_sharded(worker, specs, workers)
    results: List[Optional[_Result]] = [None] * len(specs)
    done = [False] * len(specs)

    def finish(index: int, result: _Result) -> None:
        results[index] = result
        done[index] = True
        try:
            on_result(index, result)
        except BaseException as exc:
            raise _CallbackError(exc) from exc

    try:
        if workers <= 1 or len(specs) <= 1:
            for index, spec in enumerate(specs):
                finish(index, worker(spec))
        else:
            max_workers = min(workers, len(specs))
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=max_workers) as pool:
                futures = {pool.submit(worker, spec): index
                           for index, spec in enumerate(specs)}
                for future in concurrent.futures.as_completed(futures):
                    finish(futures[future], future.result())
    except _CallbackError as exc:
        raise exc.cause
    except (OSError, ImportError, PermissionError,
            concurrent.futures.process.BrokenProcessPool):
        # Pool infrastructure failed. Recompute only the shards whose
        # callback has not fired, so ``on_result`` still fires exactly
        # once per spec; callback exceptions from this serial pass are
        # unwrapped below.
        try:
            for index, spec in enumerate(specs):
                if not done[index]:
                    finish(index, worker(spec))
        except _CallbackError as exc:
            raise exc.cause
    return results  # type: ignore[return-value]
