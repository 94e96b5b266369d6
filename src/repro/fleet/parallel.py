"""Worker-pool execution for sharded fleet studies.

Shards are mapped across processes with
:class:`concurrent.futures.ProcessPoolExecutor`. The contract that keeps
parallel output bit-identical to serial output:

* the task list (one shard per task) is fixed before any worker starts, and
* results are collected *positionally*, so the merge downstream always
  folds shards in plan order no matter which worker finished first.

Anything that prevents a pool from working — a sandbox without process
semaphores, an interpreter without ``fork``/``spawn``, a worker dying —
degrades to the serial path rather than failing the study.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError

#: Environment override for the default worker count, honoured by every
#: study entry point when the caller does not pass ``workers`` explicitly.
WORKERS_ENV_VAR = "REPRO_WORKERS"

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


class _CallbackError(Exception):
    """Wraps an exception raised by an ``on_result`` callback.

    :func:`run_sharded` must tell *pool* failures (degrade to serial,
    results unaffected) apart from *callback* failures (the caller's
    journal raised, or deliberately interrupted the queue — propagate).
    Since both surface inside the same ``try``, callback exceptions are
    wrapped in this marker on the way out and unwrapped past the pool
    handler.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


def run_sharded(
        worker: Callable[[_Spec], _Result],
        specs: Sequence[_Spec],
        workers: int = 1,
        on_result: Optional[Callable[[int, _Result], None]] = None,
) -> List[_Result]:
    """Map ``worker`` over ``specs``; results come back in spec order.

    With ``workers <= 1`` (or a single spec) this is a plain serial loop.
    Otherwise the specs are fanned out over a process pool — ``worker``
    and every spec must be picklable (a module-level function; a shard,
    which is a copy of its study).

    ``on_result(index, result)``, when given, fires exactly once per
    spec, in *completion* order (which under a pool differs from spec
    order), as soon as that shard's result exists — this is the hook the
    checkpoint journal writes through, so a study killed mid-run keeps
    every shard that finished.

    Failure contract:

    * Pool infrastructure failing (no semaphores, broken pool, killed
      worker) degrades to serial. Only the positions without a result
      are recomputed, so ``on_result`` still fires exactly once per spec
      and nothing already journaled is recomputed or re-reported;
      workers are pure functions of their spec, so recomputation cannot
      change the answer.
    * An exception raised *by the callback* (including a deliberate
      :class:`~repro.errors.QueueInterrupted`) propagates to the caller
      unchanged; it is never mistaken for a pool failure.
    """
    results: List[Optional[_Result]] = [None] * len(specs)
    done = [False] * len(specs)

    def finish(index: int, result: _Result) -> None:
        results[index] = result
        done[index] = True
        if on_result is not None:
            on_result(index, result)

    if workers > 1 and len(specs) > 1:
        # Imported here so a serial study never loads the pool machinery
        # (``concurrent.futures`` pulls in ``multiprocessing``).
        import concurrent.futures
        import concurrent.futures.process

        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(specs))) as pool:
                futures = {pool.submit(worker, spec): index
                           for index, spec in enumerate(specs)}
                for future in concurrent.futures.as_completed(futures):
                    result = future.result()
                    try:
                        finish(futures[future], result)
                    except BaseException as exc:
                        raise _CallbackError(exc) from exc
        except _CallbackError as exc:
            raise exc.cause
        except (OSError, ImportError, PermissionError,
                concurrent.futures.process.BrokenProcessPool):
            # No usable process pool here (restricted sandbox, missing
            # semaphores, killed worker): the serial pass below computes
            # whatever the pool did not finish.
            pass
    for index, spec in enumerate(specs):
        if not done[index]:
            finish(index, worker(spec))
    return results  # type: ignore[return-value]
