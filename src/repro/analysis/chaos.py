"""A stable content hash of an ablation result.

Faulted studies run as an :class:`~repro.fleet.ablation.AblationStudy`
(or :class:`~repro.fleet.rollout.RolloutStudy`) with a ``fault_plan``;
the same plan at any worker count produces a bit-identical result,
which is what :func:`result_digest` exists to check.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.serialization import ablation_result_to_dict

if TYPE_CHECKING:
    from repro.fleet.ablation import AblationResult


def result_digest(result: AblationResult) -> str:
    """A stable content hash of an ablation result.

    Serializes losslessly (raw samples included) with sorted keys and
    hashes the canonical JSON — two results digest equal iff every
    sample, profile, and chaos counter matches bit-for-bit. The CLI's
    ``--compare-serial`` and the CI chaos-smoke job use this to prove
    serial/parallel equivalence.
    """
    payload = json.dumps(ablation_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
