"""Common vocabulary for workloads: categories and the Workload protocol."""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # the fleet reads the categories, never a trace
    from repro.access.address import AddressSpace
    from repro.access.trace import Trace


class FunctionCategory(enum.Enum):
    """The paper's function taxonomy (Figures 11, 12, 20).

    The first four are the *data center tax* categories found to be
    prefetch-friendly; ``NON_TAX`` covers everything else.
    """

    COMPRESSION = "compression"
    DATA_TRANSMISSION = "data transmission"
    HASHING = "hashing"
    DATA_MOVEMENT = "data movement"
    NON_TAX = "non-DC tax"


#: The prefetch-friendly categories Soft Limoncello targets.
TAX_CATEGORIES = frozenset({
    FunctionCategory.COMPRESSION,
    FunctionCategory.DATA_TRANSMISSION,
    FunctionCategory.HASHING,
    FunctionCategory.DATA_MOVEMENT,
})

#: Function-name -> category for the tax functions :mod:`repro.workloads.tax`
#: generates. Declared here, not registered by that module on import, so
#: a process that never imports it (a pool parent, a cache or checkpoint
#: restore) still categorizes profiles correctly.
_FUNCTION_CATEGORIES = {
    "memcpy": FunctionCategory.DATA_MOVEMENT,
    "memmove": FunctionCategory.DATA_MOVEMENT,
    "memset": FunctionCategory.DATA_MOVEMENT,
    "compress": FunctionCategory.COMPRESSION,
    "decompress": FunctionCategory.COMPRESSION,
    "hash": FunctionCategory.HASHING,
    "crc32": FunctionCategory.HASHING,
    "serialize": FunctionCategory.DATA_TRANSMISSION,
    "deserialize": FunctionCategory.DATA_TRANSMISSION,
}


def category_of_function(name: str) -> FunctionCategory:
    """Category for a function name; unknown names are non-tax."""
    return _FUNCTION_CATEGORIES.get(name, FunctionCategory.NON_TAX)


class Workload(Protocol):
    """Anything that can produce a memory trace."""

    name: str

    def generate(self, rng: random.Random, space: AddressSpace) -> Trace:
        """Produce a fresh trace using ``rng`` and regions from ``space``."""
