"""Memory-request representation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["RequestType", "MemoryRequest"]


class RequestType(Enum):
    """Read or write, from the memory controller's point of view."""

    READ = "read"
    WRITE = "write"


@dataclass
class MemoryRequest:
    """A single row-granularity memory request.

    Attributes
    ----------
    address:
        Byte address of the access.
    request_type:
        Read or write.
    size_bytes:
        Number of bytes transferred (clamped to the row size by the
        controller).
    arrival_cycle:
        Cycle at which the request becomes visible to the controller.
    """

    address: int
    request_type: RequestType = RequestType.READ
    size_bytes: int = 32
    arrival_cycle: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.arrival_cycle < 0:
            raise ValueError("arrival_cycle must be non-negative")
