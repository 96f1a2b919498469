"""Domain virtual times (paper Sec. 4.2, Fig. 10).

A domain VT orders all tasks within one domain. In an ordered domain it is
the concatenation of the program timestamp (32 or 64 bits) and a tiebreaker;
in an unordered domain it is just a tiebreaker. Inside a fractal VT each
domain VT is two ints of the flat key, ``(timestamp, tiebreaker)``, with a
zero timestamp in unordered domains (see :mod:`repro.vt.fractal_vt`).

:class:`DomainVT` describes one level *without* its tiebreaker: the
ordering and timestamp that a zoom-in saves on the base stack and a
zoom-out restores (paper Sec. 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import VTError
from .ordering import Ordering

#: Bits one domain VT occupies in the hardware format (Fig. 10): the
#: program timestamp plus a 32-bit tiebreaker.
DOMAIN_VT_BITS = {o: o.timestamp_bits + 32 for o in Ordering}


@dataclass(frozen=True)
class DomainVT:
    """One domain level of a fractal VT: its ordering and timestamp."""

    ordering: Ordering
    timestamp: int = 0          # always 0 for unordered domains

    def __post_init__(self):
        if not 0 <= self.timestamp <= self.ordering.max_timestamp:
            raise VTError(f"timestamp {self.timestamp} out of range for an "
                          f"{self.ordering.value} domain VT")

    @property
    def bits(self) -> int:
        """Bits this domain VT occupies in the hardware format (Fig. 10)."""
        return DOMAIN_VT_BITS[self.ordering]
