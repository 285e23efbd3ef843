"""Size guards for the exhaustive enumerations."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnumerationCaps:
    """Hard limits on how many objects a single call may walk.

    signed_group bounds |B_n|, |D_n| and |S_n| streams (default |B_8|),
    colored_group bounds |G_{m,n}| streams, census_points bounds the
    number of lattice points a census visits.
    """

    signed_group: int = 2**8 * 40320
    colored_group: int = 10**7
    census_points: int = 10**8


DEFAULT_CAPS = EnumerationCaps()
