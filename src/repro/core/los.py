"""Levels of Service (LoS).

Section III: "we consider that functionality can be performed with possibly
several LoS ... each with its own set of safety requirements imposed on every
local system and each allowing a certain maximum performance level. ... We
consider that there is always one LoS that will meet all the conditions for
functional safety", typically the non-cooperative mode realised only with
components below the hybridisation line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class LevelOfService:
    """One service level of one functionality.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"cooperative-tight"``).
    rank:
        Performance ordering; higher rank means higher performance and more
        demanding safety rules.  Rank 0 is the always-safe fallback.
    configuration:
        Operational settings the nominal components must adopt in this LoS
        (e.g. the ACC time gap, whether V2V data may be used).
    cooperative:
        Whether the LoS relies on components above the hybridisation line
        (wireless communication, remote sensor data).
    """

    name: str
    rank: int
    configuration: Dict[str, Any] = field(default_factory=dict)
    cooperative: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")

    def setting(self, key: str, default: Any = None) -> Any:
        """Read one configuration setting."""
        return self.configuration.get(key, default)


class LoSCatalog:
    """The ordered set of LoS defined for one functionality.

    The catalog enforces the paper's structural requirements: ranks are
    unique, there is exactly one rank-0 level, and the rank-0 level must not
    be cooperative (it must be realisable below the hybridisation line).
    The rank order is resolved once per change of the catalog (see
    :meth:`descending`), not on every safety-manager cycle.
    """

    def __init__(self, functionality: str, levels: Optional[List[LevelOfService]] = None):
        self.functionality = functionality
        self._levels: Dict[int, LevelOfService] = {}
        #: The levels highest rank first; ``None`` until asked for after a change.
        self._descending: Optional[Tuple[LevelOfService, ...]] = None
        for level in levels or []:
            self.add(level)

    def add(self, level: LevelOfService) -> LevelOfService:
        if level.rank in self._levels:
            raise ValueError(f"duplicate LoS rank {level.rank} in {self.functionality}")
        if level.rank == 0 and level.cooperative:
            raise ValueError("the rank-0 LoS must not depend on cooperative components")
        self._levels[level.rank] = level
        self._descending = None
        return level

    def validate(self) -> None:
        """Check the catalog is usable (has a rank-0 fallback)."""
        if 0 not in self._levels:
            raise ValueError(
                f"functionality {self.functionality!r} has no rank-0 fallback LoS"
            )

    @property
    def fallback(self) -> LevelOfService:
        """The always-safe, lowest level of service."""
        self.validate()
        return self._levels[0]

    @property
    def highest(self) -> LevelOfService:
        return self._levels[max(self._levels)]

    def by_rank(self, rank: int) -> LevelOfService:
        return self._levels[rank]

    def by_name(self, name: str) -> LevelOfService:
        for level in self._levels.values():
            if level.name == name:
                return level
        raise KeyError(name)

    def descending(self) -> Tuple[LevelOfService, ...]:
        """Levels highest rank first, as a tuple kept until :meth:`add`."""
        order = self._descending
        if order is None:
            order = self._descending = tuple(
                self._levels[rank] for rank in sorted(self._levels, reverse=True)
            )
        return order

    def ordered(self, descending: bool = True) -> List[LevelOfService]:
        """Levels ordered by rank (highest first by default), as a new list."""
        order = self.descending()
        return list(order) if descending else list(reversed(order))

    def ranks(self) -> List[int]:
        return sorted(self._levels)

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self):
        return iter(self.ordered(descending=False))

    def __contains__(self, rank: int) -> bool:
        return rank in self._levels
