"""Hotness decay policies (the paper's Algorithm 3, Case 2 hook).

When cached keys stop earning their keep while *tracked-but-not-cached*
keys meet the quality target, the hot set is rotating (the paper's
"Gangnam style" example) and CoT triggers a *half-life time decay* that
halves the hotness of all cached and tracked keys. The paper cites decay
literature without committing to a mechanism; we implement the half-life
trigger it describes plus a continuous exponential variant as an
extension, behind one small strategy interface so experiments can ablate
them.
"""

from __future__ import annotations

import abc

from repro.core.cache import CoTCache
from repro.errors import ConfigurationError

__all__ = ["DecayPolicy", "NoDecay", "HalfLifeDecay", "ExponentialDecay"]

#: The factor a Case-2 trigger scales every tracked hotness by (Algorithm 3
#: line 11): a half-life halves.
HALF_LIFE = 0.5


class DecayPolicy(abc.ABC):
    """Strategy invoked by the elastic front end around epoch boundaries."""

    #: short name for experiment tables
    name: str = "base"

    #: explicit Case-2 triggers applied (``decay.triggers`` in the snapshot)
    triggers: int = 0

    #: continuous per-epoch decays applied (``decay.epoch_decays``)
    epoch_decays: int = 0

    @abc.abstractmethod
    def on_trigger(self, cache: CoTCache) -> None:
        """Called when Algorithm 3 Case 2 fires (explicit decay request)."""

    def on_epoch(self, cache: CoTCache) -> None:
        """Called at every epoch end regardless of the controller."""
        return None


class NoDecay(DecayPolicy):
    """Ignore decay triggers (the paper's own evaluation configuration)."""

    name = "none"

    def on_trigger(self, cache: CoTCache) -> None:
        return None


class HalfLifeDecay(DecayPolicy):
    """Halve all tracked hotness when triggered (Algorithm 3 line 11)."""

    name = "half_life"

    def __init__(self) -> None:
        self.triggers = 0

    def on_trigger(self, cache: CoTCache) -> None:
        cache.decay(HALF_LIFE)
        self.triggers += 1


class ExponentialDecay(DecayPolicy):
    """Continuously age hotness a little every epoch (extension).

    With per-epoch factor ``rate`` the hotness of an untouched key decays
    geometrically, which retires stale trends without waiting for the
    Case-2 signal; an explicit trigger additionally applies
    :data:`HALF_LIFE`. ``rate = 1.0`` disables the continuous part.
    """

    name = "exponential"

    def __init__(self, rate: float = 0.98) -> None:
        if not 0 < rate <= 1:
            raise ConfigurationError("rate must be in (0, 1]")
        self.rate = rate
        self.triggers = 0
        self.epoch_decays = 0

    def on_epoch(self, cache: CoTCache) -> None:
        if self.rate < 1.0:
            cache.decay(self.rate)
            self.epoch_decays += 1

    def on_trigger(self, cache: CoTCache) -> None:
        cache.decay(HALF_LIFE)
        self.triggers += 1
