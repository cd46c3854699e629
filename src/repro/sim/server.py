"""Timed back-end shard: FCFS queue + load-dependent service degradation.

A timing model only: what a shard *holds*, and whether it answers at all,
is the content cluster's business (:mod:`repro.sim.plane`); requests that
failed there never reach :meth:`SimBackendServer.submit`.

Two mechanisms the paper identifies drive its runtime results, and both
live here:

* **Bottleneck queueing & thrashing** (Figure 5): with 20 closed-loop
  client connections, "the most loaded server introduces a performance
  bottleneck especially under thrashing". We model a single FCFS service
  line per shard whose service time is inflated by a factor growing with
  the number of in-flight requests beyond a concurrency threshold.
* **Load-proportional slowdown** (Figure 6): even with a *single* client
  (no queueing at all), the paper measures skewed-workload runtimes
  roughly proportional to the load-imbalance factor — the hot shard is
  simply slower per request when it is serving far beyond its fair share
  (connection handling, allocator and NIC pressure in the real system).
  We model this as a service-time multiplier proportional to how far the
  shard's arrival share exceeds the fair share ``1/num_servers``.

Both knobs default to values calibrated so the shapes of Figures 5-6
(ratios between uniform / Zipf 0.99 / Zipf 1.2, with and without front-end
caches) reproduce; `benchmarks/bench_fig5_end_to_end.py` prints the
calibration alongside the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.sim.events import Simulator

if TYPE_CHECKING:
    from repro.cluster.faults import FaultInjector

__all__ = ["ServiceModel", "SimBackendServer"]


@dataclass(frozen=True)
class ServiceModel:
    """Service-time parameters for one shard.

    Attributes
    ----------
    base_service_time:
        seconds of work per request at fair load with no queueing.
    thrash_threshold:
        in-flight requests beyond which thrashing sets in.
    thrash_factor:
        fractional service-time inflation per in-flight request above the
        threshold (0 disables thrashing).
    load_penalty:
        fractional inflation per unit of *excess share*: a shard receiving
        ``s`` of arrivals against a fair share ``f`` serves at
        ``base * (1 + load_penalty * max(0, s/f - 1))``.
    failure_detect_time:
        how long a client-side request on a failed shard takes to be
        recognized as failed (roughly one request timeout); what
        :class:`~repro.sim.client.SimClient` charges a hop that raised.
    """

    base_service_time: float = 50e-6
    thrash_threshold: int = 3
    thrash_factor: float = 1.2
    load_penalty: float = 3.0
    failure_detect_time: float = 500e-6

    def __post_init__(self) -> None:
        if self.base_service_time <= 0:
            raise ConfigurationError("base_service_time must be > 0")
        if self.thrash_threshold < 0:
            raise ConfigurationError("thrash_threshold must be >= 0")
        if self.thrash_factor < 0 or self.load_penalty < 0:
            raise ConfigurationError("inflation factors must be >= 0")
        if self.failure_detect_time < 0:
            raise ConfigurationError("failure_detect_time must be >= 0")


class SimBackendServer:
    """FCFS single-line server with the two slowdown mechanisms."""

    def __init__(
        self,
        server_id: str,
        model: ServiceModel,
        fair_share: float,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        if not 0 < fair_share <= 1:
            raise ConfigurationError("fair_share must be in (0, 1]")
        self.server_id = server_id
        self.model = model
        self._fair_share = fair_share
        self._busy_until = 0.0
        self._in_flight = 0
        self.arrivals = 0
        self.busy_time = 0.0
        self.fault_injector = fault_injector
        self._total_arrivals_ref: list[int] | None = None

    def bind_total_counter(self, counter: list[int]) -> None:
        """Share a mutable total-arrivals cell with the simulation."""
        self._total_arrivals_ref = counter

    # ------------------------------------------------------------------ api

    def utilization(self, now: float) -> float:
        """Fraction of elapsed time this shard spent serving."""
        return self.busy_time / now if now > 0 else 0.0

    def share(self) -> float:
        """This shard's lifetime share of all arrivals."""
        if not self._total_arrivals_ref or self._total_arrivals_ref[0] == 0:
            return self._fair_share
        return self.arrivals / self._total_arrivals_ref[0]

    def _service_time(self) -> float:
        """Current effective per-request service time."""
        service = self.model.base_service_time
        excess_queue = max(0, self._in_flight - self.model.thrash_threshold)
        service *= 1.0 + self.model.thrash_factor * excess_queue
        excess_share = max(0.0, self.share() / self._fair_share - 1.0)
        service *= 1.0 + self.model.load_penalty * excess_share
        if self.fault_injector is not None:
            # Injected slowdown: the migrating/overcommitted instance
            # serves every request proportionally slower.
            service *= self.fault_injector.slowdown(self.server_id)
        return service

    def submit(self, sim: Simulator, on_complete) -> None:
        """Accept one request; ``on_complete()`` fires when it is served."""
        self.arrivals += 1
        if self._total_arrivals_ref is not None:
            self._total_arrivals_ref[0] += 1
        self._in_flight += 1
        service = self._service_time()
        start = max(sim.now, self._busy_until)
        finish = start + service
        self._busy_until = finish
        self.busy_time += service

        def _complete() -> None:
            self._in_flight -= 1
            on_complete()

        sim.schedule_at(finish, _complete)
