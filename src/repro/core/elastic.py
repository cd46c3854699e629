"""The elastic CoT front end: cache + controller + epoch loop, assembled.

:class:`ElasticCoTClient` extends the protocol-level
:class:`~repro.cluster.client.FrontEndClient` with everything Section 4.4
adds on top of the replacement policy:

* it counts accesses and closes an *epoch* every ``E`` accesses, where
  ``E = max(base_epoch, K)`` is re-derived after each resize (Algorithm 3
  line 4 requires ``E >= K`` so resizes never trigger before the tracker
  refills). ``K`` changes only inside :meth:`close_epoch`, so the epoch is
  a countdown armed there: an access decrements one integer;
* at each epoch end it assembles the :class:`EpochSnapshot` (``I_c`` from
  its private load monitor, ``alpha_c``/``alpha_k_c`` from the CoT cache),
  asks the :class:`~repro.core.resizing.ResizingController` for a decision,
  and applies it (resize / decay / nothing);
* it archives an :class:`EpochRecord` per epoch — the exact series plotted
  in the paper's Figures 7 and 8.

Each front end is fully autonomous: no coordination, no shared state, no
central control plane — the paper's decentralization claim is literal in
this code.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable

from repro.cluster.client import FrontEndClient
from repro.cluster.loadmonitor import load_imbalance, noise_allowance
from repro.cluster.cluster import CacheCluster
from repro.cluster.retry import ClusterGuard
from repro.core.cache import CoTCache
from repro.core.decay import DecayPolicy, HalfLifeDecay
from repro.core.epoch import EpochRecord, EpochSnapshot
from repro.core.resizing import ResizingController
from repro.errors import ConfigurationError

__all__ = ["ElasticCoTClient"]

#: Epochs whose per-shard loads are summed before ``I_c`` is taken.
#: Summing a few epochs before max/min removes the binomial sampling bias
#: that otherwise inflates ``I_c`` at small epoch sizes (a window of 1 is
#: the paper's single-epoch measurement).
IMBALANCE_WINDOW = 32


class ElasticCoTClient(FrontEndClient):
    """A front end that auto-configures its CoT cache to hit ``I_t``.

    Parameters
    ----------
    cluster:
        shared back-end cluster.
    target_imbalance:
        ``I_t`` — the one administrator-provided input.
    initial_cache / initial_tracker:
        starting sizes; the paper's Figure 7 starts from a deliberately
        tiny cache of 2 lines and tracker of 4 entries.
    base_epoch:
        the administrator's nominal epoch length ``E`` (paper: 5000);
        the effective epoch is ``max(base_epoch, K)``.
    controller:
        a pre-configured controller; one is built from
        ``target_imbalance`` when omitted. Any object with the
        :class:`ResizingController` surface works — ``observe(snapshot)
        -> ResizeDecision`` plus ``phase``/``alpha_target`` attributes —
        e.g. :class:`~repro.core.costaware.CostAwareController`, which
        resizes on memory cost vs. hit value instead of imbalance.
    decay:
        decay policy for Case-2 triggers (default half-life).
    guard:
        retry/breaker layer forwarded to
        :class:`~repro.cluster.client.FrontEndClient`; the chaos
        experiments pass one with tightened thresholds.
    """

    def __init__(
        self,
        cluster: CacheCluster,
        target_imbalance: float = 1.1,
        initial_cache: int = 2,
        initial_tracker: int = 4,
        base_epoch: int = 5000,
        controller: "ResizingController | Any | None" = None,
        decay: DecayPolicy | None = None,
        client_id: str = "elastic-0",
        guard: "ClusterGuard | None" = None,
    ) -> None:
        if base_epoch < 1:
            raise ConfigurationError("base_epoch must be >= 1")
        policy = CoTCache(initial_cache, initial_tracker)
        super().__init__(cluster, policy, client_id=client_id, guard=guard)
        self.cot: CoTCache = policy
        self.controller = controller or ResizingController(
            target_imbalance=target_imbalance
        )
        self.decay_policy = decay or HalfLifeDecay()
        self._base_epoch = base_epoch
        #: accesses left in this epoch, armed to ``epoch_length`` when it opens
        self._room = self.epoch_length
        self._epoch_index = 0
        #: per-epoch load snapshots of the last IMBALANCE_WINDOW epochs
        self._recent_loads: deque[dict[str, int]] = deque(maxlen=IMBALANCE_WINDOW)
        self.history: list[EpochRecord] = []

    # ----------------------------------------------------------- properties

    @property
    def epoch_length(self) -> int:
        """Effective ``E = max(base_epoch, K)``; read when an epoch opens."""
        return max(self._base_epoch, self.cot.tracker_capacity)

    @property
    def epoch_index(self) -> int:
        """Number of completed epochs."""
        return self._epoch_index

    # -------------------------------------------------------------- protocol

    def get(self, key: Hashable) -> Any:
        value = super().get(key)
        # ``_bump`` inlined: a hit is three frames, and the call a fourth.
        self._room -= 1
        if not self._room:
            self.close_epoch()
        return value

    def set(self, key: Hashable, value: Any) -> None:
        super().set(key, value)
        self._bump()

    def delete(self, key: Hashable) -> None:
        super().delete(key)
        self._bump()

    def _bump(self) -> None:
        self._room -= 1
        if not self._room:
            self.close_epoch()

    # ------------------------------------------------------------ epoch loop

    def _windowed_imbalance(self) -> tuple[float, int]:
        """``(I_c, sample)`` over loads summed across the recent window.

        Summing a few epochs before taking max/min shrinks the binomial
        sampling bias that inflates single-epoch ratios; the sample size
        prices the noise that remains (:func:`noise_allowance`).
        """
        summed: dict[str, int] = {}
        for loads in self._recent_loads:
            for server, count in loads.items():
                summed[server] = summed.get(server, 0) + count
        return load_imbalance(summed), sum(summed.values())

    def _churn_safe_epoch_loads(self) -> dict[str, int]:
        """This epoch's per-shard loads, filtered for topology churn.

        Three classes of shard are excluded so that churn cannot
        fabricate an ``I_c`` spike (and with it a spurious ``EXPAND``):

        * shards no longer on the ring — belt-and-braces on top of the
          removal purge (``CacheCluster.removal_listeners`` →
          :meth:`LoadMonitor.forget_server`), which already drops a
          removed shard's entries so they can neither floor the
          imbalance denominator at 1 nor hand their counts to a later
          shard aliasing the id (a remove→add inside one epoch used to
          splice the fresh shard's partial window onto the dead
          incarnation's counts — a double-count, not workload skew);
        * shards whose circuit breaker is not closed — a shard that died
          mid-epoch contributes a partial count that reflects the
          failure, not workload skew;
        * shards first seen mid-epoch (scale-out joiners, including any
          id reincarnation after :meth:`~repro.cluster.loadmonitor.LoadMonitor.forget_server`)
          — their partial window under-counts until the first full epoch.
        """
        members = set(self.cluster.server_ids)
        unavailable = self.guard.unavailable_servers()
        fresh = self.monitor.epoch_new_servers()
        return {
            server: count
            for server, count in self.monitor.epoch_loads().items()
            if server in members
            and server not in unavailable
            and server not in fresh
        }

    def close_epoch(self) -> EpochRecord:
        """Finish the current epoch: snapshot, decide, apply, archive.

        Normally invoked automatically every ``epoch_length`` accesses;
        experiments may call it directly to flush a final partial epoch.
        """
        epoch_loads = self._churn_safe_epoch_loads()
        if self._recent_loads and set(epoch_loads) != set(self._recent_loads[-1]):
            # Topology changed under us: loads summed across different
            # shard sets are not comparable, so the window restarts.
            self._recent_loads.clear()
        self._recent_loads.append(epoch_loads)
        imbalance, sample = self._windowed_imbalance()
        num_servers = len(epoch_loads) or len(self.monitor.servers)
        snapshot = EpochSnapshot(
            index=self._epoch_index,
            cache_capacity=self.cot.capacity,
            tracker_capacity=self.cot.tracker_capacity,
            imbalance=imbalance,
            alpha_c=self.cot.alpha_c(),
            alpha_k_c=self.cot.alpha_k_c(),
            accesses=self.epoch_length - self._room,
            noise_allowance=noise_allowance(sample, num_servers),
        )
        decision = self.controller.observe(snapshot)
        if decision.decay:
            self.decay_policy.on_trigger(self.cot)
        if (
            decision.cache_capacity != self.cot.capacity
            or decision.tracker_capacity != self.cot.tracker_capacity
        ):
            self.cot.set_sizes(decision.cache_capacity, decision.tracker_capacity)
            # Loads observed under the old sizes would contaminate the
            # windowed I_c of the new configuration.
            self._recent_loads.clear()
        self.decay_policy.on_epoch(self.cot)
        record = EpochRecord(
            snapshot=snapshot,
            decision=decision.kind.value,
            phase=self.controller.phase.value,
            alpha_target=self.controller.alpha_target,
            new_cache_capacity=self.cot.capacity,
            new_tracker_capacity=self.cot.tracker_capacity,
        )
        self.history.append(record)
        self._epoch_index += 1
        self._room = self.epoch_length
        self.cot.reset_epoch()
        self.monitor.reset_epoch()
        return record

    # -------------------------------------------------------------- summary

    def converged_sizes(self) -> tuple[int, int]:
        """Current ``(C, K)`` — the auto-configured answer."""
        return self.cot.capacity, self.cot.tracker_capacity

    def recent_imbalance(self) -> float:
        """``I_c`` over the recent-epoch window (steady-state view).

        Unlike :meth:`~repro.cluster.client.FrontEndClient.local_imbalance`
        this excludes warm-up history, so it reflects the currently
        converged configuration.
        """
        imbalance, _sample = self._windowed_imbalance()
        return imbalance

    def __repr__(self) -> str:
        cache, tracker = self.converged_sizes()
        return (
            f"ElasticCoTClient(id={self.client_id!r}, C={cache}, K={tracker}, "
            f"epochs={self._epoch_index}, phase={self.controller.phase.value})"
        )
