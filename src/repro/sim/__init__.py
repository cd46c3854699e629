"""Discrete-event simulation of the paper's testbed timing behaviour:
closed-loop clients (each the shipping front-end client over a
hop-logging :class:`~repro.sim.plane.SimPlane`), FCFS shard queues with
thrashing and load-dependent slowdown, and a 244 µs-RTT network
(Figures 5-6's substrate). Runs are assembled and executed by the
engine's :class:`~repro.engine.runners.SimRunner`."""

from repro.sim.client import SimClient
from repro.sim.events import Simulator
from repro.sim.network import PAPER_RTT, FixedLatency
from repro.sim.server import ServiceModel, SimBackendServer

__all__ = [
    "SimClient",
    "Simulator",
    "FixedLatency",
    "PAPER_RTT",
    "ServiceModel",
    "SimBackendServer",
]
