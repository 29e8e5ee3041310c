"""The UpDown machine substrate: a functional, cost-modeled DES.

This package stands in for the authors' Fastsim (paper §5.1): a
discrete-event simulation of lanes, accelerators, nodes, the PolarStar
network, and per-node HBM channels, with the Table 2 lane cost model.
"""

from .config import MachineConfig, bench_machine, paper_machine
from .costs import DEFAULT_COSTS, CLOCK_HZ, CostTable
from .events import HOST_NWID, NEW_THREAD, DramAccess, MessageRecord
from .lane import Lane
from .simulator import (
    QuiescenceStall,
    RunIncomplete,
    SimulationError,
    Simulator,
)
from .stats import SimStats

__all__ = [
    "MachineConfig",
    "bench_machine",
    "paper_machine",
    "CostTable",
    "DEFAULT_COSTS",
    "CLOCK_HZ",
    "DramAccess",
    "MessageRecord",
    "NEW_THREAD",
    "HOST_NWID",
    "Lane",
    "Simulator",
    "SimulationError",
    "QuiescenceStall",
    "RunIncomplete",
    "SimStats",
]
