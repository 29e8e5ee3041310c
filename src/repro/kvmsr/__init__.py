"""KVMSR: key-value map-shuffle-reduce (the paper's primary contribution)."""

from .binding import (
    BlockBinding,
    CustomReduceBinding,
    DataDrivenBinding,
    HashBinding,
    KeyToLaneBinding,
    LaneSet,
    MapBinding,
    PBMWBinding,
    ReduceBinding,
    splitmix64,
    stable_hash,
)
from .combining import CombiningCache
from .doall import make_do_all
from .engine import (
    KVMSRError,
    KVMSRJob,
    MapTask,
    ReduceTask,
    emit_to_reduce,
    emit_to_reduce_many,
    ensure_registered,
    job_of,
)
from .iterator import ArrayInput, InputSpec, ListInput, RangeInput

__all__ = [
    "KVMSRJob",
    "MapTask",
    "ReduceTask",
    "KVMSRError",
    "job_of",
    "emit_to_reduce",
    "emit_to_reduce_many",
    "ensure_registered",
    "CombiningCache",
    "make_do_all",
    "LaneSet",
    "MapBinding",
    "ReduceBinding",
    "BlockBinding",
    "HashBinding",
    "PBMWBinding",
    "KeyToLaneBinding",
    "CustomReduceBinding",
    "DataDrivenBinding",
    "stable_hash",
    "splitmix64",
    "RangeInput",
    "ArrayInput",
    "ListInput",
    "InputSpec",
]
