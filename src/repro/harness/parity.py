"""The one value every host-side mode must leave bit-identical."""

from typing import Any, Dict

import numpy as np

from repro.machine.simulator import SimulationError


def _canonical(result: Any) -> Any:
    if isinstance(result, np.ndarray):
        return (result.dtype.str, result.shape, result.tobytes())
    digest = getattr(result, "fingerprint", None)
    if callable(digest):  # a ServiceResult: its own pinned digest
        return digest()
    if isinstance(result, dict):
        return {k: _canonical(v) for k, v in result.items()}
    if isinstance(result, (list, tuple)):
        return tuple(_canonical(v) for v in result)
    return result


def fingerprint(sim, result: Any = None) -> Dict[str, Any]:
    """Everything the modeled machine did, as one ``==``-comparable dict.

    Covers:

    * ``model``: ``sim.stats.model_snapshot()`` — every always-on
      scalar counter, ``final_tick`` included;
    * ``mailbox``: the host inbox as ``(t, label, operands)``, in
      delivery order;
    * ``busy``: ``busy_cycles_by_lane``;
    * ``scratchpads``: every instantiated lane's scratchpad, in nwid
      order;
    * ``result``: the app result, canonical — an ndarray becomes its
      dtype, shape and bytes (NaN-safe, bit-exact), a result with a
      ``fingerprint()`` method — a :class:`~repro.service.ServiceResult`
      — that digest, and lists, tuples and dicts are canonicalised
      element-wise.

    Deliberately left out, because host-side modes legitimately move
    them: the ``HOST_SPLIT_KEYS`` counters (how many records the batch
    core ran rather than the interpreter), the flight recorder's
    contents, and ``parallel_metrics()`` windows.

    Raises :class:`SimulationError` unless ``records_batched +
    events_interpreted == events_executed``: the split the model
    snapshot drops must still partition the events it keeps.
    """
    stats = sim.stats
    if stats.records_batched + stats.events_interpreted != stats.events_executed:
        raise SimulationError(
            f"records_batched ({stats.records_batched}) + events_interpreted "
            f"({stats.events_interpreted}) != events_executed "
            f"({stats.events_executed})"
        )
    return {
        "model": stats.model_snapshot(),
        "mailbox": [(t, rec.label, rec.operands) for t, rec in sim.host_inbox],
        "busy": dict(stats.busy_cycles_by_lane),
        "scratchpads": {
            nwid: dict(sim._lanes[nwid].scratchpad) for nwid in sorted(sim._lanes)
        },
        "result": _canonical(result),
    }
