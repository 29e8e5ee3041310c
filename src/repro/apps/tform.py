"""TFORM: transducer-based record parsing (paper §5.2.4, Table 3/5).

The AGILE TFORM tool compiles data transformations into deterministic
finite-state transducers for fast sub-byte encode/decode [28].  This module
implements the CSV-record transducer the ingestion workflow needs:

* a byte-driven DFA that parses comma-separated integer fields into
  fixed-shape 8-word (64-byte) records — the paper's record unit;
* packing/unpacking between text and the 8-bytes-per-word layout the
  simulated file region uses;
* a synthetic workload generator standing in for the WF2 CSV datasets
  (same record structure: vertex and typed-edge records).

The transducer is intentionally incremental: callers feed bytes chunk by
chunk (as 64-byte DRAM reads complete) and collect whole records as they
fall out, which is what lets map tasks handle records that span block
boundaries (§5.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: record type codes (word 0 of the 8-word record)
REC_VERTEX = 1
REC_EDGE = 2

#: words per parsed record — 64 bytes, the paper's record size
RECORD_WORDS = 8

_TYPE_CODES = {"V": REC_VERTEX, "E": REC_EDGE}
_TYPE_CHARS = {v: k for k, v in _TYPE_CODES.items()}


@dataclass
class Record:
    """One parsed record: a vertex (``V,id,attr``) or a typed edge
    (``E,src,dst,etype,ts``)."""

    kind: int
    fields: Tuple[int, ...]

    def to_words(self) -> Tuple[int, ...]:
        words = (self.kind,) + self.fields
        return words + (0,) * (RECORD_WORDS - len(words))

    @classmethod
    def vertex(cls, vid: int, attr: int = 0) -> "Record":
        return cls(REC_VERTEX, (vid, attr))

    @classmethod
    def edge(cls, src: int, dst: int, etype: int, ts: int = 0) -> "Record":
        return cls(REC_EDGE, (src, dst, etype, ts))

    def to_csv(self) -> str:
        return ",".join([_TYPE_CHARS[self.kind], *map(str, self.fields)])


# DFA states
_S_TYPE = 0      # expecting the record-type character
_S_FIELD = 1     # inside / expecting a numeric field
_S_SKIP = 2      # error recovery: discard until newline (unused by tests
#                 with clean input, exercised by failure-injection tests)


class Transducer:
    """Incremental CSV-record transducer (one instance per parse stream)."""

    def __init__(self) -> None:
        self.state = _S_TYPE
        self.kind = 0
        self.fields: List[int] = []
        self.current = 0
        self.in_number = False
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> List[Record]:
        """Consume bytes; return records completed by this chunk."""
        out: List[Record] = []
        for b in data:
            self.bytes_consumed += 1
            ch = chr(b)
            if self.state == _S_TYPE:
                if ch in ("\n", "\r", "\x00"):
                    continue  # blank line / padding
                code = _TYPE_CODES.get(ch)
                if code is None:
                    self.state = _S_SKIP
                    continue
                self.kind = code
                self.fields = []
                self.current = 0
                self.in_number = False
                self.state = _S_FIELD
            elif self.state == _S_FIELD:
                if ch == ",":
                    if self.in_number:
                        self.fields.append(self.current)
                    self.current = 0
                    self.in_number = False
                elif ch.isdigit():
                    self.current = self.current * 10 + (b - 48)
                    self.in_number = True
                elif ch == "\n":
                    if self.in_number:
                        self.fields.append(self.current)
                    out.append(Record(self.kind, tuple(self.fields)))
                    self.state = _S_TYPE
                else:
                    self.state = _S_SKIP
            else:  # _S_SKIP
                if ch == "\n":
                    self.state = _S_TYPE
        return out

    @property
    def mid_record(self) -> bool:
        """True while a record is partially parsed."""
        return self.state != _S_TYPE


def parse_all(text: str) -> List[Record]:
    """Parse a whole CSV text (reference path for tests)."""
    return Transducer().feed(text.encode())


# ---------------------------------------------------------------------------
# Text <-> word packing (the simulated file is a word-addressed region)
# ---------------------------------------------------------------------------


def pack_text(text: str) -> np.ndarray:
    """Pack text into little-endian 8-byte words, NUL-padded."""
    raw = text.encode()
    pad = (-len(raw)) % 8
    raw += b"\x00" * pad
    return np.frombuffer(raw, dtype="<u8").astype(np.int64)


def unpack_word(word: int) -> bytes:
    """The 8 bytes of one packed word (int64 words may print negative)."""
    return (int(word) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def unpack_words(words: Sequence[int]) -> bytes:
    return b"".join(unpack_word(w) for w in words)


# ---------------------------------------------------------------------------
# Synthetic WF2-style workload
# ---------------------------------------------------------------------------


def make_workload(
    n_edges: int,
    n_vertices: Optional[int] = None,
    n_edge_types: int = 8,
    vertex_fraction: float = 0.25,
    seed: int = 0,
) -> List[Record]:
    """A record stream shaped like the WF2 CSV inputs: a mix of vertex
    property records and typed, timestamped edges over a skewed ID space."""
    if n_edges < 1:
        raise ValueError("need at least one edge record")
    rng = np.random.default_rng(seed)
    if n_vertices is None:
        n_vertices = max(4, n_edges // 4)
    records: List[Record] = []
    n_vrec = int(n_edges * vertex_fraction)
    for i in range(n_vrec):
        records.append(Record.vertex(int(rng.integers(0, n_vertices)), i))
    # zipf-ish endpoint skew: square a uniform draw
    u = rng.random(n_edges)
    src = (u * u * n_vertices).astype(np.int64)
    dst = rng.integers(0, n_vertices, n_edges)
    types = rng.integers(0, n_edge_types, n_edges)
    for i in range(n_edges):
        records.append(
            Record.edge(int(src[i]), int(dst[i]), int(types[i]), ts=i)
        )
    order = rng.permutation(len(records))
    return [records[i] for i in order]


def workload_csv(records: Sequence[Record]) -> str:
    """Render a record list as the CSV text the ingestion parses."""
    return "".join(r.to_csv() + "\n" for r in records)
