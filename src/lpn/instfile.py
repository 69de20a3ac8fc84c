"""Plain-text instance files.

Layout:

    LPN v1 k=<k> eta=<eta> seed=<seed> count=<m>
    <hex(x)> <label>          (m lines)
    TARGET <hex(c)>           (optional, last line)

Vectors are hex-encoded little endian: ceil(k/8) bytes, byte 0 holding
coordinates 1..8 with coordinate 1 in the least significant bit.  Pad
bits beyond coordinate k must be zero.  Writing is deterministic, the
same data always produces byte-identical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gf2 import BitVec
from .instance import NoiseRate, ParityTarget, ReplaySource, new_source

__all__ = [
    "InstanceData",
    "InstanceFormatError",
    "format_instance",
    "write_instance",
    "read_instance",
    "generate_instance",
    "replay_source",
]

_HEADER_RE = re.compile(
    r"^LPN v1 k=(\d+) eta=([0-9.eE+-]+) seed=(\d+) count=(\d+)$"
)


@dataclass
class InstanceData:
    """In-memory form of one instance file."""

    k: int
    eta: float
    seed: int
    bits: np.ndarray  # (count, k) uint8
    labels: np.ndarray  # (count,) uint8
    target: Optional[BitVec] = None

    @property
    def count(self) -> int:
        return len(self.bits)


class InstanceFormatError(ValueError):
    """Malformed instance file; carries the 1-based offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _row_hex(row: np.ndarray) -> str:
    return bytes(np.packbits(row, bitorder="little")).hex()


def format_instance(data: InstanceData) -> str:
    if data.bits.shape != (data.count, data.k):
        raise ValueError("bit matrix shape does not match header")
    lines = [
        f"LPN v1 k={data.k} eta={data.eta!r} seed={data.seed} count={data.count}"
    ]
    labels = data.labels
    for row, label in zip(data.bits, labels):
        lines.append(f"{_row_hex(row)} {int(label)}")
    if data.target is not None:
        lines.append(f"TARGET {data.target.to_bytes_le().hex()}")
    return "\n".join(lines) + "\n"


def write_instance(path: str, data: InstanceData) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_instance(data))


def _parse_vector(field: str, k: int, line_no: int) -> BitVec:
    nbytes = (k + 7) // 8
    if len(field) != 2 * nbytes or not re.fullmatch(r"[0-9a-fA-F]+", field):
        raise InstanceFormatError(
            f"expected {2 * nbytes} hex digits for a {k}-bit vector, got {field!r}",
            line_no,
        )
    try:
        return BitVec.from_bytes_le(k, bytes.fromhex(field))
    except ValueError as exc:
        raise InstanceFormatError(str(exc), line_no) from None


def read_instance(path: str) -> InstanceData:
    with open(path, "r", encoding="ascii") as fh:
        raw_lines = fh.read().splitlines()
    if not raw_lines:
        raise InstanceFormatError("empty file, expected a header", 1)
    m = _HEADER_RE.match(raw_lines[0])
    if not m:
        raise InstanceFormatError(
            "header must be 'LPN v1 k=<k> eta=<eta> seed=<seed> count=<m>'", 1
        )
    k = int(m.group(1))
    try:
        eta = float(NoiseRate(float(m.group(2))))
    except ValueError as exc:
        raise InstanceFormatError(str(exc), 1) from None
    seed = int(m.group(3))
    count = int(m.group(4))
    if k < 1:
        raise InstanceFormatError("k must be positive", 1)

    if len(raw_lines) - 1 < count:  # before allocating count rows
        raise InstanceFormatError(
            f"header promises {count} examples, file has {len(raw_lines) - 1}",
            len(raw_lines) + 1,
        )
    bits = np.zeros((count, k), dtype=np.uint8)
    labels = np.zeros(count, dtype=np.uint8)
    target: Optional[BitVec] = None
    body = raw_lines[1:]
    for i in range(count):
        line_no = i + 2
        parts = body[i].split()
        if len(parts) != 2:
            raise InstanceFormatError(
                "example lines must be '<hex(x)> <label>'", line_no
            )
        vec = _parse_vector(parts[0], k, line_no)
        if parts[1] not in ("0", "1"):
            raise InstanceFormatError(f"label must be 0 or 1, got {parts[1]!r}", line_no)
        bits[i] = vec.to_bits_row()
        labels[i] = int(parts[1])
    extra = body[count:]
    if extra:
        line_no = count + 2
        parts = extra[0].split()
        if len(parts) != 2 or parts[0] != "TARGET":
            raise InstanceFormatError(
                "only an optional 'TARGET <hex(c)>' line may follow the examples",
                line_no,
            )
        target = _parse_vector(parts[1], k, line_no)
        if len(extra) > 1:
            raise InstanceFormatError("content after the TARGET line", line_no + 1)
    return InstanceData(k=k, eta=eta, seed=seed, bits=bits, labels=labels, target=target)


def generate_instance(
    k: int, count: int, eta: float, seed: int, with_target: bool = False
) -> InstanceData:
    """Draw a fresh instance from a uniform source with a random target."""
    src = new_source(k, eta, seed=seed)
    bits, labels, _ = src.draw_batch(count)
    return InstanceData(
        k=k,
        eta=float(src.eta),
        seed=seed,
        bits=bits,
        labels=labels,
        target=src.target.c if with_target else None,
    )


def replay_source(data: InstanceData) -> ReplaySource:
    target = ParityTarget(data.target) if data.target is not None else None
    return ReplaySource(
        data.bits, data.labels, eta=data.eta, seed=data.seed, target=target
    )
