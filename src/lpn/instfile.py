"""Plain-text instance files.

Layout:

    LPN v1 k=<k> eta=<eta> seed=<seed> count=<m>
    <hex(x)> <label>          (m lines)
    TARGET <hex(c)>           (optional, last line)

Vectors are hex-encoded little endian: ceil(k/8) bytes, byte 0 holding
coordinates 1..8 with coordinate 1 in the least significant bit.  Pad
bits beyond coordinate k must be zero.  Writing is deterministic, the
same data always produces byte-identical files.

Examples are held as (m, ceil(k/64)) uint64 row words (gf2.pack_words),
whose little-endian bytes are the file's hex bytes, so both directions
are bulk array work.  The writer's canonical form (lowercase digits,
single spaces, '\\n' line ends) is decoded in one pass; any other file
goes through the line parser, which alone decides what is accepted and
which line an error names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .gf2 import BitVec, unpack_words
from .instance import ReplaySource, _check_eta, _check_words, new_source

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

# canonical digits and their values; 0xFF marks every other byte
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_DIGIT_VALUE = np.full(256, 0xFF, dtype=np.uint8)
_DIGIT_VALUE[_HEX_DIGITS] = np.arange(16, dtype=np.uint8)


@dataclass
class InstanceData:
    """In-memory form of one instance file."""

    k: int
    eta: float
    seed: int
    words: np.ndarray  # (count, ceil(k/64)) uint64 row words
    labels: np.ndarray  # (count,) uint8
    target: Optional[BitVec] = None

    @property
    def count(self) -> int:
        return len(self.words)

    @property
    def bits(self) -> np.ndarray:
        """The examples as a read-only (count, k) 0/1 uint8 matrix."""
        bits = unpack_words(self.words, self.k)
        bits.flags.writeable = False
        return bits


class InstanceFormatError(ValueError):
    """Malformed instance file; carries the 1-based offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def format_instance(data: InstanceData) -> str:
    """The file text for data; refuses anything read_instance would refuse."""
    k = data.k
    if k < 1:
        raise ValueError("k must be positive")
    eta = _check_eta(data.eta)
    if data.seed < 0:
        raise ValueError("seed must be nonnegative")
    words, labels = np.asarray(data.words), np.asarray(data.labels)
    _check_words(words, labels, k)
    if data.target is not None and data.target.n != k:
        raise ValueError(f"target must have {k} coordinates")
    header = f"LPN v1 k={k} eta={eta!r} seed={data.seed} count={len(words)}"
    # row i is its ceil(k/8) little-endian bytes as digit pairs, ' ', label, '\n'
    nb = -(-k // 8)
    cells = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)[:, :nb]
    body = np.empty((len(words), 2 * nb + 3), dtype=np.uint8)
    body[:, 0 : 2 * nb : 2] = _HEX_DIGITS[cells >> 4]
    body[:, 1 : 2 * nb : 2] = _HEX_DIGITS[cells & 15]
    body[:, 2 * nb] = ord(" ")
    body[:, 2 * nb + 1] = labels.astype(np.uint8) + ord("0")
    body[:, 2 * nb + 2] = ord("\n")
    lines = [header, "\n", body.tobytes().decode("ascii")]
    if data.target is not None:
        lines.append(f"TARGET {data.target.to_bytes_le().hex()}\n")
    return "".join(lines)


def write_instance(path: str, data: InstanceData) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_instance(data))


def _parse_header(line: str) -> Tuple[int, float, int, int]:
    """(k, eta, seed, count) from line 1."""
    m = _HEADER_RE.match(line)
    if not m:
        raise InstanceFormatError(
            "header must be 'LPN v1 k=<k> eta=<eta> seed=<seed> count=<m>'", 1
        )
    try:
        k, seed, count = (int(m.group(i)) for i in (1, 3, 4))
        eta = _check_eta(m.group(2))
    except ValueError as exc:
        raise InstanceFormatError(str(exc), 1) from None
    if k < 1:
        raise InstanceFormatError("k must be positive", 1)
    if k >= 1 << 63:
        raise InstanceFormatError("k must be below 2**63", 1)
    return k, eta, seed, count


def _decode_hex(cells: np.ndarray, k: int) -> Optional[np.ndarray]:
    """(m, 2*ceil(k/8)) digit bytes as (m, ceil(k/64)) row words.

    None unless every byte is a lowercase hex digit and every pad bit
    beyond coordinate k is zero.
    """
    nibbles = _DIGIT_VALUE[cells]
    if (nibbles == 0xFF).any():
        return None
    nb = cells.shape[1] // 2
    raw = np.zeros((len(cells), 8 * -(-k // 64)), dtype=np.uint8)
    raw[:, :nb] = nibbles[:, 0::2] << 4 | nibbles[:, 1::2]
    if k % 8 and (raw[:, nb - 1] >> (k % 8)).any():
        return None
    return raw.view("<u8")


def _read_canonical(raw: bytes) -> Optional[InstanceData]:
    """Decode a file in format_instance's exact form; None for any other file."""
    head, sep, body = raw.partition(b"\n")
    if not sep or not head.isascii():
        return None
    try:
        k, eta, seed, count = _parse_header(head.decode("ascii"))
    except InstanceFormatError:
        return None
    nhex = 2 * -(-k // 8)
    width = nhex + 3
    size = count * width
    tail = body[size:]
    if len(body) < size or len(tail) not in (0, nhex + 8):
        return None
    rows = np.frombuffer(body, dtype=np.uint8, count=size).reshape(count, width)
    if (rows[:, nhex] != ord(" ")).any() or (rows[:, nhex + 2] != ord("\n")).any():
        return None
    labels = rows[:, nhex + 1] - np.uint8(ord("0"))
    if (labels > 1).any():
        return None
    words = _decode_hex(rows[:, :nhex], k)
    if words is None:
        return None
    target = None
    if tail:
        if not (tail.startswith(b"TARGET ") and tail.endswith(b"\n")):
            return None
        cells = np.frombuffer(tail, dtype=np.uint8, count=nhex, offset=7)
        c = _decode_hex(cells.reshape(1, nhex), k)
        if c is None:
            return None
        target = BitVec(k, int.from_bytes(c.tobytes(), "little"))
    return InstanceData(k, eta, seed, words, labels, target)


def _check_vector(field: str, k: int, line_no: int) -> None:
    nbytes = (k + 7) // 8
    if len(field) != 2 * nbytes or not re.fullmatch(r"[0-9a-fA-F]+", field):
        raise InstanceFormatError(
            f"expected {2 * nbytes} hex digits for a {k}-bit vector, got {field!r}",
            line_no,
        )
    # the last byte holds coordinates 8*nbytes - 7 .. k, then the pad bits
    if int(field[-2:], 16) >> ((k - 1) % 8 + 1):
        raise InstanceFormatError(
            "padding bits beyond the vector length must be zero", line_no
        )


def _read_lines(raw: bytes) -> InstanceData:
    """The strict line-by-line reader, for any file.

    Lines end at any of str.splitlines' breaks, so CRLF files read as
    LF ones; fields are split on whitespace and digits may be uppercase.
    Nothing sized by k is allocated before every row has been checked.
    """
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = len((raw[: exc.start].decode("ascii") + "x").splitlines())
        raise InstanceFormatError(
            f"non-ASCII byte 0x{raw[exc.start]:02x}", line_no
        ) from None
    raw_lines = text.splitlines()
    if not raw_lines:
        raise InstanceFormatError("empty file, expected a header", 1)
    k, eta, seed, count = _parse_header(raw_lines[0])

    if len(raw_lines) - 1 < count:  # before allocating count rows
        raise InstanceFormatError(
            f"header promises {count} examples, file has {len(raw_lines) - 1}",
            len(raw_lines) + 1,
        )
    fields = []
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
        _check_vector(parts[0], k, line_no)
        fields.append(parts[0])
        if parts[1] not in ("0", "1"):
            raise InstanceFormatError(f"label must be 0 or 1, got {parts[1]!r}", line_no)
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
        _check_vector(parts[1], k, line_no)
        fields.append(parts[1])
        if len(extra) > 1:
            raise InstanceFormatError("content after the TARGET line", line_no + 1)
    # every field passed _check_vector, so the canonical decoder takes them
    digits = np.frombuffer("".join(fields).lower().encode("ascii"), dtype=np.uint8)
    words = _decode_hex(digits.reshape(len(fields), 2 * -(-k // 8)), k)
    if extra:
        target = BitVec(k, int.from_bytes(words[count].tobytes(), "little"))
    return InstanceData(k, eta, seed, words[:count], labels, target)


def read_instance(path: str) -> InstanceData:
    with open(path, "rb") as fh:
        raw = fh.read()
    data = _read_canonical(raw)
    return data if data is not None else _read_lines(raw)


def generate_instance(
    k: int, count: int, eta: float, seed: int, with_target: bool = False
) -> InstanceData:
    """Draw a fresh instance from a uniform source with a random target."""
    src = new_source(k, eta, seed=seed)
    words, labels, _ = src.draw_batch(count, packed=True)
    return InstanceData(
        k=k,
        eta=src.eta,
        seed=seed,
        words=words,
        labels=labels,
        target=src.target if with_target else None,
    )


def replay_source(data: InstanceData) -> ReplaySource:
    return ReplaySource(
        data.words, data.labels, data.k, eta=data.eta, seed=data.seed,
        target=data.target,
    )
