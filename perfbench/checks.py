"""Property checks on what the lpn command prints and writes.

Every checker takes already-parsed rows (or decoded files) plus the
parameters the benchmark chose, and returns a list of problems; an empty
list means the output passed.  Nothing here compares against a stored
copy of earlier output: each check is a property the method must have,
computed with the benchmark's own arithmetic (dot products, hex
decoding, closed-form answers).  Only numpy and the stdlib are used, so
the self-test can plant wrong answers without running the program.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

# chance that an honest row fails the binomial check on its fresh sample
FRESH_FAILURE_PROB = 1e-9

_HEADER_RE = re.compile(
    rb"^LPN v1 k=(\d+) eta=([0-9.eE+-]+) seed=(\d+) count=(\d+)$"
)

_HEX_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(b"0123456789abcdef"):
    _HEX_LUT[_c] = _i
for _i, _c in enumerate(b"ABCDEF"):
    _HEX_LUT[_c] = 10 + _i


def parse_rows(text: str) -> List[Dict[str, str]]:
    """Rows of the CSV the solve and sq subcommands print."""
    return list(csv.DictReader(io.StringIO(text)))


def hex_to_int(field: str) -> int:
    """A little-endian hex vector as an int, coordinate 1 in bit 0."""
    return int.from_bytes(bytes.fromhex(field), "little")


def int_to_bits(c: int, k: int) -> np.ndarray:
    return np.array([(c >> i) & 1 for i in range(k)], dtype=np.uint8)


def dot_labels(bits: np.ndarray, c: int) -> np.ndarray:
    """Clean labels <c, x> mod 2 for a (m, k) 0/1 matrix."""
    cvec = int_to_bits(c, bits.shape[1]).astype(np.int64)
    return (bits.astype(np.int64) @ cvec & 1).astype(np.uint8)


def disagreements(bits: np.ndarray, labels: np.ndarray, c: int) -> int:
    return int(np.count_nonzero(dot_labels(bits, c) != labels))


def hoeffding_radius(n: int, failure_prob: float = FRESH_FAILURE_PROB) -> float:
    """Two-sided deviation an empirical rate exceeds w.p. <= failure_prob."""
    return math.sqrt(math.log(2.0 / failure_prob) / (2.0 * n))


def _int_field(row: Dict[str, str], name: str, problems: List[str]) -> int:
    try:
        return int(row.get(name, ""))
    except ValueError:
        problems.append(f"{name}={row.get(name)!r} is not an integer")
        return -1


# ---------------------------------------------------------------------------
# solve rows


def check_bkw_row(
    row: Dict[str, str],
    k: int,
    a: int,
    b: int,
    eta: float,
    fresh: Optional[tuple] = None,
    expect_target: Optional[int] = None,
) -> List[str]:
    """A block-merge row: recovered, c_hat equal to the planted target.

    fresh, when given, is (bits, labels) drawn from the row's source; the
    target must disagree with them at a rate within a Hoeffding radius of
    eta, which ties the printed target to the stream that was solved.
    """
    problems: List[str] = []
    if row.get("status") != "recovered":
        problems.append(f"status {row.get('status')!r}, expected 'recovered'")
    if row.get("success") != "true":
        problems.append(f"success {row.get('success')!r}")
    if row.get("k") != str(k):
        problems.append(f"k {row.get('k')!r}, expected {k}")
    c_hat, target = row.get("c_hat", ""), row.get("target", "")
    if not c_hat or c_hat != target:
        problems.append(f"c_hat {c_hat!r} differs from target {target!r}")
    if expect_target is not None and (
        not target or hex_to_int(target) != expect_target
    ):
        problems.append(f"target {target!r} is not the file's TARGET")
    used = _int_field(row, "examples_used", problems)
    if used <= 0 or used % (a * 2**b):
        problems.append(
            f"examples_used {used} is not a positive multiple of a*2^b={a * 2**b}"
        )
    if fresh is not None and target:
        bits, labels = fresh
        rate = disagreements(bits, labels, hex_to_int(target)) / len(labels)
        radius = hoeffding_radius(len(labels))
        if abs(rate - eta) > radius:
            problems.append(
                f"target disagrees with {rate:.4f} of fresh examples, "
                f"eta={eta} +- {radius:.4f}"
            )
    return problems


def check_mle_row(
    row: Dict[str, str],
    bits: np.ndarray,
    labels: np.ndarray,
    target: int,
) -> List[str]:
    """An exhaustive-likelihood row over the given examples.

    The answer may not disagree with more examples than the planted
    target does, and on these sample sizes it must be the target.
    """
    problems: List[str] = []
    if row.get("status") != "recovered":
        problems.append(f"status {row.get('status')!r}, expected 'recovered'")
    used = _int_field(row, "examples_used", problems)
    if used != len(labels):
        problems.append(f"examples_used {used}, expected {len(labels)}")
    if not row.get("c_hat"):
        return problems + ["no c_hat"]
    c_hat = hex_to_int(row["c_hat"])
    got, planted = disagreements(bits, labels, c_hat), disagreements(
        bits, labels, target
    )
    if got > planted:
        problems.append(
            f"answer disagrees with {got} examples, the target with {planted}"
        )
    if c_hat != target:
        problems.append(f"answer {row['c_hat']} is not the target")
    return problems


def check_online_row(
    row: Dict[str, str], g: int, w: int, t: int, count: int, noiseless: bool
) -> List[str]:
    """Counting identities and the paper's bounds for one online row."""
    problems: List[str] = []
    f = {
        name: _int_field(row, name, problems)
        for name in ("predicted", "unknown", "fill", "capacity",
                     "max_vote_depth", "count", "examples_used")
    }
    if row.get("status") != "completed":
        problems.append(f"status {row.get('status')!r}, expected 'completed'")
    if f["count"] != count or f["examples_used"] != count:
        problems.append(f"count/examples_used {f['count']}/{f['examples_used']}, "
                        f"expected {count}")
    if f["predicted"] + f["unknown"] != count:
        problems.append(f"predicted+unknown={f['predicted'] + f['unknown']} "
                        f"!= count {count}")
    if f["unknown"] != f["fill"]:
        problems.append(f"unknown {f['unknown']} != fill {f['fill']}")
    capacity = t * g * (2**w - 1)
    if f["capacity"] != capacity:
        problems.append(f"capacity {f['capacity']}, expected t*g*(2^w-1)={capacity}")
    if f["fill"] > capacity or f["unknown"] > capacity:
        problems.append(f"fill {f['fill']} / unknown {f['unknown']} exceed "
                        f"capacity {capacity}")
    if f["max_vote_depth"] > 2**g:
        problems.append(f"max_vote_depth {f['max_vote_depth']} > 2^g={2**g}")
    if noiseless and row.get("errors") != "0":
        problems.append(f"errors {row.get('errors')!r} on a noiseless stream")
    return problems


# ---------------------------------------------------------------------------
# sq rows


def _parity_mask(name: str) -> int:
    """'parity:0100' (coordinate 1 first) as a mask."""
    bits = name.split(":", 1)[1]
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


def check_basis_row(row: Dict[str, str], k: int) -> List[str]:
    problems: List[str] = []
    target, learned = row.get("target", ""), row.get("learned", "")
    if not target.startswith("parity:") or len(target) != len("parity:") + k:
        problems.append(f"target {target!r} is not a {k}-bit parity")
    elif learned != target:
        problems.append(f"learned {learned!r} differs from target {target!r}")
    if row.get("queries") != str(k + 1):
        problems.append(f"queries {row.get('queries')!r}, expected {k + 1}")
    return problems


def check_reduce_row(row: Dict[str, str], eps: float) -> List[str]:
    """labels-agree on a parity under the uniform distribution.

    Two independent labels of a nonzero parity agree with probability
    exactly 1/2, those of the zero parity always.  An estimate must lie
    within its error bound of that; a weak hypothesis is only sound for
    the zero parity, whose constant-0 hypothesis has advantage 1/2.
    """
    problems: List[str] = []
    target = row.get("target", "")
    if not target.startswith("parity:"):
        return [f"target {target!r} is not a parity"]
    zero = _parity_mask(target) == 0
    truth = 1.0 if zero else 0.5
    kind = row.get("outcome")
    if kind == "estimate":
        try:
            est, bound = float(row["estimate"]), float(row["error_bound"])
        except (KeyError, ValueError):
            return [f"estimate row without numbers: {row}"]
        if abs(est - truth) > bound:
            problems.append(f"estimate {est} is not within {bound} of {truth}")
    elif kind == "weak_hypothesis":
        try:
            adv = float(row["advantage"])
        except (KeyError, ValueError):
            return [f"weak hypothesis without an advantage: {row}"]
        if not zero or row.get("hypothesis") != "const:0" or adv != 0.5:
            problems.append(
                f"weak hypothesis {row.get('hypothesis')!r} with advantage "
                f"{adv} for target {target}"
            )
        elif adv < eps:
            problems.append(f"advantage {adv} below eps {eps}")
    else:
        problems.append(f"unknown outcome {kind!r}")
    return problems


def check_dim_row(row: Dict[str, str], j: int) -> List[str]:
    """The full parity class on j bits is 2^j pairwise-uncorrelated concepts."""
    problems: List[str] = []
    if row.get("d") != str(2**j):
        problems.append(f"d={row.get('d')!r}, expected 2^{j}={2**j}")
    try:
        corr = float(row.get("max_abs_correlation", ""))
    except ValueError:
        corr = float("nan")
    if corr != 0.0:
        problems.append(f"max_abs_correlation {row.get('max_abs_correlation')!r}")
    witness = row.get("witness", "").split(";")
    if len(set(witness)) != 2**j:
        problems.append(f"witness holds {len(set(witness))} distinct concepts")
    return problems


# ---------------------------------------------------------------------------
# instance files


@dataclass
class Decoded:
    k: int
    eta: float
    seed: int
    bits: np.ndarray  # (count, k) uint8
    labels: np.ndarray  # (count,) uint8
    target: Optional[int]

    @property
    def count(self) -> int:
        return len(self.labels)


class DecodeError(ValueError):
    pass


def _decode_hex(cells: np.ndarray, k: int) -> np.ndarray:
    """(m, 2*nbytes) ASCII hex digits to (m, k) bits; pad bits must be 0."""
    nib = _HEX_LUT[cells]
    if (nib == 255).any():
        raise DecodeError("non-hex digit in a vector")
    raw = (nib[:, 0::2] << 4) | nib[:, 1::2]
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    if bits[:, k:].any():
        raise DecodeError("nonzero padding bits beyond coordinate k")
    return bits[:, :k]


def decode_instance(raw: bytes) -> Decoded:
    """Decode an 'LPN v1' file independently of lpn.instfile."""
    head, sep, body = raw.partition(b"\n")
    m = _HEADER_RE.match(head)
    if not sep or not m:
        raise DecodeError(f"bad header {head[:80]!r}")
    k, count = int(m.group(1)), int(m.group(4))
    eta, seed = float(m.group(2)), int(m.group(3))
    nhex = 2 * ((k + 7) // 8)
    width = nhex + 3  # hex, space, label, newline
    if len(body) < count * width:
        raise DecodeError(f"header promises {count} rows, body is too short")
    rows = np.frombuffer(body, dtype=np.uint8, count=count * width)
    rows = rows.reshape(count, width)
    if (rows[:, nhex] != ord(" ")).any() or (rows[:, nhex + 2] != ord("\n")).any():
        raise DecodeError("example rows must be '<hex> <label>\\n'")
    lab = rows[:, nhex + 1]
    if ((lab != ord("0")) & (lab != ord("1"))).any():
        raise DecodeError("labels must be 0 or 1")
    bits = _decode_hex(rows[:, :nhex], k)
    rest = body[count * width:]
    target = None
    if rest:
        if not (rest.startswith(b"TARGET ") and rest.endswith(b"\n")
                and len(rest) == 8 + nhex):
            raise DecodeError(f"unexpected trailer {rest[:80]!r}")
        cells = np.frombuffer(rest[7:7 + nhex], dtype=np.uint8).reshape(1, nhex)
        tbits = _decode_hex(cells, k)[0]
        target = int(sum(int(v) << i for i, v in enumerate(tbits)))
    return Decoded(k, eta, seed, bits, (lab - ord("0")).astype(np.uint8), target)


def check_decoded(
    dec: Decoded, k: int, eta: float, seed: int, count: int
) -> List[str]:
    """The file says what the gen command was asked to write."""
    problems: List[str] = []
    if (dec.k, dec.eta, dec.seed, dec.count) != (k, eta, seed, count):
        problems.append(
            f"header/rows k={dec.k} eta={dec.eta} seed={dec.seed} "
            f"count={dec.count}, expected {k}/{eta}/{seed}/{count}"
        )
    if dec.target is None:
        problems.append("no TARGET line although --with-target was given")
    return problems


def compare_with_reader(dec: Decoded, data) -> List[str]:
    """lpn.instfile.read_instance must return what the decoder found."""
    problems: List[str] = []
    if (data.k, data.eta, data.seed) != (dec.k, dec.eta, dec.seed):
        problems.append("read_instance header fields differ from the decoder's")
    if data.bits.shape != dec.bits.shape or not np.array_equal(data.bits, dec.bits):
        problems.append("read_instance bits differ from the decoder's")
    if not np.array_equal(data.labels, dec.labels):
        problems.append("read_instance labels differ from the decoder's")
    target = None if data.target is None else data.target.bits
    if target != dec.target:
        problems.append("read_instance target differs from the decoder's")
    return problems
