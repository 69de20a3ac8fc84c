"""Instance file serialization: exact bytes, round trips, error reporting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bitvec_helpers import bits_row
from instfile_oracle import format_rows
from lpn import instfile
from lpn.cli import main
from lpn.gf2 import BitVec, pack_words
from lpn.instfile import (
    InstanceData,
    InstanceFormatError,
    format_instance,
    generate_instance,
    read_instance,
    replay_source,
    write_instance,
)

V = BitVec.from_string


def tiny_instance():
    bits = np.array(
        [bits_row(V("10000000")), bits_row(V("01100000"))], dtype=np.uint8
    )
    return InstanceData(
        k=8, eta=0.125, seed=7, words=pack_words(bits),
        labels=np.array([1, 0], dtype=np.uint8),
        target=V("10000000"),
    )


def test_exact_bytes():
    text = format_instance(tiny_instance())
    assert text == (
        "LPN v1 k=8 eta=0.125 seed=7 count=2\n"
        "01 1\n"
        "06 0\n"
        "TARGET 01\n"
    )


def test_coordinate_one_is_low_bit_of_byte_zero():
    bits = bits_row(V("100000001"))[None, :]
    data = InstanceData(k=9, eta=0.0, seed=0, words=pack_words(bits),
                        labels=np.array([0], dtype=np.uint8))
    assert "0101 0" in format_instance(data)


def test_write_read_round_trip(tmp_path):
    path = str(tmp_path / "inst.txt")
    data = generate_instance(k=12, count=300, eta=0.25, seed=99, with_target=True)
    write_instance(path, data)
    back = read_instance(path)
    assert back.k == data.k and back.eta == data.eta and back.seed == data.seed
    assert np.array_equal(back.bits, data.bits)
    assert np.array_equal(back.labels, data.labels)
    assert back.target == data.target
    # re-serialization is byte-identical
    assert format_instance(back) == format_instance(data)


def test_round_trip_without_target(tmp_path):
    path = str(tmp_path / "inst.txt")
    data = generate_instance(k=5, count=10, eta=0.0, seed=4)
    write_instance(path, data)
    back = read_instance(path)
    assert back.target is None
    assert format_instance(back) == format_instance(data)


def test_header_only_file(tmp_path):
    path = str(tmp_path / "empty.txt")
    data = generate_instance(k=8, count=0, eta=0.1, seed=1)
    write_instance(path, data)
    back = read_instance(path)
    assert back.count == 0 and back.bits.shape == (0, 8)


def test_generated_instance_is_seed_deterministic():
    a = generate_instance(k=10, count=50, eta=0.2, seed=5, with_target=True)
    b = generate_instance(k=10, count=50, eta=0.2, seed=5, with_target=True)
    assert format_instance(a) == format_instance(b)


def test_replay_source_matches_file():
    data = generate_instance(k=9, count=40, eta=0.125, seed=6, with_target=True)
    src = replay_source(data)
    assert src.k == 9 and len(src) == 40
    for i in range(40):
        bits, labels, start = src.draw_batch(1)
        assert start == i
        assert np.array_equal(bits[0], data.bits[i])
        assert labels[0] == data.labels[i]


def write_text(tmp_path, text):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def test_bad_header_reports_line_1(tmp_path):
    path = write_text(tmp_path, "LPM v1 k=8\n")
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(path)
    assert exc.value.line_no == 1


def test_eta_out_of_range_rejected(tmp_path):
    path = write_text(tmp_path, "LPN v1 k=8 eta=0.7 seed=0 count=0\n")
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def test_count_mismatch_reported(tmp_path):
    path = write_text(tmp_path, "LPN v1 k=8 eta=0.1 seed=0 count=2\n01 1\n")
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def test_huge_count_is_a_format_error(tmp_path, capsys):
    # the count check comes before any array of count rows is allocated
    path = write_text(
        tmp_path, "LPN v1 k=12 eta=0.1 seed=0 count=10000000000000\n0100 1\n"
    )
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(path)
    assert exc.value.line_no == 3
    assert main(["solve", "--algo", "mle", "--in", path]) == 2
    assert "line 3: header promises" in capsys.readouterr().err


def test_bad_label_reports_its_line(tmp_path):
    path = write_text(tmp_path, "LPN v1 k=8 eta=0.1 seed=0 count=1\n01 7\n")
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(path)
    assert exc.value.line_no == 2


def test_wrong_hex_width_rejected(tmp_path):
    path = write_text(tmp_path, "LPN v1 k=8 eta=0.1 seed=0 count=1\n0100 1\n")
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(path)
    assert exc.value.line_no == 2


def test_nonzero_pad_bits_rejected(tmp_path):
    # k=4 leaves the high nibble as padding, which must stay zero
    path = write_text(tmp_path, "LPN v1 k=4 eta=0.1 seed=0 count=1\nf0 1\n")
    with pytest.raises(InstanceFormatError):
        read_instance(path)


@pytest.mark.parametrize("text,line_no", [
    # a middle row, with CRLF line ends and an uppercase digit
    ("LPN v1 k=12 eta=0.1 seed=0 count=3\r\n0100 1\r\n01F0 0\r\n0200 1\r\n", 3),
    ("LPN v1 k=12 eta=0.1 seed=0 count=2\n0100 1\n0200 0\nTARGET 0110\n", 4),
    ("LPN v1 k=1 eta=0.1 seed=0 count=2\n01 1\n00 0\nTARGET 02\n", 4),
])
def test_pad_bits_name_their_line(tmp_path, text, line_no):
    path = write_text(tmp_path, text)
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(path)
    assert str(exc.value) == (
        f"line {line_no}: padding bits beyond the vector length must be zero")


def test_junk_after_examples_rejected(tmp_path):
    path = write_text(
        tmp_path, "LPN v1 k=8 eta=0.1 seed=0 count=1\n01 1\nnot a target\n"
    )
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(path)
    assert exc.value.line_no == 3


def test_junk_after_target_rejected(tmp_path):
    path = write_text(
        tmp_path,
        "LPN v1 k=8 eta=0.1 seed=0 count=1\n01 1\nTARGET 01\nTARGET 02\n",
    )
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def test_empty_file_rejected(tmp_path):
    path = write_text(tmp_path, "")
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(path)
    assert exc.value.line_no == 1


def test_non_ascii_byte_names_its_line(tmp_path):
    for text, line_no in [
        (b"LPN v1 k=8 eta=0.1 seed=0 count=1\n\xff1 1\n", 2),
        (b"LPN v1 k=8 eta=0.1\xe9 seed=0 count=1\n01 1\n", 1),
        (b"LPN v1 k=8 eta=0.1 seed=0 count=2\r\n01 1\r\n02 0 \x80\r\n", 3),
    ]:
        path = tmp_path / "na.lpn"
        path.write_bytes(text)
        with pytest.raises(InstanceFormatError, match="non-ASCII") as exc:
            read_instance(str(path))
        assert exc.value.line_no == line_no


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_k_allocates_nothing_before_a_row_is_checked(tmp_path):
    path = write_text(
        tmp_path, "LPN v1 k=100000000000000 eta=0.1 seed=0 count=1\n01 1\n"
    )

    def read():
        with pytest.raises(InstanceFormatError, match="hex digits") as exc:
            read_instance(path)
        assert exc.value.line_no == 2

    assert _traced_peak(read) < 1 << 20


def test_huge_k_without_rows(tmp_path):
    path = write_text(tmp_path, "LPN v1 k=100000000000000 eta=0.1 seed=0 count=0\n")
    got = []
    assert _traced_peak(lambda: got.append(read_instance(path))) < 1 << 20
    assert got[0].words.shape == (0, -(-100000000000000 // 64))
    path = write_text(tmp_path, f"LPN v1 k={2**63} eta=0.1 seed=0 count=0\n")
    with pytest.raises(InstanceFormatError, match="below") as exc:
        read_instance(path)
    assert exc.value.line_no == 1


# -- the bulk writer against the per-row oracle ------------------------


@pytest.mark.parametrize("k", [1, 7, 8, 9, 12, 16, 63, 64, 65, 300])
@pytest.mark.parametrize("count", [0, 37])
@pytest.mark.parametrize("with_target", [False, True])
def test_writer_matches_per_row_oracle(k, count, with_target):
    data = generate_instance(k, count, 0.125, seed=k, with_target=with_target)
    assert data.words.shape == (count, -(-k // 64))
    want = format_rows(k, data.eta, data.seed, data.bits, data.labels, data.target)
    assert format_instance(data) == want


def test_writer_refuses_what_the_reader_refuses():
    good = generate_instance(12, 4, 0.125, seed=1, with_target=True)

    def variant(**changes):
        fields = dict(k=good.k, eta=good.eta, seed=good.seed, words=good.words,
                      labels=good.labels, target=good.target)
        fields.update(changes)
        return InstanceData(**fields)

    for data, fragment in [
        (variant(labels=np.array([0, 1, 2, 0], dtype=np.uint8)), "0 or 1"),
        (variant(labels=good.labels[:3]), "one label per row"),
        (variant(words=good.words | np.uint64(1 << 12)), "beyond coordinate 12"),
        (variant(words=np.zeros((4, 2), dtype=np.uint64)), r"\(count, 1\)"),
        (variant(words=good.words[:, 0]), r"\(count, 1\)"),
        (variant(words=good.words.view(np.int64)), "uint64"),
        (variant(target=V("101")), "12 coordinates"),
        (variant(eta=0.5), "noise rate"),
        (variant(seed=-1), "seed"),
        (variant(k=0, words=np.zeros((4, 0), dtype=np.uint64)), "k must"),
    ]:
        with pytest.raises(ValueError, match=fragment):
            format_instance(data)


def test_bits_unpacks_the_words_read_only():
    data = generate_instance(70, 5, 0.125, seed=2)
    assert data.bits.shape == (5, 70) and not data.bits.flags.writeable
    assert np.array_equal(pack_words(data.bits), data.words)


# -- fuzzing: bulk path, line parser and writer --------------------------


@st.composite
def instances(draw):
    k = draw(st.sampled_from([1, 7, 8, 9, 12, 16, 63, 64, 65, 130])
             | st.integers(1, 140))
    count = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2, (count, k), dtype=np.uint8)
    labels = rng.integers(0, 2, count, dtype=np.uint8)
    target = None
    if draw(st.booleans()):
        target = BitVec.from_bits_row(rng.integers(0, 2, k, dtype=np.uint8))
    return InstanceData(
        k=k,
        eta=draw(st.floats(0.0, 0.5, exclude_max=True)),
        seed=draw(st.integers(0, 2**64)),
        words=pack_words(bits),
        labels=labels,
        target=target,
    )


def same_instance(a, b):
    return (
        (a.k, a.eta, a.seed, a.target) == (b.k, b.eta, b.seed, b.target)
        and a.words.shape == b.words.shape
        and np.array_equal(a.words, b.words)
        and np.array_equal(a.labels, b.labels)
    )


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "inst.lpn"


def read_bytes(path, raw):
    path.write_bytes(raw)
    return read_instance(str(path))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances())
def test_fuzz_write_read_is_identity(fuzz_path, data):
    text = format_instance(data)
    assert text == format_rows(
        data.k, float(data.eta), data.seed, data.bits, data.labels, data.target
    )
    raw = text.encode("ascii")
    assert same_instance(read_bytes(fuzz_path, raw), data)
    assert same_instance(instfile._read_canonical(raw), data)
    assert same_instance(instfile._read_lines(raw), data)


CORRUPTIONS = ["digit", "upper", "pad", "crlf", "spaces", "no_final_newline",
               "count_up", "count_down", "trailing", "non_ascii", "byte"]


def corrupt(raw, data, kind, draw):
    """raw with one kind of corruption, and the line an error must name.

    The line is None where the line parser accepts the file unchanged,
    and "either" where one arbitrary ASCII byte was replaced.
    """
    lines = raw.split(b"\n")  # the last element is the empty tail
    count = data.count
    vector_lines = list(range(1, count + 1 + (data.target is not None)))
    nhex = 2 * -(-data.k // 8)

    def hex_start(i):
        return 7 if lines[i].startswith(b"TARGET ") else 0

    if kind in ("digit", "upper", "pad"):
        assume(vector_lines)
        i = draw(st.sampled_from(vector_lines))
        line = bytearray(lines[i])
        start = hex_start(i)
        if kind == "digit":
            pos = start + draw(st.integers(0, nhex - 1))
            line[pos] = draw(st.sampled_from(b"gGxz:/ ,"))
        elif kind == "upper":
            letters = [p for p in range(start, start + nhex) if line[p] in b"abcdef"]
            assume(letters)
            pos = draw(st.sampled_from(letters))
            line[pos] = ord(chr(line[pos]).upper())
        else:
            assume(data.k % 8)
            pos = start + nhex - 2  # the last byte, high digit first
            value = int(line[pos : pos + 2], 16) | 1 << draw(st.integers(data.k % 8, 7))
            line[pos : pos + 2] = b"%02x" % value
        lines[i] = bytes(line)
        return b"\n".join(lines), (i + 1 if kind != "upper" else None)
    if kind == "crlf":
        ends = draw(st.lists(st.booleans(), min_size=len(lines) - 1,
                             max_size=len(lines) - 1))
        assume(any(ends))
        out = b"".join(ln + (b"\r\n" if crlf else b"\n")
                       for ln, crlf in zip(lines, ends))
        return out, None
    if kind == "spaces":
        assume(vector_lines)
        i = draw(st.sampled_from(vector_lines))
        first, second = lines[i].split(b" ")
        pad = st.sampled_from([b"", b" ", b"\t", b"  ", b" \t"])
        lines[i] = draw(pad) + first + b" " + draw(pad) + second + draw(pad)
        assume(lines[i] != first + b" " + second)
        return b"\n".join(lines), None
    if kind == "no_final_newline":
        return raw[:-1], None
    if kind in ("count_up", "count_down"):
        assume(kind == "count_up" or count)
        new = count + 1 if kind == "count_up" else count - 1
        lines[0] = lines[0].replace(b"count=%d" % count, b"count=%d" % new)
        return b"\n".join(lines), (count + 2 if kind == "count_up" else count + 1)
    if kind == "byte":
        assume(vector_lines)
        i = draw(st.sampled_from(vector_lines))
        start = sum(len(ln) + 1 for ln in lines[:i])
        pos = start + draw(st.integers(0, len(lines[i])))  # the '\n' included
        out = bytearray(raw)
        out[pos] = draw(st.integers(0, 0x7F))
        return bytes(out), "either"
    if kind == "trailing":
        junk = draw(st.sampled_from([b"\n", b" \n", b"junk\n", b"01 1\n", b"x"]))
        return raw + junk, count + 2 + (data.target is not None)
    pos = draw(st.integers(0, len(raw)))
    byte = bytes([draw(st.integers(0x80, 0xFF))])
    return raw[:pos] + byte + raw[pos:], raw[:pos].count(b"\n") + 1


def outcome(read):
    try:
        return read()
    except InstanceFormatError as exc:
        return exc


def assert_bulk_agrees(raw, path):
    """The bulk path takes only what the line parser reads the same way."""
    bulk = instfile._read_canonical(raw)
    by_line = outcome(lambda: instfile._read_lines(raw))
    got = outcome(lambda: read_bytes(path, raw))
    if bulk is not None:
        assert isinstance(by_line, InstanceData) and same_instance(bulk, by_line)
    if isinstance(by_line, InstanceFormatError):
        assert isinstance(got, InstanceFormatError) and str(got) == str(by_line)
    else:
        assert same_instance(got, by_line)
    return bulk, got


@pytest.mark.parametrize("k", [8, 12])
def test_every_single_byte_change_reads_as_the_line_parser_reads(fuzz_path, k):
    raw = format_instance(generate_instance(k, 3, 0.125, seed=5, with_target=True))
    raw = raw.encode("ascii")
    for pos in range(len(raw)):
        for byte in b"\x00\t\n\x0b\r !0179aAfFgx\x7f":
            assert_bulk_agrees(raw[:pos] + bytes([byte]) + raw[pos + 1 :], fuzz_path)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(instances(), st.sampled_from(CORRUPTIONS), st.data())
def test_fuzz_corrupted_files(fuzz_path, data, kind, st_data):
    raw, line_no = corrupt(format_instance(data).encode("ascii"), data, kind,
                           st_data.draw)
    bulk, got = assert_bulk_agrees(raw, fuzz_path)
    if line_no == "either":
        return
    # only the writer's exact form is taken in bulk
    assert bulk is None
    if line_no is None:
        assert same_instance(got, data)
    else:
        assert got.line_no == line_no
