"""Instance file serialization: exact bytes, round trips, error reporting."""

import numpy as np
import pytest

from lpn.cli import main
from lpn.gf2 import BitVec
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
        [V("10000000").to_bits_row(), V("01100000").to_bits_row()], dtype=np.uint8
    )
    return InstanceData(
        k=8, eta=0.125, seed=7, bits=bits, labels=np.array([1, 0], dtype=np.uint8),
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
    bits = V("100000001").to_bits_row()[None, :]
    data = InstanceData(k=9, eta=0.0, seed=0, bits=bits,
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
        ex = src.draw()
        assert ex.x == BitVec.from_bits_row(data.bits[i])
        assert ex.label == int(data.labels[i])


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
