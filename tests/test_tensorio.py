import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trfkit.errors import FormatError, ValidationError
from trfkit.lagged_design import LagSpec
from trfkit.lda_reduce import LdaModel, read_lda, write_lda
from trfkit.ridge_trf import TrfModel, read_trf, write_trf
from trfkit.tensorio import (
    ChannelLayout,
    EegRecording,
    LayoutEntry,
    WordEvent,
    WordEventSequence,
    read_channel_layout,
    read_eeg,
    read_tensor,
    read_tensor_header,
    read_word_events,
    write_channel_layout,
    write_eeg,
    write_tensor,
    write_word_events,
)


def test_tensor_layout_is_header_line_plus_raw_payload(tmp_path):
    path = tmp_path / "t.btsr"
    values = np.arange(6, dtype=np.float64)
    write_tensor(path, "f64", [2, 3], {"k": "v"}, values)
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    assert header == {"magic": "BTSR1", "dtype": "f64", "shape": [2, 3], "meta": {"k": "v"}}
    # payload: little-endian float64, row-major
    assert raw[nl + 1 :] == struct.pack("<6d", *range(6))


def test_tensor_roundtrip_f64_value_exact(tmp_path):
    path = tmp_path / "t.btsr"
    values = np.array([0.1, -2.5e300, 3e-300, 7.0])
    write_tensor(path, "f64", [4], {}, values)
    tf = read_tensor(path)
    assert tf.dtype == "f64"
    assert tf.shape == [4]
    assert np.array_equal(tf.values, values)


def test_tensor_roundtrip_f32_bit_exact(tmp_path):
    path = tmp_path / "t.btsr"
    values = np.array([0.1, 1.0, -3.5, np.pi], dtype=np.float32)
    write_tensor(path, "f32", [2, 2], {}, values)
    back = read_tensor(path).values.astype(np.float32)
    assert back.tobytes() == values.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=0,
        max_size=40,
    )
)
def test_tensor_roundtrip_property(tmp_path_factory, xs):
    path = tmp_path_factory.mktemp("rt") / "t.btsr"
    values = np.asarray(xs, dtype=np.float64)
    write_tensor(path, "f64", [len(xs)], {"n": len(xs)}, values)
    tf = read_tensor(path)
    assert tf.values.tobytes() == values.tobytes()
    assert tf.meta == {"n": len(xs)}


def test_malformed_header_names_byte_offset(tmp_path):
    path = tmp_path / "bad.btsr"
    path.write_bytes(b'{"magic": "BTSR1", "dtype": \n' + b"\x00" * 8)
    with pytest.raises(FormatError, match="byte offset"):
        read_tensor(path)


def test_missing_newline_is_format_error(tmp_path):
    path = tmp_path / "bad.btsr"
    path.write_bytes(b'{"magic": "BTSR1"}')
    with pytest.raises(FormatError, match="terminator"):
        read_tensor(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.btsr"
    path.write_bytes(b'{"magic": "NOPE1", "dtype": "f64", "shape": [0], "meta": {}}\n')
    with pytest.raises(FormatError, match="magic"):
        read_tensor(path)


def test_unknown_dtype_tag_rejected(tmp_path):
    path = tmp_path / "bad.btsr"
    path.write_bytes(b'{"magic": "BTSR1", "dtype": "i8", "shape": [1], "meta": {}}\nx')
    with pytest.raises(FormatError, match="dtype"):
        read_tensor(path)


def test_payload_shape_mismatch_is_validation_error(tmp_path):
    # 7 values on disk, but the shape wants 2*4 = 8
    path = tmp_path / "bad.btsr"
    header = b'{"magic": "BTSR1", "dtype": "f64", "shape": [2, 4], "meta": {}}\n'
    path.write_bytes(header + struct.pack("<7d", *range(7)))
    with pytest.raises(ValidationError, match="shape"):
        read_tensor(path)


def test_huge_shape_with_empty_payload_is_a_size_mismatch(tmp_path):
    # 2**62 * 4 wraps to 0 in int64 arithmetic, which an empty payload would match
    path = tmp_path / "huge.btsr"
    meta = {"fs_hz": 10.0, "channel_names": ["a"], "subject_id": "x"}
    header = {"magic": "BTSR1", "dtype": "f64", "shape": [2**62, 4], "meta": meta}
    path.write_bytes(json.dumps(header).encode() + b"\n")
    for read in (read_tensor, read_eeg):
        with pytest.raises(ValidationError, match=r"payload holds 0 values .* requires 18446744073709551616"):
            read(path)
    with pytest.raises(ValidationError, match="do not fill shape"):
        write_tensor(path, "f64", [2**62, 4], {}, np.zeros(0))


def test_read_tensor_header_only(tmp_path):
    path = tmp_path / "t.btsr"
    write_tensor(path, "f32", [3], {"tag": 1}, np.zeros(3, dtype=np.float32))
    header = read_tensor_header(path)
    assert header["shape"] == [3]
    assert header["meta"] == {"tag": 1}


def test_eeg_roundtrip(tmp_path):
    path = tmp_path / "eeg.btsr"
    rec = EegRecording(
        data=np.arange(8, dtype=np.float64).reshape(2, 4),
        fs_hz=128.0,
        channel_names=["Fz", "Cz"],
        subject_id="s01",
    )
    write_eeg(path, rec)
    back = read_eeg(path)
    assert np.array_equal(back.data, rec.data)
    assert back.fs_hz == 128.0
    assert back.channel_names == ["Fz", "Cz"]
    assert back.subject_id == "s01"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eeg_non_finite_sample_rejected_and_named(data):
    n_channels = data.draw(st.integers(min_value=1, max_value=5))
    n_samples = data.draw(st.integers(min_value=1, max_value=50))
    ch = data.draw(st.integers(min_value=0, max_value=n_channels - 1))
    sample = data.draw(st.integers(min_value=0, max_value=n_samples - 1))
    values = np.zeros((n_channels, n_samples))
    values[ch, sample] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    names = [f"ch{i}" for i in range(n_channels)]
    with pytest.raises(ValidationError, match=rf"'ch{ch}'.* at sample {sample}$"):
        EegRecording(data=values, fs_hz=100.0, channel_names=names, subject_id="s")


def test_written_files_read_back_when_ids_are_not_strings(tmp_path):
    # the writers store subject_id and units as strings, which the readers require
    eeg_path, trf_path = tmp_path / "eeg.btsr", tmp_path / "trf.btsr"
    write_eeg(eeg_path, EegRecording(np.zeros((1, 2)), 10.0, ["a"], 7))
    assert read_eeg(eeg_path).subject_id == "7"
    spec = LagSpec(tmin_s=0.0, tmax_s=0.1, fs_hz=10.0, lag_samples=[0, 1])
    write_trf(trf_path, TrfModel(np.zeros((2, 1, 1)), spec, ["a"], lam=1.0, units=3))
    assert read_trf(trf_path).units == "3"


def test_eeg_missing_meta_key_names_it(tmp_path):
    path = tmp_path / "eeg.btsr"
    write_tensor(path, "f64", [1, 2], {"channel_names": ["a"], "subject_id": "x"}, np.zeros(2))
    with pytest.raises(ValidationError, match="fs_hz"):
        read_eeg(path)


def _write_eeg_file(path):
    write_eeg(path, EegRecording(np.zeros((2, 3)), 10.0, ["a", "b"], "s01"))


def _write_trf_file(path):
    spec = LagSpec(tmin_s=-0.1, tmax_s=0.2, fs_hz=10.0, lag_samples=[-1, 0, 1, 2])
    write_trf(path, TrfModel(np.zeros((4, 2, 1)), spec, ["a", "b"], lam=1.0))


def _write_lda_file(path):
    write_lda(path, LdaModel(np.eye(2, 1), ["p", "q"], np.zeros((2, 2)), 1, np.ones(1), 1))


# Each reader's required meta keys, with the kind each one takes.
_READERS = {
    "eeg": (read_eeg, _write_eeg_file,
            {"fs_hz": "float", "channel_names": "str list", "subject_id": "str"}),
    "trf": (read_trf, _write_trf_file,
            {"lag_times_s": "float list", "channel_names": "str list", "lambda": "float",
             "fs_hz": "float", "units": "str"}),
    "lda": (read_lda, _write_lda_file,
            {"class_labels": "str list", "eigenvalues": "float list",
             "class_means": "float rows", "n_components": "int",
             "requested_components": "int"}),
}

# JSON values, each with the kinds that accept it.
_JSON_SAMPLES = [
    (True, ()),
    (None, ()),
    ("x", ("str",)),
    (5, ("int", "float")),
    (2.5, ("float",)),
    (float("nan"), ()),
    (float("inf"), ()),
    ({}, ()),
    (["a"], ("str list",)),
    ([1.5], ("float list",)),
    ([True], ()),
    (["a", 1.5], ()),
    ([[1.5]], ("float rows",)),
    ([[1.5], [2.5, 3.5]], ()),
]


def _rewrite_meta(path, key, value=None, drop=False):
    """Replace or drop one meta key, keeping the payload (NaN written as JSON NaN)."""
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    if drop:
        del header["meta"][key]
    else:
        header["meta"][key] = value
    path.write_bytes(json.dumps(header).encode() + raw[nl:])


@pytest.mark.parametrize(
    "reader, key", [(r, k) for r, (_, _, kinds) in _READERS.items() for k in kinds]
)
def test_missing_or_wrong_kind_meta_key_names_file_and_key(tmp_path, reader, key):
    read, write, kinds = _READERS[reader]
    path = tmp_path / f"{reader}.btsr"
    write(path)
    read(path)  # the untouched file reads
    bad = [value for value, accepted_by in _JSON_SAMPLES if kinds[key] not in accepted_by]
    for value, drop in [(None, True)] + [(v, False) for v in bad]:
        write(path)
        _rewrite_meta(path, key, value, drop)
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(path) in str(err.value) and repr(key) in str(err.value), (value, drop)


def test_eeg_channel_name_count_mismatch(tmp_path):
    path = tmp_path / "eeg.btsr"
    meta = {"fs_hz": 10.0, "channel_names": ["a", "b", "c"], "subject_id": "x"}
    write_tensor(path, "f64", [2, 2], meta, np.zeros(4))
    with pytest.raises(ValidationError):
        read_eeg(path)


# ---------------------------------------------------------------------------
# word events


def _events_tsv(tmp_path, body: str):
    path = tmp_path / "w.tsv"
    path.write_text(body, encoding="utf-8")
    return path


def test_word_events_roundtrip(tmp_path):
    seq = WordEventSequence(
        events=[
            WordEvent("the", 0.1, np.array([0.25, -1.5]), "DT"),
            WordEvent("cat", 0.503, np.array([1e-17, 3.25]), None),
        ],
        dim=2,
    )
    path = tmp_path / "w.tsv"
    write_word_events(path, seq)
    back = read_word_events(path)
    assert len(back) == 2
    assert back.dim == 2
    assert back.events[0].token == "the"
    assert back.events[0].pos_tag == "DT"
    assert back.events[1].pos_tag is None
    assert np.array_equal(back.vectors(), seq.vectors())
    assert back.events[1].onset_s == 0.503


def test_with_vectors_keeps_events_and_checks_rows():
    seq = WordEventSequence(
        events=[WordEvent("the", 0.1, np.array([0.25, -1.5]), "DT"),
                WordEvent("cat", 0.5, np.array([1.0, 3.25]), None)],
        dim=2,
    )
    new = seq.with_vectors([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert new.dim == 3
    assert [(ev.token, ev.onset_s, ev.pos_tag) for ev in new.events] == [
        ("the", 0.1, "DT"), ("cat", 0.5, None)]
    assert np.array_equal(new.vectors(), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(seq.vectors(), [[0.25, -1.5], [1.0, 3.25]])
    with pytest.raises(ValidationError, match="one vector row per event"):
        seq.with_vectors([[1.0, 2.0]])


def test_word_events_header_only_gives_empty_sequence(tmp_path):
    path = _events_tsv(tmp_path, "token\tonset_s\tpos\tv0\tv1\tv2\n")
    seq = read_word_events(path)
    assert len(seq) == 0
    assert seq.dim == 3


def test_word_events_ragged_row_names_line(tmp_path):
    path = _events_tsv(
        tmp_path,
        "token\tonset_s\tpos\tv0\tv1\n"
        "a\t0.1\tNN\t1.0\t2.0\n"
        "b\t0.2\tNN\t1.0\n",
    )
    with pytest.raises(FormatError, match="line 3"):
        read_word_events(path)


def test_word_events_decreasing_onsets_rejected(tmp_path):
    path = _events_tsv(
        tmp_path,
        "token\tonset_s\tpos\tv0\n" "a\t0.5\t\t1.0\n" "b\t0.4\t\t2.0\n",
    )
    with pytest.raises(ValidationError, match="decreases"):
        read_word_events(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("b\tnan\t\t2.0", "event 1 .*non-finite onset"),
        ("b\t0.6\t\tinf", "event 1 .*non-finite value inf in vector entry 0"),
    ],
)
def test_word_events_non_finite_values_rejected(tmp_path, row, message):
    path = _events_tsv(tmp_path, "token\tonset_s\tpos\tv0\n" "a\t0.5\t\t1.0\n" + row + "\n")
    with pytest.raises(ValidationError, match=message):
        read_word_events(path)


def test_word_events_bad_header_rejected(tmp_path):
    path = _events_tsv(tmp_path, "word\tonset\ttag\tv0\n")
    with pytest.raises(FormatError, match="line 1"):
        read_word_events(path)


def test_word_events_non_numeric_value_names_line(tmp_path):
    path = _events_tsv(
        tmp_path, "token\tonset_s\tpos\tv0\n" "a\t0.1\t\tabc\n"
    )
    with pytest.raises(FormatError, match="line 2"):
        read_word_events(path)


def test_coincident_onsets_are_legal_in_the_file(tmp_path):
    path = _events_tsv(
        tmp_path,
        "token\tonset_s\tpos\tv0\n" "a\t0.5\t\t1.0\n" "b\t0.5\t\t2.0\n",
    )
    seq = read_word_events(path)
    assert [ev.token for ev in seq.events] == ["a", "b"]


# ---------------------------------------------------------------------------
# channel layouts


def test_layout_roundtrip(tmp_path):
    layout = ChannelLayout(
        entries=[LayoutEntry("Fz", 0.0, 1.0), LayoutEntry("Cz", 0.0, 0.0)]
    )
    path = tmp_path / "layout.csv"
    write_channel_layout(path, layout)
    back = read_channel_layout(path)
    assert [e.name for e in back.entries] == ["Fz", "Cz"]
    assert back.position("Fz") == (0.0, 1.0)


def test_layout_duplicate_name_rejected(tmp_path):
    path = tmp_path / "layout.csv"
    path.write_text("name,x,y\nFz,0,1\nFz,1,0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="Fz"):
        read_channel_layout(path)


def test_layout_non_numeric_coordinate_names_line(tmp_path):
    path = tmp_path / "layout.csv"
    path.write_text("name,x,y\nFz,0,1\nCz,left,0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 3"):
        read_channel_layout(path)


@pytest.mark.parametrize("coords", ["nan,0.5", "0.5,inf", "-inf,0", "1e999,0"])
def test_layout_non_finite_coordinate_names_line_and_channel(tmp_path, coords):
    path = tmp_path / "layout.csv"
    path.write_text(f"name,x,y\nC00,0,1\nC01,{coords}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"layout\.csv: line 3: channel 'C01': non-finite"):
        read_channel_layout(path)


def test_layout_bad_header_rejected(tmp_path):
    path = tmp_path / "layout.csv"
    path.write_text("channel,x,y\nFz,0,1\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        read_channel_layout(path)
