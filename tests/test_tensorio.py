import json
import re
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
    read_json,
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


@pytest.mark.parametrize(
    "tag", [{}, {"f64": 1}, [], ["f64"]], ids=["object", "tag_object", "list", "tag_list"]
)
def test_unhashable_dtype_tag_is_format_error_naming_file(tmp_path, tag):
    path = tmp_path / "bad.btsr"
    header = {"magic": "BTSR1", "dtype": tag, "shape": [1], "meta": {}}
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
    with pytest.raises(FormatError, match=f"bad.btsr: unknown dtype tag {re.escape(repr(tag))}"):
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


@pytest.mark.parametrize(
    "shape",
    [[0, 2**62], [2**62, 0, 2**62], [0, 2**64], [1] * 65],
    ids=["too_big", "two_huge", "beyond_int64", "65_dims"],
)
def test_shape_numpy_cannot_hold_is_rejected_naming_file_and_shape(tmp_path, shape):
    path = tmp_path / "huge.btsr"
    meta = {"fs_hz": 10.0, "channel_names": [], "subject_id": "x"}
    header = {"magic": "BTSR1", "dtype": "f64", "shape": shape, "meta": meta}
    payload = b"" if 0 in shape else bytes(8)  # the payload fits the value count
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    for read in (read_tensor, read_eeg):
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(path) in str(err.value) and str(shape) in str(err.value)


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


@pytest.mark.parametrize("eigenvalues", [[], [1.5, 2.5]], ids=["none", "two"])
def test_lda_eigenvalue_count_mismatch_names_file(tmp_path, eigenvalues):
    path = tmp_path / "lda.btsr"
    _write_lda_file(path)  # one component
    _rewrite_meta(path, "eigenvalues", eigenvalues)
    with pytest.raises(ValidationError, match="eigenvalues must be") as err:
        read_lda(path)
    assert str(path) in str(err.value)


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


_FIELD_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"))
_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)


def _reference_tsv(tokens, onsets, tags, vectors, dim) -> bytes:
    """The word-event TSV of these events, each number formatted as repr(float(x))."""
    lines = ["\t".join(["token", "onset_s", "pos"] + [f"v{i}" for i in range(dim)])]
    for token, onset, tag, vec in zip(tokens, onsets, tags, vectors):
        lines.append("\t".join([token, repr(float(onset)), tag or ""] + [repr(float(x)) for x in vec]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.data())
def test_word_events_roundtrip_is_bit_exact(tmp_path_factory, dim, data):
    n = data.draw(st.integers(0, 6))
    tokens = data.draw(st.lists(_FIELD_TEXT, min_size=n, max_size=n))
    tags = data.draw(st.lists(st.none() | _FIELD_TEXT.filter(bool), min_size=n, max_size=n))
    onsets = sorted(data.draw(st.lists(_FINITE.map(abs), min_size=n, max_size=n)))
    vectors = [data.draw(st.lists(_FINITE, min_size=dim, max_size=dim)) for _ in range(n)]
    seq = WordEventSequence(
        events=[WordEvent(*ev) for ev in zip(tokens, onsets, map(np.array, vectors), tags)], dim=dim
    )
    path = tmp_path_factory.mktemp("words") / "w.tsv"
    write_word_events(path, seq)
    assert path.read_bytes() == _reference_tsv(tokens, onsets, tags, vectors, dim)
    back = read_word_events(path)
    assert [(ev.token, ev.pos_tag) for ev in back.events] == list(zip(tokens, tags))
    assert back.onsets().tobytes() == np.array(onsets, dtype=np.float64).tobytes()
    assert back.vectors().tobytes() == np.array(vectors, dtype=np.float64).reshape(n, dim).tobytes()


# strings on which a str -> float64 cast could part ways with float()
_EDGE_NUMBERS = [
    "1_0", "1__0", "_1", "1_", "١", "١٢.٥", "𝟏", "²", "½", " 1.5 ", "1.5\r", "\xa01\xa0", "\x0c1",
    "\x851", " 1", "nan", "-nan", "NaN", "Infinity", "-inf", "iNF", "infinity ", "1e999",
    "-1e999", "1e-400", "5e-324", "2.4703282292062327e-324", "1.7976931348623159e308", "-0", "+1",
    "1.", ".5", ".", "1e5", "1E+05", "e5", "1e", "0x10", "0b1", "1j", "1,5", "+-1", "", "  ",
    "\x001", "True", "123456789012345678901234567890", "0.1",
]


@pytest.mark.parametrize("text", _EDGE_NUMBERS)
def test_feature_values_parse_exactly_as_float_does(tmp_path, text):
    path = _events_tsv(tmp_path, f"token\tonset_s\tpos\tv0\tv1\na\t0.5\t\t{text}\t2.0\n")
    try:
        expected = float(text)
    except ValueError:
        with pytest.raises(FormatError, match="line 2: non-numeric feature value"):
            read_word_events(path)
        return
    if not np.isfinite(expected):
        with pytest.raises(ValidationError, match="non-finite value"):
            read_word_events(path)
        return
    got = read_word_events(path).vectors()[0, 0]
    assert struct.pack("<d", got) == struct.pack("<d", expected)


@pytest.mark.parametrize(
    "line3, line5, message",
    [
        ("c\t0.3\t\tx\t1.0", "e\t0.5\t\t1.0", "line 3: non-numeric feature value"),
        ("c\t0.3\t\t1.0", "e\t0.5\t\tx\t1.0", "line 3: expected 5 fields, got 4"),
        ("c\tsoon\t\t1.0\t1.0", "e\t0.5\t\t1.0", "line 3: onset_s 'soon' is not a number"),
    ],
)
def test_first_malformed_row_in_file_order_is_reported(tmp_path, line3, line5, message):
    rows = ["a\t0.1\t\t1.0\t1.0", line3, "d\t0.4\t\t1.0\t1.0", line5]
    path = _events_tsv(tmp_path, "token\tonset_s\tpos\tv0\tv1\n" + "\n".join(rows) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read_word_events(path)


def _loop_validation_error(events, dim):
    """The first rule an event breaks, checked one event at a time: the reference for the checks."""
    for k, ev in enumerate(events):
        if not np.isfinite(ev.onset_s):
            return f"event {k} ({ev.token!r}): non-finite onset {ev.onset_s}"
    prev = -np.inf
    for k, ev in enumerate(events):
        if ev.onset_s < 0:
            return f"event {k} ({ev.token!r}): negative onset {ev.onset_s}"
        if ev.onset_s < prev:
            return f"event {k} ({ev.token!r}): onset {ev.onset_s} decreases below {prev}"
        prev = ev.onset_s
        vec = np.asarray(ev.vector, dtype=np.float64)
        if vec.shape != (dim,):
            return f"event {k} ({ev.token!r}): vector has shape {vec.shape}, expected ({dim},)"
    for k, ev in enumerate(events):
        for d, x in enumerate(np.asarray(ev.vector, dtype=np.float64)):
            if not np.isfinite(x):
                return f"event {k} ({ev.token!r}): non-finite value {x} in vector entry {d}"
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sequence_reports_the_first_broken_rule_of_the_event_loop(data):
    onset = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, float("nan"), float("inf")])
    value = st.sampled_from([0.0, 1.5, -2.0, float("inf"), float("nan")])
    dim = data.draw(st.integers(0, 3))
    events = [
        WordEvent(f"w{k}", data.draw(onset), data.draw(st.lists(value, min_size=0, max_size=4)))
        for k in range(data.draw(st.integers(0, 6)))
    ]
    expected = _loop_validation_error(events, dim)
    if expected is None:
        assert len(WordEventSequence(events=events, dim=dim)) == len(events)
    else:
        with pytest.raises(ValidationError) as info:
            WordEventSequence(events=events, dim=dim)
        assert str(info.value) == expected


def test_with_vectors_checks_the_new_vectors():
    seq = WordEventSequence(
        events=[WordEvent("the", 0.1, np.array([0.25]), "DT"), WordEvent("cat", 0.5, np.array([1.0]))],
        dim=1,
    )
    with pytest.raises(ValidationError, match=r"event 1 \('cat'\): non-finite value inf in vector entry 1"):
        seq.with_vectors([[1.0, 2.0], [3.0, np.inf]])


def _traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tagged_sequence(n: int, dim: int) -> WordEventSequence:
    vectors = np.random.default_rng(7).standard_normal((n, dim))
    return WordEventSequence(
        events=[WordEvent(f"w{k:06d}", 0.25 * k, vectors[k], "NOUN") for k in range(n)], dim=dim
    )


@pytest.mark.parametrize("dim, bound", [(60, 1.5), (9, 2.0), (2, 4.0)])
def test_reading_word_events_holds_little_more_than_the_file(tmp_path, dim, bound):
    path = tmp_path / "w.tsv"
    write_word_events(path, _tagged_sequence(2000, dim))
    assert _traced_peak(lambda: read_word_events(path)) < bound * path.stat().st_size


def test_reading_a_recording_holds_little_more_than_the_file(tmp_path):
    # long_story's recording: 180 s x 32 channels at 100 Hz
    path = tmp_path / "eeg.btsr"
    data = np.random.default_rng(9).standard_normal((32, 18_000))
    write_eeg(path, EegRecording(data, 100.0, [f"c{j}" for j in range(32)], "s01"))
    back = []
    peak = _traced_peak(lambda: back.append(read_eeg(path)))
    # measured: 2.00 files while the file was read into bytes and its values copied
    # out; 1.13 since, the rest being the finiteness check's boolean mask
    assert peak < 1.2 * path.stat().st_size, f"{peak / path.stat().st_size:.2f} files"
    assert back[0].data.tobytes() == data.tobytes()
    assert back[0].data.flags.writeable  # an array of its own, not a view of bytes


def test_a_payload_that_shrinks_while_it_is_read_is_refused(tmp_path, monkeypatch):
    import os
    from types import SimpleNamespace

    import trfkit.tensorio as tensorio

    path = tmp_path / "t.btsr"
    write_tensor(path, "f64", [4], {}, np.arange(4.0))
    path.write_bytes(path.read_bytes().replace(b"[4]", b"[5]", 1))
    # the file reports room for 5 values, but 4 are left by the time they are read
    real = os.fstat
    monkeypatch.setattr(
        tensorio.os, "fstat", lambda fd: SimpleNamespace(st_size=real(fd).st_size + 8)
    )
    with pytest.raises(ValidationError, match="shrank while it was read"):
        read_tensor(path)


def test_with_vectors_holds_little_more_than_the_new_vectors():
    seq = _tagged_sequence(2000, 60)
    new = np.random.default_rng(8).standard_normal((2000, 9))
    assert _traced_peak(lambda: seq.with_vectors(new)) < 2.0 * new.nbytes


def test_a_sequence_owns_its_columns():
    vector = np.array([1.0, 2.0])
    seq = WordEventSequence([WordEvent("a", 0.0, vector, "DT"), WordEvent("b", 0.5, [3.0, 4.0])], 2)
    vector[0] = np.nan
    seq.events[0].onset_s = -5.0
    seq.events[1].token = "c"
    for writable in (seq.onsets(), seq.vectors(), seq.events[0].vector):
        with pytest.raises(ValueError, match="read-only"):
            writable[0] = np.inf
    new_vectors = np.array([[5.0], [6.0]])
    new = seq.with_vectors(new_vectors)
    new_vectors[1, 0] = np.nan
    assert seq.onsets().tolist() == [0.0, 0.5]
    assert seq.vectors().tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert [ev.token for ev in seq.events] == ["a", "b"]
    assert new.vectors().tolist() == [[5.0], [6.0]]


def test_indexing_one_event_builds_one_row(monkeypatch):
    import trfkit.tensorio as tensorio

    n = 1000
    seq = WordEventSequence._of_columns(
        [f"w{k}" for k in range(n)], np.arange(n) / 4.0, [None] * n, np.ones((n, 3))
    )
    built = []

    def counting(*args):
        built.append(args[0])
        return WordEvent(*args)

    monkeypatch.setattr(tensorio, "WordEvent", counting)
    events = seq.events
    assert len(events) == n and built == []
    assert events[-2].onset_s == 249.5 and built == ["w998"]
    assert [ev.token for ev in events[3:6]] == ["w3", "w4", "w5"]
    assert next(iter(events)).token == "w0"
    assert built == ["w998", "w3", "w4", "w5", "w0"]
    with pytest.raises(IndexError):
        events[n]


@pytest.mark.parametrize(
    "reader, body",
    [
        (read_word_events, b"token\tonset_s\tpos\tv0\na\t0.5\t\t1.0\nb\xff\t0.6\t\t2.0\n"),
        (read_channel_layout, b"name,x,y\nFz,0,1\nC\xffz,0,0\n"),
        (read_json, b'{"a": 1,\n "b\xff": 2}\n'),
    ],
    ids=["word_events", "channel_layout", "json"],
)
def test_non_utf8_byte_is_a_format_error_naming_file_and_offset(tmp_path, reader, body):
    path = tmp_path / "input"
    path.write_bytes(body)
    offset = body.index(b"\xff")
    with pytest.raises(FormatError, match=re.escape(f"{path}: not UTF-8 at byte offset {offset}")):
        reader(path)


@pytest.mark.parametrize(
    "write, contents, message",
    [
        (write_word_events,
         WordEventSequence([WordEvent("a", 0.1, [1.0], "DT"), WordEvent("b\ud800", 0.2, [2.0])], 1),
         "event 1: token 'b\\ud800' cannot be encoded as UTF-8"),
        (write_word_events,
         WordEventSequence([WordEvent("a", 0.1, [1.0], "\udfffDT")], 1),
         "event 0: pos tag '\\udfffDT' cannot be encoded as UTF-8"),
        (write_channel_layout,
         ChannelLayout([LayoutEntry("Fz", 0.0, 1.0), LayoutEntry("C\ud800z", 0.0, 0.0)]),
         "channel 1: name 'C\\ud800z' cannot be encoded as UTF-8"),
    ],
    ids=["word_token", "word_tag", "channel_name"],
)
def test_text_writers_refuse_a_string_utf8_cannot_encode(tmp_path, write, contents, message):
    path = tmp_path / "output"
    with pytest.raises(ValidationError, match=re.escape(message)):
        write(path, contents)
    assert not path.exists()


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
