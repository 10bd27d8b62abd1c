"""Readers and writers for every external file format the pipeline touches.

Binary tensors use the BTSR container: a single UTF-8 JSON header line
terminated by LF,

    {"magic": "BTSR1", "dtype": "f32"|"f64", "shape": [...], "meta": {...}}

followed immediately by the raw payload, little-endian, row-major, with
exactly prod(shape) values. Write/read round-trips are bit-exact.

Word events travel as TSV with the header

    token<TAB>onset_s<TAB>pos<TAB>v0<TAB>...<TAB>v{D-1}

and channel layouts as CSV with the header ``name,x,y``. All numeric
parsing uses '.' as the decimal separator regardless of locale.

Malformed bytes raise FormatError; well-formed files whose content breaks
a semantic rule (shape mismatch, a missing or wrong-kind meta key,
decreasing onsets) raise ValidationError. Both are ordinary catchable exceptions.
"""

import csv
import io
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._util import JSON_KINDS, decode_utf8, naming, round_half_up
from .errors import FormatError, ValidationError

__all__ = [
    "TensorFile",
    "EegRecording",
    "WordEvent",
    "WordEventSequence",
    "LayoutEntry",
    "ChannelLayout",
    "read_tensor",
    "write_tensor",
    "read_tensor_header",
    "read_eeg",
    "write_eeg",
    "read_word_events",
    "write_word_events",
    "read_channel_layout",
    "write_channel_layout",
    "read_json",
    "write_json",
]

MAGIC = "BTSR1"

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}

# A header longer than this is treated as malformed rather than scanned forever.
_HEADER_LIMIT = 1 << 20


# ---------------------------------------------------------------------------
# container types


def _first_nonfinite(values: np.ndarray) -> tuple | None:
    """Index of the first non-finite entry, or None when every entry is finite."""
    bad = np.argwhere(~np.isfinite(values))
    return tuple(int(i) for i in bad[0]) if bad.size else None


@dataclass
class TensorFile:
    """In-memory image of one BTSR file: flat values plus header fields."""

    dtype: str
    shape: list[int]
    meta: dict
    values: np.ndarray

    def tensor(self) -> np.ndarray:
        return self.values.reshape(self.shape)


@dataclass
class EegRecording:
    """Continuous multichannel recording, channels x samples."""

    data: np.ndarray
    fs_hz: float
    channel_names: list[str]
    subject_id: str

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] == 0:
            raise ValidationError(
                "EEG data must be 2-D (channels x samples) with at least one channel, "
                f"got shape {self.data.shape}"
            )
        if not (self.fs_hz > 0):
            raise ValidationError(f"fs_hz must be positive, got {self.fs_hz}")
        if len(self.channel_names) != self.data.shape[0]:
            raise ValidationError(
                f"{len(self.channel_names)} channel names for {self.data.shape[0]} data rows"
            )
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValidationError("channel names must be unique")
        bad = _first_nonfinite(self.data)
        if bad is not None:
            ch, sample = bad
            raise ValidationError(
                f"channel {self.channel_names[ch]!r}: non-finite value "
                f"{self.data[ch, sample]} at sample {sample}"
            )

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class WordEvent:
    """One word onset with its feature vector and optional POS tag."""

    token: str
    onset_s: float
    vector: np.ndarray
    pos_tag: str | None = None


class WordEventSequence:
    """Chronological word events with a common feature dimensionality, held as columns.

    `tokens` and `tags` are tuples; the onsets (n,) and vectors (n, dim) are read-only
    float64 arrays, which `onsets()` and `vectors()` return uncopied. The columns are
    checked once, when the sequence is made, and owned: `events` is a read-only view
    whose indexing and iteration build fresh rows, only those asked for.
    """

    def __init__(self, events: list[WordEvent], dim: int):
        events = list(events)  # read once per column below
        rows = [np.asarray(ev.vector, dtype=np.float64) for ev in events]
        misshapen = {k: row.shape for k, row in enumerate(rows) if row.shape != (dim,)}
        vectors = np.zeros((len(rows), 0)) if misshapen else np.array(rows).reshape(len(rows), dim)
        onsets = np.array([ev.onset_s for ev in events], dtype=np.float64)
        tags = [ev.pos_tag for ev in events]
        self._own([ev.token for ev in events], onsets, tags, vectors, dim, misshapen)

    @classmethod
    def _of_columns(cls, tokens, onsets, tags, vectors) -> "WordEventSequence":
        """The sequence of these columns, checked as the public constructor checks its events."""
        return cls.__new__(cls)._own(tokens, onsets, tags, vectors, vectors.shape[1], {})

    def _own(self, tokens, onsets, tags, vectors, dim, misshapen) -> "WordEventSequence":
        """Check the columns and keep them, the arrays without a copy.

        `misshapen` maps the index of each input vector not of shape (dim,) to
        its shape; `vectors` is then a placeholder that is never read.
        """
        self.tokens, self.tags, self.dim = tuple(tokens), tuple(tags), dim
        def fault(k, problem: str) -> ValidationError:
            return ValidationError(f"event {k} ({self.tokens[k]!r}): {problem}")
        bad = _first_nonfinite(onsets)
        if bad is not None:
            raise fault(bad[0], f"non-finite onset {onsets[bad[0]]}")
        # the first event in order that breaks a rule; its rules are checked in this order
        prev = np.concatenate(([-np.inf], onsets[:-1]))
        k = min([*np.flatnonzero((onsets < 0) | (onsets < prev))[:1], *misshapen], default=None)
        if k is not None:
            if onsets[k] < 0:
                raise fault(k, f"negative onset {onsets[k]}")
            if onsets[k] < prev[k]:
                raise fault(k, f"onset {onsets[k]} decreases below {prev[k]}")
            raise fault(k, f"vector has shape {misshapen[k]}, expected ({dim},)")
        bad = _first_nonfinite(vectors)
        if bad is not None:
            raise fault(bad[0], f"non-finite value {vectors[bad]} in vector entry {bad[1]}")
        onsets.setflags(write=False)
        vectors.setflags(write=False)
        self._onsets, self._vectors = onsets, vectors
        return self

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def events(self) -> "_EventRows":
        return _EventRows(self)

    def onsets(self) -> np.ndarray:
        return self._onsets

    def vectors(self) -> np.ndarray:
        return self._vectors

    def onset_samples(self, fs_hz: float) -> np.ndarray:
        """Each onset's sample index at fs_hz, floor(onset_s * fs_hz + 0.5), as int64."""
        with np.errstate(over="ignore"):  # an onset beyond the float range is inf, which is refused
            return round_half_up(
                self._onsets * fs_hz,
                lambda k: f"event {k} ({self.tokens[k]!r}) at {self._onsets[k]}s and {fs_hz} Hz",
            )

    def with_vectors(self, vectors) -> "WordEventSequence":
        """The same events carrying a copy of new vectors, one row per event."""
        vectors = np.array(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(self):
            raise ValidationError(
                f"need one vector row per event ({len(self)}), got shape {vectors.shape}"
            )
        return WordEventSequence._of_columns(self.tokens, self._onsets, self.tags, vectors)


class _EventRows(Sequence):
    """Read-only row view of a WordEventSequence; each access builds only the rows it asks for."""

    def __init__(self, seq: WordEventSequence):
        self._seq = seq

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, k):
        picked = range(len(self._seq))[k]  # an index, or a range for a slice
        if isinstance(picked, range):
            return [self[j] for j in picked]
        seq = self._seq
        return WordEvent(
            seq.tokens[picked], seq._onsets[picked].item(), seq._vectors[picked], seq.tags[picked]
        )


@dataclass
class LayoutEntry:
    name: str
    x: float
    y: float


@dataclass
class ChannelLayout:
    """Sensor positions in canonical (file) order."""

    entries: list[LayoutEntry]
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {}
        for e in self.entries:
            if e.name in self._index:
                raise ValidationError(f"duplicate channel name {e.name!r} in layout")
            self._index[e.name] = e

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def position(self, name: str) -> tuple[float, float]:
        e = self._index[name]
        return (e.x, e.y)


# ---------------------------------------------------------------------------
# BTSR container


def _parse_header(raw: bytes) -> tuple[dict, int]:
    """Return (header dict, payload offset) or raise FormatError."""
    nl = raw.find(b"\n", 0, _HEADER_LIMIT)
    if nl < 0:
        raise FormatError(
            f"no header terminator within the first "
            f"{min(len(raw), _HEADER_LIMIT)} bytes (byte offset {min(len(raw), _HEADER_LIMIT)})"
        )
    try:
        header = json.loads(decode_utf8(raw[:nl]))
    except json.JSONDecodeError as e:
        raise FormatError(f"malformed header JSON at byte offset {e.pos}: {e.msg}") from None
    if not isinstance(header, dict):
        raise FormatError("header at byte offset 0 is not a JSON object")
    if header.get("magic") != MAGIC:
        raise FormatError(f"bad magic {header.get('magic')!r} at byte offset 0, expected {MAGIC!r}")
    return header, nl + 1


def read_tensor_header(path) -> dict:
    """Read and validate only the JSON header line of a BTSR file."""
    with open(path, "rb") as fh, naming(f"{path}: "):
        return _parse_header(fh.readline(_HEADER_LIMIT))[0]


def read_tensor(path) -> TensorFile:
    """Read a BTSR file; its values are read straight from the file into one owned array."""
    with open(path, "rb") as fh, naming(f"{path}: "):
        header, offset = _parse_header(fh.readline(_HEADER_LIMIT))
        dtype_tag = header.get("dtype")
        if not isinstance(dtype_tag, str) or dtype_tag not in _DTYPES:
            raise FormatError(f"unknown dtype tag {dtype_tag!r}")
        shape = header.get("shape")
        if (
            not isinstance(shape, list)
            or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape)
        ):
            raise ValidationError(f"shape must be a list of nonnegative integers, got {shape!r}")
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise ValidationError(f"meta must be a JSON object, got {type(meta).__name__}")

        np_dtype = _DTYPES[dtype_tag]
        count = math.prod(shape)
        expected = count * np_dtype.itemsize
        n_bytes = os.fstat(fh.fileno()).st_size - offset
        if n_bytes != expected:
            raise ValidationError(
                f"payload holds {n_bytes // np_dtype.itemsize} values "
                f"({n_bytes} bytes) but shape {shape} requires {count}"
            )
        values = np.empty(count, dtype=np_dtype)
        if fh.readinto(values.view(np.uint8)) != n_bytes:
            raise ValidationError("the payload shrank while it was read")
        try:  # a zero entry lets a huge one past the size check; the view is discarded
            values.reshape(shape)
        except ValueError:
            raise ValidationError(f"numpy cannot hold an array of shape {shape}") from None
    return TensorFile(dtype=dtype_tag, shape=list(shape), meta=meta, values=values)


def write_tensor(path, dtype: str, shape, meta: dict, values) -> None:
    if dtype not in _DTYPES:
        raise ValidationError(f"unknown dtype tag {dtype!r}, expected one of {sorted(_DTYPES)}")
    shape = [int(s) for s in shape]
    if any(s < 0 for s in shape):
        raise ValidationError(f"shape entries must be nonnegative, got {shape}")
    flat = np.ascontiguousarray(values, dtype=_DTYPES[dtype]).ravel()
    count = math.prod(shape)
    if flat.size != count:
        raise ValidationError(f"{flat.size} values do not fill shape {shape} ({count} expected)")
    header = {"magic": MAGIC, "dtype": dtype, "shape": shape, "meta": meta}
    line = json.dumps(header, allow_nan=False) + "\n"
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8"))
        fh.write(flat.tobytes())


def _read_checked(path, rank: int, kinds: dict[str, str]) -> tuple[np.ndarray, dict]:
    """The tensor of a BTSR file of the given rank, and its meta keys converted by kind.

    `kinds` maps each required meta key to a JSON_KINDS name. A wrong rank,
    a missing key or a value of the wrong kind raises ValidationError.
    """
    tf = read_tensor(path)
    with naming(f"{path}: "):
        if len(tf.shape) != rank:
            raise ValidationError(f"expected a {rank}-D tensor, got shape {tf.shape}")
        meta = {}
        for key, kind in kinds.items():
            kind_text, convert = JSON_KINDS[kind]
            meta[key] = convert(tf.meta.get(key))  # every kind rejects None
            if meta[key] is None:
                got = json.dumps(tf.meta[key]) if key in tf.meta else "nothing: the key is missing"
                raise ValidationError(f"meta key {key!r} must be {kind_text}, got {got}")
    return tf.tensor(), meta


# ---------------------------------------------------------------------------
# EEG recordings


def write_eeg(path, rec: EegRecording) -> None:
    meta = {
        "fs_hz": float(rec.fs_hz),
        "channel_names": list(rec.channel_names),
        "subject_id": str(rec.subject_id),
    }
    write_tensor(path, "f64", list(rec.data.shape), meta, rec.data)


def read_eeg(path) -> EegRecording:
    data, meta = _read_checked(path, 2, {
        "fs_hz": "float", "channel_names": "str list", "subject_id": "str",
    })
    with naming(f"{path}: "):
        return EegRecording(data=data, **meta)


# ---------------------------------------------------------------------------
# word events (TSV)


def _require_utf8(piece: str, owner: str, what: str) -> None:
    try:
        piece.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{owner}: {what} {piece!r} cannot be encoded as UTF-8") from None


def write_word_events(path, seq: WordEventSequence) -> None:
    cols = ["token", "onset_s", "pos"] + [f"v{i}" for i in range(seq.dim)]
    lines = ["\t".join(cols) + "\n"]
    vectors = seq.vectors()
    for k, (token, onset, tag) in enumerate(zip(seq.tokens, seq.onsets().tolist(), seq.tags)):
        for piece, what in ((token, "token"), (tag or "", "pos tag")):
            if "\t" in piece or "\n" in piece:
                raise ValidationError(f"event {k}: {what} {piece!r} contains a tab or newline")
            if not piece.isascii():  # only a non-ASCII string can fail to encode
                _require_utf8(piece, f"event {k}", what)
        # repr of each Python float reads back exactly; tolist() per row keeps the GC quiet
        row = [token, repr(onset), tag or "", *map(repr, vectors[k].tolist())]
        lines.append("\t".join(row) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _lines(fh):
    """The lines of a binary file split at LF alone, each decoded from UTF-8 without its LF."""
    offset = 0
    for raw in fh:
        yield decode_utf8(raw.removesuffix(b"\n"), offset)
        offset += len(raw)


def read_word_events(path) -> WordEventSequence:
    """Stream a word-event TSV into columns, splitting each row once.

    Feature fields are cast into a float64 buffer that doubles when full and
    is trimmed in place after the last row. Malformed rows raise FormatError
    as they are met, so the first in file order is the one reported; the
    rules of WordEventSequence are checked once, after the last row.
    """
    with open(path, "rb") as fh, naming(f"{path}: "):
        lines = _lines(fh)
        header = next(lines, None)
        if header is None:
            raise FormatError("empty file, expected a header line")
        header = header.split("\t")
        if header[:3] != ["token", "onset_s", "pos"]:
            raise FormatError(f"line 1: header must start with token/onset_s/pos, got {header[:3]}")
        dim = len(header) - 3
        if header[3:] != [f"v{i}" for i in range(dim)]:
            raise FormatError(f"line 1: feature columns must be v0..v{dim - 1}, got {header[3:]}")

        tokens, onsets, tags = [], [], []
        tag_of = {"": None}  # one string per distinct tag
        vectors = np.empty((64, dim))
        for lineno, line in enumerate(lines, start=2):
            fields = line.split("\t")
            if len(fields) != 3 + dim:
                raise FormatError(f"line {lineno}: expected {3 + dim} fields, got {len(fields)}")
            try:
                onsets.append(float(fields[1]))
            except ValueError:
                raise FormatError(f"line {lineno}: onset_s {fields[1]!r} is not a number") from None
            if len(tokens) == len(vectors):
                vectors.resize((2 * len(tokens), dim), refcheck=False)  # no view of it exists
            try:  # numpy's str -> float64 cast accepts exactly what float() does
                vectors[len(tokens)] = fields[3:]
            except ValueError:
                raise FormatError(f"line {lineno}: non-numeric feature value") from None
            tokens.append(fields[0])
            tags.append(tag_of.setdefault(fields[2], fields[2]))
        vectors.resize((len(tokens), dim), refcheck=False)
        return WordEventSequence._of_columns(tokens, np.array(onsets), tags, vectors)


# ---------------------------------------------------------------------------
# channel layouts (CSV)


def write_channel_layout(path, layout: ChannelLayout) -> None:
    for k, e in enumerate(layout.entries):
        _require_utf8(e.name, f"channel {k}", "name")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "x", "y"])
        writer.writerows([e.name, repr(float(e.x)), repr(float(e.y))] for e in layout.entries)


def read_channel_layout(path) -> ChannelLayout:
    with open(path, "rb") as fh, naming(f"{path}: "):
        rows = list(csv.reader(io.StringIO(decode_utf8(fh.read()), newline="")))
        if not rows:
            raise FormatError("empty file, expected a header line")
        if rows[0] != ["name", "x", "y"]:
            raise FormatError(f"line 1: header must be name,x,y, got {rows[0]}")
        entries = []
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != 3:
                raise FormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
            name, xs, ys = row
            try:
                x, y = float(xs), float(ys)
            except ValueError:
                raise FormatError(f"line {lineno}: non-numeric coordinate") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValidationError(f"line {lineno}: channel {name!r}: non-finite coordinate")
            entries.append(LayoutEntry(name=name, x=x, y=y))
        return ChannelLayout(entries=entries)


# ---------------------------------------------------------------------------
# JSON reports


def read_json(path):
    """Read a report document; malformed JSON raises FormatError."""
    with open(path, "rb") as fh, naming(f"{path}: "):
        try:
            return json.loads(decode_utf8(fh.read()))
        except json.JSONDecodeError as e:
            raise FormatError(f"malformed JSON at offset {e.pos}: {e.msg}") from None


def write_json(path, obj) -> None:
    """Write a report document with stable formatting (deterministic bytes)."""
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
