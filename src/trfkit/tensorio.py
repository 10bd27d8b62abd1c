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
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import JSON_KINDS
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
        if self.data.ndim != 2:
            raise ValidationError(
                f"EEG data must be 2-D (channels x samples), got ndim={self.data.ndim}"
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


@dataclass
class WordEventSequence:
    """Chronological word events with a common feature dimensionality."""

    events: list[WordEvent]
    dim: int

    def __post_init__(self):
        bad = _first_nonfinite(self.onsets())
        if bad is not None:
            ev = self.events[bad[0]]
            raise ValidationError(f"event {bad[0]} ({ev.token!r}): non-finite onset {ev.onset_s}")
        prev = -np.inf
        for k, ev in enumerate(self.events):
            if ev.onset_s < 0:
                raise ValidationError(f"event {k} ({ev.token!r}): negative onset {ev.onset_s}")
            if ev.onset_s < prev:
                raise ValidationError(
                    f"event {k} ({ev.token!r}): onset {ev.onset_s} decreases below {prev}"
                )
            prev = ev.onset_s
            vec = np.asarray(ev.vector, dtype=np.float64)
            if vec.shape != (self.dim,):
                raise ValidationError(
                    f"event {k} ({ev.token!r}): vector has shape {vec.shape}, expected ({self.dim},)"
                )
            ev.vector = vec
        bad = _first_nonfinite(self.vectors())
        if bad is not None:
            k, d = bad
            ev = self.events[k]
            raise ValidationError(
                f"event {k} ({ev.token!r}): non-finite value {ev.vector[d]} in vector entry {d}"
            )

    def __len__(self) -> int:
        return len(self.events)

    def onsets(self) -> np.ndarray:
        return np.array([ev.onset_s for ev in self.events], dtype=np.float64)

    def vectors(self) -> np.ndarray:
        if not self.events:
            return np.zeros((0, self.dim))
        return np.stack([ev.vector for ev in self.events])

    def with_vectors(self, vectors) -> "WordEventSequence":
        """The same events carrying new vectors, one row per event."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(self.events):
            raise ValidationError(
                f"need one vector row per event ({len(self.events)}), got shape {vectors.shape}"
            )
        return WordEventSequence(
            events=[replace(ev, vector=v) for ev, v in zip(self.events, vectors)],
            dim=vectors.shape[1],
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


def _parse_header(raw: bytes, path) -> tuple[dict, int]:
    """Return (header dict, payload offset) or raise FormatError."""
    nl = raw.find(b"\n", 0, _HEADER_LIMIT)
    if nl < 0:
        raise FormatError(
            f"{path}: no header terminator within the first "
            f"{min(len(raw), _HEADER_LIMIT)} bytes (byte offset {min(len(raw), _HEADER_LIMIT)})"
        )
    try:
        text = raw[:nl].decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: header is not UTF-8 at byte offset {e.start}") from None
    try:
        header = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(
            f"{path}: malformed header JSON at byte offset {e.pos}: {e.msg}"
        ) from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header at byte offset 0 is not a JSON object")
    if header.get("magic") != MAGIC:
        raise FormatError(
            f"{path}: bad magic {header.get('magic')!r} at byte offset 0, expected {MAGIC!r}"
        )
    return header, nl + 1


def read_tensor_header(path) -> dict:
    """Read and validate only the JSON header line of a BTSR file."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_LIMIT)
    header, _ = _parse_header(raw, path)
    return header


def read_tensor(path) -> TensorFile:
    with open(path, "rb") as fh:
        raw = fh.read()
    header, offset = _parse_header(raw, path)

    dtype_tag = header.get("dtype")
    if dtype_tag not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype tag {dtype_tag!r}")
    shape = header.get("shape")
    if (
        not isinstance(shape, list)
        or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape)
    ):
        raise ValidationError(f"{path}: shape must be a list of nonnegative integers, got {shape!r}")
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: meta must be a JSON object, got {type(meta).__name__}")

    np_dtype = _DTYPES[dtype_tag]
    count = math.prod(shape)
    expected = count * np_dtype.itemsize
    n_bytes = len(raw) - offset
    if n_bytes != expected:
        raise ValidationError(
            f"{path}: payload holds {n_bytes // np_dtype.itemsize} values "
            f"({n_bytes} bytes) but shape {shape} requires {count}"
        )
    values = np.frombuffer(raw, dtype=np_dtype, count=count, offset=offset).copy()
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
    if len(tf.shape) != rank:
        raise ValidationError(f"{path}: expected a {rank}-D tensor, got shape {tf.shape}")
    meta = {}
    for key, kind in kinds.items():
        kind_text, convert = JSON_KINDS[kind]
        meta[key] = convert(tf.meta.get(key))  # every kind rejects None
        if meta[key] is None:
            got = json.dumps(tf.meta[key]) if key in tf.meta else "nothing: the key is missing"
            raise ValidationError(f"{path}: meta key {key!r} must be {kind_text}, got {got}")
    return tf.tensor(), meta


# ---------------------------------------------------------------------------
# EEG recordings


def write_eeg(path, rec: EegRecording, dtype: str = "f64") -> None:
    meta = {
        "fs_hz": float(rec.fs_hz),
        "channel_names": list(rec.channel_names),
        "subject_id": str(rec.subject_id),
    }
    write_tensor(path, dtype, list(rec.data.shape), meta, rec.data)


def read_eeg(path) -> EegRecording:
    data, meta = _read_checked(path, 2, {
        "fs_hz": "float", "channel_names": "str list", "subject_id": "str",
    })
    try:
        return EegRecording(data=data, **meta)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# word events (TSV)


def _format_float(x: float) -> str:
    return repr(float(x))


def write_word_events(path, seq: WordEventSequence) -> None:
    cols = ["token", "onset_s", "pos"] + [f"v{i}" for i in range(seq.dim)]
    lines = ["\t".join(cols)]
    for k, ev in enumerate(seq.events):
        for piece, what in ((ev.token, "token"), (ev.pos_tag or "", "pos tag")):
            if "\t" in piece or "\n" in piece:
                raise ValidationError(f"event {k}: {what} {piece!r} contains a tab or newline")
        row = [ev.token, _format_float(ev.onset_s), ev.pos_tag or ""]
        row.extend(_format_float(v) for v in ev.vector)
        lines.append("\t".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_word_events(path) -> WordEventSequence:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty file, expected a header line")

    header = lines[0].split("\t")
    if header[:3] != ["token", "onset_s", "pos"]:
        raise FormatError(
            f"{path}: line 1: header must start with token/onset_s/pos, got {header[:3]}"
        )
    dim = len(header) - 3
    expected_vs = [f"v{i}" for i in range(dim)]
    if header[3:] != expected_vs:
        raise FormatError(
            f"{path}: line 1: feature columns must be v0..v{dim - 1}, got {header[3:]}"
        )

    events = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 3 + dim:
            raise FormatError(
                f"{path}: line {lineno}: expected {3 + dim} fields, got {len(fields)}"
            )
        token, onset_text, pos = fields[0], fields[1], fields[2]
        try:
            onset = float(onset_text)
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: onset_s {onset_text!r} is not a number"
            ) from None
        try:
            vec = np.array([float(v) for v in fields[3:]], dtype=np.float64)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric feature value") from None
        events.append(WordEvent(token=token, onset_s=onset, vector=vec, pos_tag=pos or None))

    try:
        return WordEventSequence(events=events, dim=dim)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# channel layouts (CSV)


def write_channel_layout(path, layout: ChannelLayout) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "x", "y"])
        for e in layout.entries:
            writer.writerow([e.name, _format_float(e.x), _format_float(e.y)])


def read_channel_layout(path) -> ChannelLayout:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file, expected a header line")
    if rows[0] != ["name", "x", "y"]:
        raise FormatError(f"{path}: line 1: header must be name,x,y, got {rows[0]}")
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise FormatError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
        name, xs, ys = row
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric coordinate") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"{path}: line {lineno}: channel {name!r}: non-finite coordinate")
        entries.append(LayoutEntry(name=name, x=x, y=y))
    try:
        return ChannelLayout(entries=entries)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# JSON reports


def read_json(path):
    """Read a report document; malformed JSON raises FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: malformed JSON at offset {e.pos}: {e.msg}") from None


def write_json(path, obj) -> None:
    """Write a report document with stable formatting (deterministic bytes)."""
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
