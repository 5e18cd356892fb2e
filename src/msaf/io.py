"""Recording, segmentation and feature-table I/O.

A recording and a segmentation are each one framed file, laid out as
NumPy's ``.npy`` is: 8 magic bytes, the header length as a little-endian
uint32, a compact sorted-key JSON header of exactly the format's keys,
then the payload. `_commit_frame` writes and `_framed` reads both.

* ``<stem>.eegb``: ``EEGB0002``; ``channels``, ``fs``, ``label``,
  ``n_samples``, ``provenance`` (the operations applied so far) and
  ``subject_id``; the samples as little-endian float32, channel-major.
* ``<stem>.seg``: ``MSAFSEG1``; ``fs``, ``label``, ``maps``,
  ``n_samples`` and ``subject_id``; the per-sample ``states`` as uint8,
  then ``corr`` and ``gfp`` as little-endian float64, so a
  `Segmentation` reads back bit for bit.

A `Recording` holds float64 samples, or the float32 payload of its
file as is. `save_recording` writes `narrow_recording`'s float32
samples and `load_recording` returns them as stored; every kernel widens
samples to float64 on entry or one block at a time, so all arithmetic
happens at working precision and only storage is float32.

Every file of the package is written through a `Stage` (as
``<stem>.partial<ext>``) and renamed into place when its `staged` block
succeeds; `_commit` is the one-file case. On a failure the block removes
its partial files and the directories it created. A framed file is read
by `_framed`, any other by `_read`; the writers and readers encode and
decode around these. An OS fault in either, or bytes that do not decode
as expected, is an IoFailure.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
import threading
from dataclasses import dataclass
from io import StringIO
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .config import LABEL, MAX_STATES, NAME, Key, check_value
from .errors import (
    BadMagic,
    DuplicateSubject,
    InvalidRate,
    IoFailure,
    LengthMismatch,
    NonFiniteData,
    ShapeMismatch,
    UnknownChannel,
)

MAGIC = b"EEGB0002"
_HEADER_KEYS = ("channels", "fs", "label", "n_samples", "provenance", "subject_id")
SEG_MAGIC = b"MSAFSEG1"
_SEG_HEADER_KEYS = ("fs", "label", "maps", "n_samples", "subject_id")

# Idealized spherical 10-20 coordinates, BESA convention: (theta, phi) in
# degrees, theta signed toward the right ear, phi counterclockwise from
# the right-ear axis. Cartesian: x = sin(theta)cos(phi) (right),
# y = sin(theta)sin(phi) (anterior), z = cos(theta) (up). Homologous
# left/right pairs differ only in the sign of x; Cz is exactly (0, 0, 1).
_BESA_1020: dict[str, tuple[float, float]] = {
    "Fp1": (-92.0, -72.0),
    "Fp2": (92.0, 72.0),
    "Fpz": (92.0, 90.0),
    "F7": (-92.0, -36.0),
    "F3": (-60.0, -51.0),
    "Fz": (46.0, 90.0),
    "F4": (60.0, 51.0),
    "F8": (92.0, 36.0),
    "T3": (-92.0, 0.0),
    "C3": (-46.0, 0.0),
    "Cz": (0.0, 0.0),
    "C4": (46.0, 0.0),
    "T4": (92.0, 0.0),
    "T5": (-92.0, 36.0),
    "P3": (-60.0, 51.0),
    "Pz": (46.0, -90.0),
    "P4": (60.0, -51.0),
    "T6": (92.0, -36.0),
    "O1": (-92.0, 72.0),
    "O2": (92.0, -72.0),
    "Oz": (92.0, -90.0),
}

# Modern names mapped onto the classic positions.
_ALIASES = {"T7": "T3", "T8": "T4", "P7": "T5", "P8": "T6"}

STANDARD_1020_NAMES = (
    "Fp1", "Fp2", "F7", "F3", "Fz", "F4", "F8", "T3", "C3", "Cz",
    "C4", "T4", "T5", "P3", "Pz", "P4", "T6", "O1", "O2",
)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


class Stage:
    """Files written as `<stem>.partial<ext>`, to be renamed into place by `staged`.

    `write` may be called from several threads at once.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._written: list[tuple[str, str]] = []  # (partial, path), in write order
        self._made: list[str] = []  # directories created, parents first

    def write(self, path: str, *parts: bytes) -> str:
        """Write bytes-like parts to path's partial file, parents created; returns its path."""
        stem, ext = os.path.splitext(path)
        partial = stem + ".partial" + ext
        try:
            with self._lock:
                missing = []
                parent = os.path.dirname(path)
                while parent and not os.path.isdir(parent):
                    missing.append(parent)
                    parent = os.path.dirname(parent)
                for parent in reversed(missing):
                    os.mkdir(parent)
                    self._made.append(parent)
                self._written.append((partial, path))
            with open(partial, "wb") as f:
                for part in parts:
                    f.write(part)
        except OSError as e:
            raise IoFailure(f"could not write {path!r}: {e}") from e
        return partial

    def _publish(self) -> None:
        for partial, path in self._written:
            try:
                os.replace(partial, path)
            except OSError as e:
                raise IoFailure(f"could not write {path!r}: {e}") from e

    def _discard(self) -> None:
        for partial, _ in self._written:
            with contextlib.suppress(OSError):
                os.unlink(partial)
        for parent in reversed(self._made):
            with contextlib.suppress(OSError):  # not empty: someone else wrote there
                os.rmdir(parent)


@contextlib.contextmanager
def staged() -> Iterator[Stage]:
    """A Stage whose files are renamed into place, in write order, when the block succeeds.

    If the block raises, its partial files and the directories it created
    are removed, so it leaves no output.
    """
    stage = Stage()
    try:
        yield stage
        stage._publish()
    except BaseException:
        stage._discard()
        raise


def _commit(path: str, *parts: bytes, stage: Optional[Stage] = None) -> str:
    """Write parts to path through `stage`, or commit them alone; returns the path written.

    Within a stage that is the partial file's path.
    """
    if stage is not None:
        return stage.write(path, *parts)
    with staged() as one:
        one.write(path, *parts)
    return path


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise IoFailure(f"could not read {path!r}: {e}") from e


def _decode(path: str, decode: Callable, data):
    """decode(data); data of the wrong encoding or shape is an IoFailure."""
    try:
        return decode(data)
    except (IndexError, KeyError, TypeError, ValueError) as e:
        raise IoFailure(f"{path!r} does not hold what was expected: {e!r}") from e


def _json(blob: bytes):
    return json.loads(blob.decode("utf-8"))


def _subject(header: dict) -> tuple[str, Optional[str]]:
    """The subject_id and label of a header; a ValueError unless file names."""
    return (
        check_value("subject_id", NAME, header["subject_id"], ValueError),
        check_value("label", LABEL, header["label"], ValueError),
    )


def _commit_frame(path: str, magic: bytes, header: dict, *payload, stage=None) -> str:
    """Commit magic, the header's length and compact sorted-key JSON, then the payload."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _commit(path, magic, struct.pack("<I", len(blob)), blob, *payload, stage=stage)


@contextlib.contextmanager
def _framed(path: str, magic: bytes, keys: tuple[str, ...]) -> Iterator[tuple[dict, BinaryIO]]:
    """A framed file's header, a JSON object of exactly keys, and the file, unbuffered, at
    its payload; BadMagic, ShapeMismatch (a cut header) or IoFailure otherwise."""
    try:
        with open(path, "rb", buffering=0) as f:
            head = f.read(len(magic) + 4)
            if head[: len(magic)] != magic:
                raise BadMagic(f"{path!r} does not start with {magic!r}")
            if len(head) < len(magic) + 4:
                raise ShapeMismatch(f"{path!r} ends inside the header length")
            (header_len,) = struct.unpack_from("<I", head, len(magic))
            blob = f.read(header_len)
            if len(blob) != header_len:
                raise ShapeMismatch(f"{path!r}: header of {header_len} bytes runs past the end")
            header = _decode(path, _json, blob)
            if not isinstance(header, dict) or sorted(header) != list(keys):
                raise IoFailure(f"{path!r}: header must hold exactly the keys {keys}")
            yield header, f
    except OSError as e:
        raise IoFailure(f"could not read {path!r}: {e}") from e


def _payload(path: str, f: BinaryIO, size: int) -> np.ndarray:
    """The rest of f, which must be size bytes, in a fresh (so aligned) read-only uint8 array."""
    out = np.fromfile(f, np.uint8)
    if out.size != size:
        raise ShapeMismatch(f"{path!r}: payload is {out.size} bytes, header declares {size}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Montage:
    """Named electrode set with unit-sphere positions.

    Attributes:
        names: Channel names, unique and non-empty, in recording order.
        positions: (K, 3) array of unit vectors on the scalp sphere,
            x to the right, y anterior, z up.
    """

    names: tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise ShapeMismatch(f"montage needs at least 2 channels, got {len(names)}")
        if any(not n for n in names):
            raise ShapeMismatch("montage contains an empty channel name")
        if len(set(names)) != len(names):
            raise ShapeMismatch("montage channel names are not unique")
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.shape != (len(names), 3):
            raise ShapeMismatch(
                f"positions shape {pos.shape} does not match {len(names)} channels"
            )
        if not np.all(np.isfinite(pos)):
            raise NonFiniteData("montage positions contain non-finite values")
        norms = np.linalg.norm(pos, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ShapeMismatch("montage positions must be unit vectors")
        object.__setattr__(self, "positions", _freeze(pos))

    @property
    def n_channels(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownChannel(f"channel {name!r} not in montage") from None


def standard_1020_montage(names: Optional[Sequence[str]] = None) -> Montage:
    """Build a montage from the built-in idealized 10-20 table.

    Args:
        names: Channel names to include, in order. Defaults to the
            19-channel clinical set. Modern temporal names (T7, T8,
            P7, P8) are accepted as aliases of T3/T4/T5/T6.

    Returns:
        Montage with unit-sphere positions for the requested channels.
    """
    if names is None:
        names = STANDARD_1020_NAMES
    positions = []
    for name in names:
        key = _ALIASES.get(name, name)
        if key not in _BESA_1020:
            raise UnknownChannel(f"channel {name!r} not in the built-in 10-20 table")
        theta, phi = (math.radians(v) for v in _BESA_1020[key])
        if theta == 0.0:
            positions.append((0.0, 0.0, 1.0))
        else:
            positions.append(
                (
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                )
            )
    return Montage(names=tuple(names), positions=np.array(positions, dtype=np.float64))


@dataclass(frozen=True)
class Recording:
    """Multichannel EEG segment with its montage and sampling rate.

    Attributes:
        montage: Channel names and positions; row order matches data.
        fs: Sampling rate in Hz, strictly positive.
        data: (K, T) read-only array, channels by samples, finite, T >= 1.
            A C-contiguous float64 or little-endian float32 array (a stored
            payload) is taken over as is, not copied, and marked read-only:
            a caller that keeps writing to it must pass a copy. Any other
            dtype is widened to float64.
        subject_id: Stable identifier used to join tables downstream.
        label: Optional class label (diagnostic group).
        provenance: Tuple of strings, one per operation applied.
    """

    montage: Montage
    fs: float
    data: np.ndarray
    subject_id: str
    label: Optional[str] = None
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        data = self.data
        if not (isinstance(data, np.ndarray) and data.dtype == np.dtype("<f4")):
            data = np.asarray(data, dtype=np.float64)
        if not (isinstance(self.fs, (int, float)) and math.isfinite(self.fs) and self.fs > 0):
            raise InvalidRate(f"sampling rate must be positive and finite, got {self.fs!r}")
        if data.ndim != 2:
            raise ShapeMismatch(f"data must be 2-D (channels, samples), got ndim={data.ndim}")
        if data.shape[0] != self.montage.n_channels:
            raise ShapeMismatch(
                f"data has {data.shape[0]} rows but montage has {self.montage.n_channels} channels"
            )
        if data.shape[1] < 1:
            raise ShapeMismatch("recording must contain at least one sample")
        object.__setattr__(self, "fs", float(self.fs))
        if not np.all(np.isfinite(data)):
            raise NonFiniteData(
                f"recording {self.subject_id!r} contains non-finite {data.dtype} samples"
            )
        object.__setattr__(self, "data", _freeze(data))
        if self.label is not None:
            object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "provenance", tuple(str(p) for p in self.provenance))

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.data.shape[1] / self.fs

    def with_data(
        self,
        data: np.ndarray,
        note: Optional[str] = None,
        fs: Optional[float] = None,
        montage: Optional[Montage] = None,
    ) -> "Recording":
        """Derive a new recording, appending `note` to the provenance."""
        prov = self.provenance + ((note,) if note else ())
        return Recording(
            montage=montage if montage is not None else self.montage,
            fs=fs if fs is not None else self.fs,
            data=data,
            subject_id=self.subject_id,
            label=self.label,
            provenance=prov,
        )

    def pick(self, names: Sequence[str]) -> "Recording":
        """Select channels by name, in the requested order."""
        idx = [self.montage.index(n) for n in names]
        sub = Montage(names=tuple(names), positions=self.montage.positions[idx])
        return self.with_data(self.data[idx], note=f"pick:{','.join(names)}", montage=sub)


def narrow_recording(rec: Recording) -> Recording:
    """The recording with its samples narrowed to float32, as saved; a float32 one as is.

    Raises:
        NonFiniteData: a sample overflows float32.
    """
    if rec.data.dtype == np.dtype("<f4"):
        return rec
    with np.errstate(over="ignore"):  # the constructor reports an overflow
        return rec.with_data(rec.data.astype("<f4"))


def save_recording(rec: Recording, path: str, stage: Optional[Stage] = None) -> tuple[str]:
    """Commit `<stem>.eegb`: its header, then its float32 samples.

    Args:
        rec: Recording to store, narrowed to float32 by `narrow_recording`.
        path: The `.eegb` path, or that path without its extension.
        stage: Stage to write through instead of committing now.

    Returns:
        (path,) as written (see `_commit`).
    """
    stored = narrow_recording(rec)
    header = {
        "channels": list(stored.montage.names),
        "fs": stored.fs,
        "label": stored.label,
        "n_samples": stored.n_samples,
        "provenance": list(stored.provenance),
        "subject_id": stored.subject_id,
    }
    path = path if path.endswith(".eegb") else path + ".eegb"
    # the C-contiguous payload is written as a buffer, not copied
    return (_commit_frame(path, MAGIC, header, stored.data, stage=stage),)


def _recording_header(header: dict) -> dict:
    """header with each field checked: a wrong type, a name that is no file name or a channel
    outside the built-in 10-20 table is a ValueError. Any number passes as fs: `Recording`
    checks the rate."""
    subject_id, label = _subject(header)
    channels = check_value("channels", Key("names"), header["channels"], ValueError)
    unknown = [c for c in channels if _ALIASES.get(c, c) not in _BESA_1020]
    if unknown:
        raise ValueError(f"channels {unknown} are not in the built-in 10-20 table")
    return {
        "channels": channels,
        "fs": check_value("fs", Key("real", "[-inf, inf]"), header["fs"], ValueError),
        "label": label,
        "n_samples": check_value("n_samples", Key("int", "[0, inf)"), header["n_samples"],
                                 ValueError),
        "provenance": check_value("provenance", Key("strs"), header["provenance"], ValueError),
        "subject_id": subject_id,
    }


def read_recording_header(path: str) -> dict:
    """The checked header of the `.eegb` file at path, read without its payload."""
    with _framed(path, MAGIC, _HEADER_KEYS) as (header, _):
        return _decode(path, _recording_header, header)


def load_recording(path: str) -> Recording:
    """The float32 Recording stored by :func:`save_recording` at path, as stored.

    Channel order is taken from the header verbatim. The samples are a
    read-only view of the one buffer the payload is read into. A file that
    does not start with MAGIC is BadMagic, a header cut short or a payload
    of another size than declared ShapeMismatch, any other header IoFailure.
    """
    with _framed(path, MAGIC, _HEADER_KEYS) as (header, f):
        header = _decode(path, _recording_header, header)
        shape = (len(header["channels"]), header["n_samples"])
        payload = _payload(path, f, 4 * shape[0] * shape[1])
    return Recording(
        montage=standard_1020_montage(header["channels"]),
        fs=header["fs"],
        data=payload.view("<f4").reshape(shape),
        subject_id=header["subject_id"],
        label=header["label"],
        provenance=header["provenance"],
    )


def commit_segmentation(seg, stem: str, stage: Optional[Stage] = None) -> str:
    """Commit `<stem>.seg`, its header naming seg's subject_id and label.

    Args:
        seg: The Segmentation to store; at most MAX_STATES maps.
        stem: Target path without the extension.
        stage: Stage to write through instead of committing now.

    Returns:
        The path written (see `_commit`).
    """
    if seg.maps.k > MAX_STATES:
        raise ShapeMismatch(f"a .seg file holds at most {MAX_STATES} maps, got {seg.maps.k}")
    header = {
        "fs": seg.fs,
        "label": seg.label,
        "maps": seg.maps.to_json_dict(),
        "n_samples": seg.n_samples,
        "subject_id": seg.subject_id,
    }
    return _commit_frame(
        stem + ".seg", SEG_MAGIC, header, seg.states.astype(np.uint8).tobytes(),
        seg.corr.astype("<f8").tobytes(), seg.gfp.astype("<f8").tobytes(), stage=stage,
    )


def load_segmentation(path: str):
    """The Segmentation stored in a `.seg` file, with its subject_id and label.

    The header plus the decoded arrays pass through
    ``Segmentation.from_json_dict``.

    Raises:
        BadMagic: the file does not start with SEG_MAGIC.
        IoFailure: the header is not the JSON object of a segmentation:
            its fs is no positive number, or its subject_id or label is
            no file name.
        ShapeMismatch: the header or payload is cut short or too long.
    """
    from .microstates import Segmentation  # microstates imports this module

    with _framed(path, SEG_MAGIC, _SEG_HEADER_KEYS) as (header, f):
        n = check_value(f"{path!r}: n_samples", Key("int", "[1, inf)"), header["n_samples"],
                        IoFailure)
        check_value(f"{path!r}: fs", Key("real", "(0, inf)"), header["fs"], IoFailure)
        # one uint8 state and two float64 values per sample
        payload = _payload(path, f, 17 * n)
    subject_id, label = _decode(path, _subject, header)
    doc = {
        "fs": header["fs"],
        "maps": header["maps"],
        "states": payload[:n],
        "corr": np.frombuffer(payload, "<f8", n, n).astype(np.float64),
        "gfp": np.frombuffer(payload, "<f8", n, 9 * n).astype(np.float64),
        "subject_id": subject_id,
        "label": label,
    }
    return _decode(path, Segmentation.from_json_dict, doc)


@dataclass(frozen=True)
class FeatureTable:
    """Tabular features: one row per subject, fixed column order.

    Attributes:
        subject_ids: Unique row identifiers.
        y: (n,) integer class indices into class_names.
        class_names: Class label strings, index-aligned with y.
        feature_names: Column names, length F.
        values: (n, F) float64 matrix.
    """

    subject_ids: tuple[str, ...]
    y: np.ndarray
    class_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        ids = tuple(str(s) for s in self.subject_ids)
        object.__setattr__(self, "subject_ids", ids)
        if len(set(ids)) != len(ids):
            dupes = sorted({s for s in ids if ids.count(s) > 1})
            raise DuplicateSubject(f"duplicate subject ids: {dupes}")
        names = tuple(str(f) for f in self.feature_names)
        if len(set(names)) != len(names):
            dupes = sorted({f for f in names if names.count(f) > 1})
            raise ShapeMismatch(f"duplicate feature names: {dupes}")
        y = np.asarray(self.y, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ShapeMismatch("feature values must be 2-D")
        if len(ids) != vals.shape[0] or len(ids) != y.shape[0]:
            raise LengthMismatch(
                f"{len(ids)} subjects, {y.shape[0]} labels, {vals.shape[0]} rows"
            )
        if vals.shape[1] != len(names):
            raise ShapeMismatch(f"{vals.shape[1]} columns but {len(names)} feature names")
        if y.size and (y.min() < 0 or y.max() >= len(self.class_names)):
            raise ShapeMismatch("class index out of range")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteData("feature table contains non-finite values")
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "class_names", tuple(str(c) for c in self.class_names))
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path: str) -> None:
        """Commit `subject_id,label,<features...>` with round-trip floats."""
        rows = [["subject_id", "label", *self.feature_names]]
        rows += [[sid, self.class_names[self.y[i]], *(repr(float(v)) for v in self.values[i])]
                 for i, sid in enumerate(self.subject_ids)]
        _commit(path, _csv_text(rows).encode("utf-8"))


def _csv_text(rows: Iterable[Sequence]) -> str:
    """rows as CSV text, quoted where a field needs it and LF-terminated."""
    text = StringIO(newline="")
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def load_feature_table(path: str) -> FeatureTable:
    """Read a CSV written by :meth:`FeatureTable.to_csv`.

    Class names are the sorted distinct label strings; one that is no
    file name is an IoFailure.
    """
    try:
        rows = list(csv.reader(StringIO(_read(path).decode("utf-8"), newline="")))
        if not rows or len(rows[0]) < 3 or rows[0][:2] != ["subject_id", "label"]:
            raise ShapeMismatch(f"{path!r} is not a feature table (bad header)")
        feature_names = tuple(rows[0][2:])
        ids, labels, values = [], [], []
        for r in rows[1:]:
            if len(r) != 2 + len(feature_names):
                raise ShapeMismatch(f"{path!r}: row with {len(r)} fields, expected "
                                    f"{2 + len(feature_names)}")
            ids.append(r[0])
            labels.append(r[1])
            values.append([float(v) for v in r[2:]])
    except (csv.Error, ValueError) as e:  # UnicodeDecodeError is a ValueError
        raise IoFailure(f"{path!r} is not a UTF-8 table of numbers: {e}") from e
    class_names = tuple(
        check_value(f"{path!r} label", NAME, c, IoFailure) for c in sorted(set(labels))
    )
    lut = {c: i for i, c in enumerate(class_names)}
    return FeatureTable(
        subject_ids=tuple(ids),
        y=np.array([lut[s] for s in labels], dtype=np.int64),
        class_names=class_names,
        feature_names=feature_names,
        values=np.array(values, dtype=np.float64),
    )


def write_json(path: str, obj, stage: Optional[Stage] = None) -> str:
    """Commit obj as JSON with sorted keys and a two-space indent; returns the path written."""
    blob = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return _commit(path, blob, stage=stage)


def read_json(path: str):
    return _decode(path, _json, _read(path))


def load_json(path: str, decode: Callable):
    """decode of the JSON object at path; an object it cannot take apart is an IoFailure."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise IoFailure(f"{path!r} does not hold a JSON object")
    return _decode(path, decode, doc)
