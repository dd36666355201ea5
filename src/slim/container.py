"""Bit-exact binary tensor container.

File layout, all multi-byte integers little-endian:

========  ======  =====================================================
offset    size    content
========  ======  =====================================================
0         8       magic bytes ``SLIMTNSR``
8         4       format version (u32), currently 1
12        8       header length H in bytes (u64)
20        H       UTF-8 JSON header
20 + H    ...     raw tensor data, row-major, little-endian
========  ======  =====================================================

The header maps tensor names to ``{"dtype", "shape", "offset", "nbytes"}``
where ``offset`` is relative to the start of the data section. Supported
dtypes: ``f32``, ``i8``, ``u8``. Readers reject bad magic, unknown
versions, malformed or self-inconsistent headers, and data sections
shorter than the header promises, each with a dedicated error type; no
malformed input may escalate past those errors. A reader checks every
header entry, then reads only the tensors it was asked for, each straight
into its own array. Files and bytes in memory share one writer, which
streams each tensor from its own buffer, and one reader.

A weight need not be read whole: :func:`_tensor_source` opens one 2-D
tensor of a file as a :class:`~slim.tensor.BlockSource`.

The header, the JSON records stored alongside the tensors (artifact and
calibration metadata) and architecture files are parsed by
:func:`_parse_json` and read with :func:`_from_fields`, which accepts
exactly a dataclass's fields, each of the JSON type the writer emits for
it.
"""

from __future__ import annotations

import io
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    CorruptHeader,
    IoError,
    NonFinite,
    SchemaViolation,
    TruncatedData,
    UnsupportedVersion,
)
from .tensor import BlockSource, row_blocks

__all__ = [
    "MAGIC",
    "VERSION",
    "container_to_bytes",
    "container_from_bytes",
    "write_container",
    "read_container",
]

MAGIC = b"SLIMTNSR"
VERSION = 1

_HEADER_PREFIX = struct.Struct("<8sIQ")

# dtype tag -> (numpy dtype, itemsize)
_DTYPES = {
    "f32": np.dtype("<f4"),
    "i8": np.dtype("i1"),
    "u8": np.dtype("u1"),
}


def _tag_for(arr: np.ndarray) -> str:
    if arr.dtype.kind == "f":
        return "f32"
    if arr.dtype.kind in "iu" and arr.dtype.itemsize == 1:
        return arr.dtype.kind + "8"
    raise SchemaViolation(f"unsupported dtype {arr.dtype}; containers hold f32, i8 or u8")


def _write_tensors(f, tensors: dict) -> None:
    """Write the container of ``tensors`` to the binary stream ``f``: the
    header, once every name and dtype is checked, then each tensor from its
    own buffer (or its one copy in the stored dtype)."""
    header = {}
    stored = []
    offset = 0
    for name, value in tensors.items():
        if not isinstance(name, str) or not name:
            raise SchemaViolation(f"tensor name must be a non-empty string, got {name!r}")
        arr = np.asarray(value)
        tag = _tag_for(arr)
        nbytes = arr.size * _DTYPES[tag].itemsize
        header[name] = {"dtype": tag, "shape": list(arr.shape), "offset": offset, "nbytes": nbytes}
        stored.append((arr, _DTYPES[tag]))
        offset += nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    f.write(_HEADER_PREFIX.pack(MAGIC, VERSION, len(header_bytes)))
    f.write(header_bytes)
    for arr, dtype in stored:
        f.write(np.ascontiguousarray(arr, dtype=dtype).reshape(-1).view(np.uint8))


def container_to_bytes(tensors: dict) -> bytes:
    """Serialize a name-to-array mapping to container bytes.

    Float arrays of any width are stored as f32; int8/uint8 pass through.
    Insertion order of the mapping determines data layout, and the header
    JSON is emitted with sorted keys and no whitespace, so equal inputs
    always produce identical bytes, those :func:`write_container` writes.
    """
    buf = io.BytesIO()
    _write_tensors(buf, tensors)
    return buf.getvalue()


def _read_exact(f, buf, what: str) -> None:
    """Fill ``buf`` from ``f``, resuming short reads; TruncatedData if ``f`` ends first."""
    view = memoryview(buf).cast("B")
    while view:
        n = f.readinto(view)
        if not n:
            raise TruncatedData(f"stream ended inside {what}")
        view = view[n:]


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _checked_entries(header, data_len: int) -> list[tuple]:
    """``(offset, nbytes, name, dtype, shape)`` of every header entry, in
    data-section order, each checked against a data section of
    ``data_len`` bytes and against the others."""
    if not isinstance(header, dict):
        raise CorruptHeader("header must be a JSON object")
    entries = []
    for name, entry in header.items():
        if not isinstance(entry, dict):
            raise CorruptHeader(f"entry for {name!r} is not an object")
        try:
            tag = entry["dtype"]
            shape = entry["shape"]
            offset = entry["offset"]
            nbytes = entry["nbytes"]
        except (KeyError, TypeError) as exc:
            raise CorruptHeader(f"entry for {name!r} is missing fields") from exc
        if tag not in _DTYPES:
            raise CorruptHeader(f"entry for {name!r} has unknown dtype {tag!r}")
        if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
            raise CorruptHeader(f"entry for {name!r} has a bad shape")
        if not _is_count(offset) or not _is_count(nbytes):
            raise CorruptHeader(f"entry for {name!r} has bad offset/nbytes")
        dtype = _DTYPES[tag]
        count = 1
        for s in shape:
            count *= s
        if nbytes != count * dtype.itemsize:
            raise CorruptHeader(
                f"entry for {name!r}: nbytes {nbytes} != shape product {count} * {dtype.itemsize}"
            )
        if offset + nbytes > data_len:
            raise TruncatedData(
                f"tensor {name!r} needs bytes [{offset}, {offset + nbytes}), "
                f"data section has {data_len}"
            )
        entries.append((offset, nbytes, name, dtype, shape))
    entries.sort(key=lambda e: e[:3])
    for (a0, a_n, an, *_), (b0, _, bn, *_) in zip(entries, entries[1:]):
        if b0 < a0 + a_n:
            raise CorruptHeader(f"tensors {an!r} and {bn!r} overlap in the data section")
    return entries


def _checked_header(f) -> tuple[int, list[tuple]]:
    """Data start and checked entries of the container in the stream ``f``."""
    size = f.seek(0, os.SEEK_END)
    if size < _HEADER_PREFIX.size:
        raise BadMagic("file too short for container prefix")
    f.seek(0)
    prefix = bytearray(_HEADER_PREFIX.size)
    _read_exact(f, prefix, "the prefix")
    magic, version, header_len = _HEADER_PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise BadMagic(f"bad magic bytes {magic!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"container version {version}, reader supports {VERSION}")
    data_start = _HEADER_PREFIX.size + header_len
    if data_start > size:
        raise CorruptHeader(
            f"header claims {header_len} bytes, only {size - _HEADER_PREFIX.size} available"
        )
    raw = bytearray(header_len)
    _read_exact(f, raw, "the header")
    header = _parse_json(raw, CorruptHeader, "header")
    return data_start, _checked_entries(header, size - data_start)


def _read_tensors(f, names) -> dict:
    """Tensors of the container in the seekable binary stream ``f``.

    The whole header is checked before any tensor is read; then only the
    tensors in ``names`` (all when None) are read, each straight into its
    own array.
    """
    data_start, entries = _checked_header(f)
    wanted = None if names is None else set(names)
    tensors = {}
    # data-section order, so a read/serialize round trip assigns the same
    # offsets and reproduces the payload bit for bit
    for offset, _, name, dtype, shape in entries:
        if wanted is None or name in wanted:
            arr = np.empty(shape, dtype)
            f.seek(data_start + offset)
            _read_exact(f, arr.reshape(-1).view(np.uint8), f"tensor {name!r}")
            tensors[name] = arr
    return tensors


def container_from_bytes(payload, names=None) -> dict:
    """Parse container bytes back into a name-to-array mapping.

    Reads exactly as :func:`read_container` does, from a bytes-like
    ``payload`` instead of a file.

    Raises:
        BadMagic: wrong magic bytes (or input too short to hold them).
        UnsupportedVersion: version field is not 1.
        CorruptHeader: header malformed, or entries are self-inconsistent
            (bad dtype/shape/offset, size mismatch, overlapping ranges).
        TruncatedData: data section shorter than the header describes.
    """
    return _read_tensors(io.BytesIO(payload), names)


# JSON types for each field annotation. bool is a subclass of int in Python,
# so a bool matches only "bool": `true` is neither a count nor a version.
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str, "None": type(None)}


def _json_typed(value, annotation: str) -> bool:
    """Whether ``value`` has a JSON type the writer emits for ``annotation``."""
    names = annotation.split(" | ")
    if isinstance(value, bool):
        return "bool" in names
    return isinstance(value, tuple(_JSON_TYPES[n] for n in names))


def _parse_json(raw: bytes, error: type[Exception], what: str):
    """The JSON document in the UTF-8 bytes ``raw``; an object may not
    repeat a key.

    Raises:
        error: ``raw`` is not UTF-8 or not JSON, repeats a key, or nests
            deeper than the parser's recursion limit; the message starts
            ``bad {what}:``.
    """
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return json.loads(bytes(raw).decode("utf-8"), object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:
        raise error(f"bad {what}: {exc}") from exc


def _from_fields(cls, raw, ignored=(), **values):
    """``cls`` built from a JSON object holding exactly the fields of ``cls``
    that ``values`` does not give, each of its field's JSON type; the
    object may also hold ``ignored`` keys.

    Raises:
        SchemaViolation: ``raw`` is not such an object.
    """
    names = {f.name for f in fields(cls)} - set(values)
    if not isinstance(raw, dict) or set(raw) - set(ignored) != names:
        raise SchemaViolation(f"{cls.__name__} record must hold exactly the keys {sorted(names)}")
    for f in fields(cls):
        if f.name in names and not _json_typed(raw[f.name], f.type):
            raise SchemaViolation(f"{cls.__name__}.{f.name} must be {f.type}, got {raw[f.name]!r}")
    return cls(**{n: raw[n] for n in names}, **values)


def write_container(path, tensors: dict) -> None:
    """Write tensors to ``path`` in the container format.

    The bytes stream, one tensor at a time, to a temporary file in the
    same directory, which then replaces ``path`` in one rename: a write
    that fails or is interrupted leaves ``path`` as it was and no
    temporary file behind.

    Raises:
        IoError: the underlying file operation failed.
        SchemaViolation: a tensor has an unsupported dtype or bad name.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    try:
        try:
            with open(tmp, "xb") as f:  # created under the umask, as the target would be
                _write_tensors(f, tensors)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_container(path, names=None) -> dict:
    """Read a container file; inverse of :func:`write_container`.

    Every header entry is validated against the file, selected or not,
    but only the tensors in ``names`` (all when None) are read, in
    data-section order. A name the container does not hold is absent
    from the result.

    Raises:
        IoError: the file cannot be read.
        BadMagic / UnsupportedVersion / CorruptHeader / TruncatedData:
            the file is not a valid container.
    """
    return _reading(path, lambda f: _read_tensors(f, names))


def _read_shapes(path) -> dict:
    """Name to shape tuple of every tensor of a container file, in
    data-section order. The header is validated, and errors raised, as by
    :func:`read_container`; no tensor is read."""
    return _reading(path, lambda f: {n: tuple(s) for *_, n, _, s in _checked_header(f)[1]})


def _reading(path, read):
    """``read(f)`` for ``path`` opened unbuffered; any ``OSError`` becomes an :class:`IoError`."""
    try:
        with open(path, "rb", buffering=0) as f:
            return read(f)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _tensor_source(path, name: str):
    """The :class:`~slim.tensor.BlockSource` of the 2-D tensor ``name`` of
    the container file at ``path``, with the file open until the ``with``
    block ends. The header is checked as :func:`read_container` checks it.
    Each block is a new float64 array, filled a row block at a time through
    one buffer of the stored dtype (whole rows in one read, other columns
    one row's span at a time), each checked for NaN and Inf. Errors name
    the tensor ``w``, as :func:`~slim.tensor.as_float_matrix` names a weight.

    Raises:
        IoError: the file cannot be opened or read.
        BadMagic / UnsupportedVersion / CorruptHeader / TruncatedData:
            the file is not a valid container.
        SchemaViolation: the container holds no tensor ``name``.
        ShapeMismatch / EmptyTensor: the tensor is not 2-D, or is empty.
        NonFinite: (from ``read``) the block holds NaN or Inf.
    """
    def checked(io_call):  # an OSError of the file becomes an IoError
        try:
            return io_call()
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc

    with checked(lambda: open(path, "rb", buffering=0)) as f:
        data_start, entries = checked(lambda: _checked_header(f))
        found = [(offset, dtype, shape) for offset, _, n, dtype, shape in entries if n == name]
        if not found:
            raise SchemaViolation(f"{path} has no tensor named {name!r}")
        offset, dtype, shape = found[0]
        start, what = data_start + offset, f"tensor {name!r}"

        def fill(block: np.ndarray, r0: int, c0: int) -> None:
            if block.size == 0:
                return
            data = memoryview(block).cast("B")  # block is C-contiguous
            span = len(data) if block.shape[1] == n_cols else len(data) // len(block)  # whole rows, or each row
            for i, at in enumerate(range(0, len(data), span)):
                f.seek(start + ((r0 + i) * n_cols + c0) * dtype.itemsize)
                _read_exact(f, data[at: at + span], what)

        def read(rows: slice, cols: slice) -> np.ndarray:
            r0, r1, _ = rows.indices(n_rows)
            c0, c1, _ = cols.indices(n_cols)
            out = np.empty((max(r1 - r0, 0), max(c1 - c0, 0)))
            height = min(next(row_blocks(out), slice(0)).stop, len(out))
            stage = np.empty((height, out.shape[1]), dtype)  # one row block, in the stored dtype
            for piece in row_blocks(out):
                block = stage[: len(out[piece])]
                checked(lambda: fill(block, r0 + piece.start, c0))
                if not np.isfinite(block).all():
                    raise NonFinite("w contains NaN or Inf")
                out[piece] = block
            return out

        source = BlockSource(read, shape)  # ShapeMismatch / EmptyTensor unless 2-D and non-empty
        n_rows, n_cols = source.shape  # the checked shape, which read and fill use
        yield source
