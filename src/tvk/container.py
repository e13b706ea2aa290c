"""TVK1 binary container: streaming storage for samples and checkpoints.

File layout (all integers little-endian):

    magic   4 bytes         b"TVK1"
    header  u32 length + UTF-8 JSON:
              {"version": 1,
               "fields": [{"name": str, "dtype": str, "shape": [int, ...]}, ...],
               "n_records": int,
               "meta": {...}}        # seed, config, free-form metadata
    body    per record, per field (in header order):
              u64 payload length | u32 CRC32 of payload | raw array bytes

Every record carries the same field schema; arrays are written in C order
with the dtype stated in the header. The writer is given the record count up
front and writes the header once, ahead of the body. Only the dtypes listed
in ``_ALLOWED_DTYPES`` are storable: a bool field raises (store a mask as
uint8). The reader allows whitespace after the header JSON: datasets written
before the count went into the header up front end it with pad spaces. Once
the last record is read, any byte after it raises ``TrailingBytesError``.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAGIC = b"TVK1"
VERSION = 1

_ALLOWED_DTYPES = {"float32", "float64", "uint8", "int64"}


class ContainerError(Exception):
    """Base class for TVK1 container failures."""


class BadMagicError(ContainerError):
    """File does not start with the TVK1 magic."""


class VersionError(ContainerError):
    """Container version is not supported by this reader."""


class TruncatedError(ContainerError):
    """File ends inside a header or chunk."""


class ChecksumError(ContainerError):
    """Chunk payload does not match its CRC32."""


class TrailingBytesError(ContainerError):
    """File goes on after its last record."""


@dataclass(frozen=True)
class FieldSpec:
    name: str
    dtype: str
    shape: tuple[int, ...]

    def to_json(self) -> dict:
        return {"name": self.name, "dtype": self.dtype, "shape": list(self.shape)}

    @staticmethod
    def from_json(d: dict) -> "FieldSpec":
        if d["dtype"] not in _ALLOWED_DTYPES:
            raise ValueError(f"dtype {d['dtype']!r} not storable in TVK1")
        return FieldSpec(d["name"], d["dtype"], tuple(int(s) for s in d["shape"]))

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _schema(record: dict[str, np.ndarray]) -> list[FieldSpec]:
    fields = []
    for name, value in record.items():
        arr = np.asarray(value)
        if str(arr.dtype) not in _ALLOWED_DTYPES:
            raise ValueError(f"field {name!r}: dtype {arr.dtype} not storable in TVK1")
        fields.append(FieldSpec(name, str(arr.dtype), arr.shape))
    return fields


def write_container(
    path: str,
    records: Iterable[dict[str, np.ndarray]],
    n_records: int,
    meta: dict | None = None,
) -> None:
    """Write ``n_records`` records to a TVK1 file atomically (tmp file +
    rename).

    The schema is the first record's field names, dtypes and shapes, and
    every record must have exactly that schema. A schema mismatch or a count
    other than ``n_records`` raises ``ValueError`` and leaves no file.
    """
    it = iter(records)
    first = next(it, None)
    if first is None:
        raise ValueError("cannot write an empty container")
    fields = _schema(first)
    header = json.dumps({
        "version": VERSION,
        "fields": [fs.to_json() for fs in fields],
        "n_records": int(n_records),
        "meta": meta or {},
    }, sort_keys=True).encode("utf-8")

    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<I", len(header)) + header)
            count = 0
            for record in itertools.chain([first], it):
                count += 1
                if count > n_records:
                    raise ValueError(f"promised {n_records} records, got more")
                schema = _schema(record)
                if schema != fields:
                    raise ValueError(f"record {count - 1} has fields {schema}, "
                                     f"the first record has {fields}")
                for fs in fields:
                    payload = np.asarray(record[fs.name]).tobytes()
                    f.write(struct.pack("<QI", len(payload), zlib.crc32(payload)))
                    f.write(payload)
            if count != n_records:
                raise ValueError(f"promised {n_records} records, got {count}")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ContainerReader:
    """Streaming reader; holds one record in memory at a time."""

    def __init__(self, path: str):
        self.path = path
        self._f = open(path, "rb")
        try:
            magic = self._f.read(4)
            if len(magic) < 4 or magic != MAGIC:
                raise BadMagicError(f"{path}: not a TVK1 file (magic {magic!r})")
            raw_len = self._f.read(4)
            if len(raw_len) < 4:
                raise TruncatedError(f"{path}: truncated header length")
            (hlen,) = struct.unpack("<I", raw_len)
            hdr = self._f.read(hlen)
            if len(hdr) < hlen:
                raise TruncatedError(f"{path}: truncated header")
            try:
                header = json.loads(hdr.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise ContainerError(f"{path}: malformed header: {e}") from e
            if header.get("version") != VERSION:
                raise VersionError(
                    f"{path}: container version {header.get('version')!r}, "
                    f"reader supports {VERSION}"
                )
            try:  # the header has no checksum: a damaged schema fails here
                self.fields = [FieldSpec.from_json(d) for d in header["fields"]]
                names = [fs.name for fs in self.fields]
                if len(set(names)) != len(names):
                    raise ValueError(f"a field is named twice in {names}")
                self.n_records = int(header["n_records"])
                if self.n_records < 0:
                    raise ValueError(f"negative record count {self.n_records}")
            except (KeyError, TypeError, ValueError) as e:
                raise ContainerError(f"{path}: malformed header: {e!r}") from e
            self.meta = header.get("meta", {})
            self._body_start = self._f.tell()
        except BaseException:
            self._f.close()
            raise

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._f.close()

    def _read_chunk(self, fs: FieldSpec) -> np.ndarray:
        head = self._f.read(12)
        if len(head) < 12:
            raise TruncatedError(f"{self.path}: truncated chunk header ({fs.name})")
        plen, crc = struct.unpack("<QI", head)
        if plen != fs.nbytes:
            raise ContainerError(
                f"{self.path}: field {fs.name!r} chunk is {plen} bytes, "
                f"schema says {fs.nbytes}"
            )
        payload = self._f.read(plen)
        if len(payload) < plen:
            raise TruncatedError(f"{self.path}: truncated chunk payload ({fs.name})")
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise ChecksumError(f"{self.path}: CRC mismatch in field {fs.name!r}")
        return np.frombuffer(payload, dtype=fs.dtype).reshape(fs.shape)

    def __iter__(self) -> Iterator[dict[str, np.ndarray]]:
        self._f.seek(self._body_start)
        for _ in range(self.n_records):
            yield {fs.name: self._read_chunk(fs) for fs in self.fields}
        extra = os.fstat(self._f.fileno()).st_size - self._f.tell()
        if extra:
            raise TrailingBytesError(f"{self.path}: {extra} bytes after the last record")


def read_all(path: str) -> tuple[list[dict[str, np.ndarray]], dict]:
    """Load every record into memory. Convenience for small files."""
    with ContainerReader(path) as r:
        return list(r), r.meta


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Store a single named-array record (checkpoints, optimizer state)."""
    write_container(path, [arrays], 1, meta=meta)


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with ContainerReader(path) as r:
        if r.n_records != 1:
            raise ContainerError(f"{path}: {r.n_records} records, expected 1")
        (record,) = r
        return record, r.meta
