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
with the dtype stated in the header.
"""

from __future__ import annotations

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


def _schema_from_record(record: dict[str, np.ndarray]) -> list[FieldSpec]:
    fields = []
    for name in record:
        arr = np.asarray(record[name])
        dtype = str(arr.dtype)
        if dtype == "bool":
            dtype = "uint8"
        if dtype not in _ALLOWED_DTYPES:
            raise ValueError(f"field {name!r}: dtype {dtype} not storable in TVK1")
        fields.append(FieldSpec(name, dtype, arr.shape))
    return fields


def write_container(
    path: str,
    records: Iterable[dict[str, np.ndarray]],
    meta: dict | None = None,
    n_records: int | None = None,
) -> int:
    """Write records to a TVK1 file atomically (tmp file + rename).

    The schema is taken from the first record; every later record must
    match it exactly. Returns the number of records written. If
    ``n_records`` is given it is trusted for the header and verified at
    the end; otherwise the header is patched after the body is written.
    """
    it = iter(records)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("cannot write an empty container")
    fields = _schema_from_record(first)

    tmp = path + ".tmp"
    count = 0
    try:
        with open(tmp, "wb") as f:
            header = {
                "version": VERSION,
                "fields": [fs.to_json() for fs in fields],
                "n_records": -1 if n_records is None else int(n_records),
                "meta": meta or {},
            }
            header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
            if n_records is None:
                header_bytes += b" " * 16  # room to patch in the final count
            f.write(MAGIC)
            f.write(struct.pack("<I", len(header_bytes)))
            header_pos = f.tell()
            f.write(header_bytes)

            def emit(record: dict[str, np.ndarray]) -> None:
                for fs in fields:
                    if fs.name not in record:
                        raise ValueError(f"record missing field {fs.name!r}")
                    arr = np.asarray(record[fs.name])
                    if arr.dtype == np.bool_:
                        arr = arr.astype(np.uint8)
                    if not arr.flags["C_CONTIGUOUS"]:
                        arr = np.ascontiguousarray(arr)
                    if str(arr.dtype) != fs.dtype or arr.shape != fs.shape:
                        raise ValueError(
                            f"field {fs.name!r}: got {arr.dtype}{arr.shape}, "
                            f"schema says {fs.dtype}{fs.shape}"
                        )
                    payload = arr.tobytes()
                    f.write(struct.pack("<Q", len(payload)))
                    f.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
                    f.write(payload)

            emit(first)
            count = 1
            for record in it:
                emit(record)
                count += 1

            if n_records is None:
                # patch the record count in place, keeping the byte length
                header["n_records"] = count
                patched = json.dumps(header, sort_keys=True).encode("utf-8")
                pad = len(header_bytes) - len(patched)
                if pad < 0:  # pragma: no cover - 16 spare bytes cover any count
                    raise RuntimeError("header grew while patching")
                f.seek(header_pos)
                f.write(patched + b" " * pad)
            elif n_records != count:
                raise ValueError(f"promised {n_records} records, wrote {count}")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return count


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


def read_all(path: str) -> tuple[list[dict[str, np.ndarray]], dict]:
    """Load every record into memory. Convenience for small files."""
    with ContainerReader(path) as r:
        return list(r), r.meta


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Store a single named-array record (checkpoints, optimizer state)."""
    write_container(path, [arrays], meta=meta, n_records=1)


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with ContainerReader(path) as r:
        records = list(r)
        if len(records) != 1:
            raise ContainerError(f"{path}: {len(records)} records, expected 1")
        return records[0], r.meta
