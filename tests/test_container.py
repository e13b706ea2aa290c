import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tvk
from tvk.container import (
    BadMagicError,
    ChecksumError,
    ContainerError,
    ContainerReader,
    TrailingBytesError,
    TruncatedError,
    VersionError,
    load_arrays,
    read_all,
    save_arrays,
    write_container,
)


def make_records(n, rng):
    return [
        {
            "img": rng.uniform(size=(6, 8, 3)).astype(np.float32),
            "mask": (rng.uniform(size=(6, 8)) > 0.5).astype(np.uint8),
            "idx": np.array(i, dtype=np.int64),
        }
        for i in range(n)
    ]


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    records = make_records(5, rng)
    path = str(tmp_path / "data.tvk")
    write_container(path, records, 5, meta={"seed": 0, "note": "test"})
    back, meta = read_all(path)
    assert meta["seed"] == 0
    assert len(back) == 5
    for a, b in zip(records, back):
        assert a["img"].tobytes() == b["img"].tobytes()
        assert np.array_equal(a["mask"], b["mask"])
        assert int(b["idx"]) == int(a["idx"])


def test_deterministic_bytes(tmp_path):
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    p1 = str(tmp_path / "a.tvk")
    p2 = str(tmp_path / "b.tvk")
    write_container(p1, make_records(4, rng1), 4, meta={"seed": 3})
    write_container(p2, make_records(4, rng2), 4, meta={"seed": 3})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_generator_input_writes_the_promised_count(tmp_path):
    path = str(tmp_path / "gen.tvk")
    write_container(path, iter(make_records(12, np.random.default_rng(1))), 12)
    with ContainerReader(path) as r:
        assert r.n_records == 12
        assert sum(1 for _ in r) == 12


@pytest.mark.parametrize("n_yielded", [11, 13])
def test_a_count_other_than_the_promised_one_raises_and_leaves_no_file(
        tmp_path, n_yielded):
    path = str(tmp_path / "gen.tvk")
    records = iter(make_records(n_yielded, np.random.default_rng(1)))
    with pytest.raises(ValueError, match="promised 12 records"):
        write_container(path, records, 12)
    assert os.listdir(tmp_path) == []


def test_bad_magic(tmp_path):
    path = str(tmp_path / "bad.tvk")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        ContainerReader(path)


def test_version_mismatch(tmp_path):
    path = str(tmp_path / "v9.tvk")
    hdr = b'{"version": 9, "fields": [], "n_records": 0, "meta": {}}'
    with open(path, "wb") as f:
        f.write(b"TVK1" + struct.pack("<I", len(hdr)) + hdr)
    with pytest.raises(VersionError):
        ContainerReader(path)


def test_corrupt_crc(tmp_path):
    rng = np.random.default_rng(2)
    path = str(tmp_path / "c.tvk")
    write_container(path, make_records(3, rng), 3)
    data = bytearray(open(path, "rb").read())
    data[-1] ^= 0xFF  # flip a byte in the last payload
    open(path, "wb").write(bytes(data))
    with pytest.raises(ChecksumError):
        list(ContainerReader(path))


def test_truncated_chunk(tmp_path):
    rng = np.random.default_rng(4)
    path = str(tmp_path / "t.tvk")
    write_container(path, make_records(3, rng), 3)
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) - 40])
    with pytest.raises(TruncatedError):
        list(ContainerReader(path))


def test_truncated_header(tmp_path):
    path = str(tmp_path / "h.tvk")
    with open(path, "wb") as f:
        f.write(b"TVK1" + struct.pack("<I", 500) + b"{}")
    with pytest.raises(TruncatedError):
        ContainerReader(path)


def test_schema_mismatch_rejected(tmp_path):
    recs = [
        {"a": np.zeros((2, 2), np.float32)},
        {"a": np.zeros((2, 3), np.float32)},
    ]
    with pytest.raises(ValueError):
        write_container(str(tmp_path / "s.tvk"), recs, 2)
    assert not os.path.exists(str(tmp_path / "s.tvk"))
    assert not os.path.exists(str(tmp_path / "s.tvk.tmp"))


A22 = np.zeros((2, 2), np.float32)


@pytest.mark.parametrize("second, match", [
    ({"a": A22, "extra": A22}, "'a'.*'extra'.*the first record has.*'a'"),
    ({"b": A22}, "'b'.*the first record has.*'a'"),
    ({"a": A22.astype(np.float64)}, "float64.*the first record has.*float32"),
], ids=["extra", "renamed", "dtype"])
def test_later_record_with_other_fields_raises_naming_both(
        tmp_path, second, match):
    with pytest.raises(ValueError, match=match):
        write_container(str(tmp_path / "s.tvk"), [{"a": A22}, second], 2)
    assert os.listdir(tmp_path) == []


def test_bool_field_is_not_storable(tmp_path):
    with pytest.raises(ValueError, match="field 'mask': dtype bool"):
        write_container(str(tmp_path / "b.tvk"),
                        [{"mask": np.ones(3, dtype=bool)}], 1)
    assert os.listdir(tmp_path) == []


def _rewrite_header(path, edit):
    """Replace the header JSON of a TVK1 file by ``edit(header_bytes)``."""
    data = open(path, "rb").read()
    (hlen,) = struct.unpack("<I", data[4:8])
    header = edit(data[8:8 + hlen])
    with open(path, "wb") as f:
        f.write(data[:4] + struct.pack("<I", len(header)) + header
                + data[8 + hlen:])


def test_header_with_trailing_whitespace_loads(tmp_path):
    """Files written before the count went into the header up front end
    their header JSON with pad spaces."""
    path = str(tmp_path / "padded.tvk")
    arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    save_arrays(path, arrays, meta={"step": 7})
    _rewrite_header(path, lambda h: h + b" " * 16)
    back, meta = load_arrays(path)
    assert meta == {"step": 7}
    assert back["w"].tobytes() == arrays["w"].tobytes()


def test_field_named_twice_in_the_header_raises(tmp_path):
    path = str(tmp_path / "twice.tvk")
    save_arrays(path, {"w": np.zeros(2, np.float32),
                       "v": np.ones(2, np.float32)})
    _rewrite_header(path, lambda h: h.replace(b'"name": "w"', b'"name": "v"'))
    with pytest.raises(ContainerError, match="named twice"):
        load_arrays(path)


def test_every_truncation_and_bit_flip_loads_or_raises_container_error(
        tmp_path):
    """The header has no checksum, so a damaged one must fail as a
    ``ContainerError`` too (schema keys, dtype, record count)."""
    path = str(tmp_path / "small.tvk")
    save_arrays(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                       "b": np.array([1, -2], dtype=np.int64)},
                meta={"step": 7})
    data = open(path, "rb").read()
    truncated = [data[:n] for n in range(len(data))]
    flipped = [data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]
               for i in range(len(data)) for bit in range(8)]
    loaded = []
    for blob in truncated + flipped:
        with open(path, "wb") as f:
            f.write(blob)
        try:
            load_arrays(path)
            loaded.append(blob)
        except ContainerError:
            pass
    # a flip inside a name, the meta value or the JSON spacing still loads
    assert 0 < len(loaded) < len(flipped) // 4
    assert not set(loaded) & set(truncated)


def test_load_arrays_needs_exactly_one_record(tmp_path):
    path = str(tmp_path / "two.tvk")
    write_container(path, make_records(2, np.random.default_rng(5)), 2)
    with pytest.raises(ContainerError, match="2 records, expected 1"):
        load_arrays(path)


def test_bytes_after_the_last_record_raise_naming_their_count(tmp_path):
    one, two = str(tmp_path / "one.tvk"), str(tmp_path / "two.tvk")
    save_arrays(one, {"w": np.arange(6.0)})
    write_container(two, make_records(2, np.random.default_rng(6)), 2)
    for path in (one, two):
        with open(path, "ab") as f:
            f.write(bytes(70))
    with pytest.raises(TrailingBytesError, match="70 bytes after"):
        load_arrays(one)
    with pytest.raises(TrailingBytesError, match="70 bytes after"):
        read_all(two)
    with ContainerReader(two) as r:  # streaming: raised after the last one
        it = iter(r)
        assert [int(next(it)["idx"]) for _ in range(2)] == [0, 1]
        with pytest.raises(TrailingBytesError):
            next(it)


def test_checkpoint_arrays(tmp_path):
    path = str(tmp_path / "ckpt.tvk")
    arrays = {
        "net.w": np.arange(12, dtype=np.float64).reshape(3, 4),
        "net.b": np.zeros(4, dtype=np.float64),
    }
    save_arrays(path, arrays, meta={"step": 10})
    back, meta = load_arrays(path)
    assert meta["step"] == 10
    assert np.array_equal(back["net.w"], arrays["net.w"])


def test_streaming_memory_bound(tmp_path):
    """Reading a large file must not load it fully into memory."""
    path = str(tmp_path / "big.tvk")
    chunk = np.zeros((256, 1024), dtype=np.float32)  # 1 MiB per record

    def gen():
        for _ in range(128):  # 128 MiB total
            yield {"x": chunk}

    write_container(path, gen(), 128)
    assert os.path.getsize(path) > 128 * 2**20

    script = textwrap.dedent(
        """
        import resource, sys
        from tvk.container import ContainerReader
        n = 0
        with ContainerReader(sys.argv[1]) as r:
            for rec in r:
                n += 1
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(n, peak_mb)
        """
    )
    # the child imports the same tvk as this process, set PYTHONPATH or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", script, path],
        capture_output=True, text=True, check=True, env=env,
    )
    n, peak_mb = out.stdout.split()
    assert int(n) == 128
    # numpy import alone is ~60 MB; the file is 128 MB, so staying under
    # 110 MB proves record-at-a-time streaming
    assert float(peak_mb) < 110, f"peak RSS {peak_mb} MB"
