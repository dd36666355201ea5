import io
import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slim import (
    BadMagic,
    CorruptHeader,
    EmptyTensor,
    IoError,
    NonFinite,
    SchemaViolation,
    ShapeMismatch,
    TruncatedData,
    UnsupportedVersion,
    read_container,
    write_container,
)
from slim import container
from slim.container import MAGIC, VERSION, container_from_bytes, container_to_bytes

PREFIX = struct.Struct("<8sIQ")


def raw_payload(header_obj, data: bytes, magic=MAGIC, version=VERSION, header_bytes=None):
    """Assemble container bytes by hand for corruption tests."""
    if header_bytes is None:
        header_bytes = json.dumps(header_obj).encode("utf-8")
    return PREFIX.pack(magic, version, len(header_bytes)) + header_bytes + data


def entry(dtype, shape, offset, nbytes):
    return {"dtype": dtype, "shape": shape, "offset": offset, "nbytes": nbytes}


class TestByteLayout:
    def test_single_f32_tensor_layout(self):
        w = np.arange(4, dtype=np.float32).reshape(2, 2)
        payload = container_to_bytes({"w": w})
        assert payload[:8] == b"SLIMTNSR"
        version, header_len = struct.unpack_from("<IQ", payload, 8)
        assert version == 1
        header = json.loads(payload[20 : 20 + header_len].decode("utf-8"))
        assert header == {
            "w": {"dtype": "f32", "shape": [2, 2], "offset": 0, "nbytes": 16}
        }
        assert len(payload) == 20 + header_len + 16
        assert payload[20 + header_len :] == w.tobytes()

    def test_data_offsets_follow_insertion_order(self):
        a = np.zeros(3, dtype=np.int8)
        b = np.zeros((2, 2), dtype=np.float32)
        payload = container_to_bytes({"a": a, "b": b})
        _, header_len = struct.unpack_from("<IQ", payload, 8)
        header = json.loads(payload[20 : 20 + header_len])
        assert header["a"]["offset"] == 0
        assert header["b"]["offset"] == 3
        assert len(payload) == 20 + header_len + 3 + 16

    def test_serialization_deterministic(self):
        t = {"x": np.ones((4, 4), dtype=np.float32), "y": np.arange(3, dtype=np.int8)}
        assert container_to_bytes(t) == container_to_bytes(t)

    def test_empty_map(self):
        payload = container_to_bytes({})
        assert container_from_bytes(payload) == {}
        _, header_len = struct.unpack_from("<IQ", payload, 8)
        assert payload[20 : 20 + header_len] == b"{}"


class TestRoundTrip:
    def test_mixed_dtypes(self):
        rng = np.random.default_rng(80)
        tensors = {
            "f": rng.standard_normal((5, 7)).astype(np.float32),
            "i": rng.integers(-128, 128, (3, 2), dtype=np.int8),
            "u": rng.integers(0, 256, 11, dtype=np.uint8),
        }
        back = container_from_bytes(container_to_bytes(tensors))
        assert set(back) == set(tensors)
        for name in tensors:
            assert back[name].dtype == tensors[name].dtype
            assert np.array_equal(back[name], tensors[name])

    def test_float64_stored_as_f32(self):
        x = np.array([[1.0, 2.0]], dtype=np.float64)
        back = container_from_bytes(container_to_bytes({"x": x}))
        assert back["x"].dtype == np.dtype("<f4")
        assert np.array_equal(back["x"], x.astype(np.float32))

    def test_zero_size_and_scalar_shapes(self):
        tensors = {
            "empty": np.zeros((0, 3), dtype=np.float32),
            "scalar": np.float32(2.5),
            "vec": np.array([1, 2, 3], dtype=np.uint8),
        }
        back = container_from_bytes(container_to_bytes(tensors))
        assert back["empty"].shape == (0, 3)
        assert back["scalar"].shape == ()
        assert back["scalar"] == np.float32(2.5)

    def test_bytes_bit_identical_after_round_trip(self):
        rng = np.random.default_rng(81)
        tensors = {
            "a": rng.standard_normal((8, 8)).astype(np.float32),
            "b": rng.integers(-5, 5, (4, 4), dtype=np.int8),
        }
        p1 = container_to_bytes(tensors)
        p2 = container_to_bytes(container_from_bytes(p1))
        assert p1 == p2

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=12,
            ),
            st.tuples(
                st.sampled_from(["f32", "i8", "u8"]),
                st.lists(st.integers(0, 5), min_size=0, max_size=3),
                st.integers(0, 2**32),
            ),
            max_size=5,
        )
    )
    def test_property_round_trip(self, spec):
        tensors = {}
        for name, (tag, shape, seed) in spec.items():
            rng = np.random.default_rng(seed)
            if tag == "f32":
                tensors[name] = rng.standard_normal(shape).astype(np.float32)
            elif tag == "i8":
                tensors[name] = rng.integers(-128, 128, shape, dtype=np.int8)
            else:
                tensors[name] = rng.integers(0, 256, shape, dtype=np.uint8)
        back = container_from_bytes(container_to_bytes(tensors))
        assert set(back) == set(tensors)
        for name in tensors:
            assert back[name].dtype == tensors[name].dtype
            assert back[name].shape == tensors[name].shape
            assert np.array_equal(back[name], tensors[name])


class TestTypedErrors:
    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            container_from_bytes(raw_payload({}, b"", magic=b"NOTMAGIC"))

    def test_too_short_for_prefix(self):
        with pytest.raises(BadMagic):
            container_from_bytes(b"SLIM")
        with pytest.raises(BadMagic):
            container_from_bytes(b"")

    def test_unsupported_version(self):
        with pytest.raises(UnsupportedVersion):
            container_from_bytes(raw_payload({}, b"", version=2))
        with pytest.raises(UnsupportedVersion):
            container_from_bytes(raw_payload({}, b"", version=0))

    def test_header_length_past_end(self):
        good = container_to_bytes({"x": np.zeros(2, dtype=np.uint8)})
        tampered = good[:12] + struct.pack("<Q", 10**6) + good[20:]
        with pytest.raises(CorruptHeader):
            container_from_bytes(tampered)

    def test_header_not_json(self):
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(None, b"", header_bytes=b"{nope"))

    def test_header_not_utf8(self):
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(None, b"", header_bytes=b"\xff\xfe{}"))

    def test_header_not_object(self):
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(None, b"", header_bytes=b"[1,2]"))

    def test_header_deeply_nested(self):
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(None, b"", header_bytes=b"[" * 100_000))

    def test_duplicate_tensor_names(self):
        dup = b'{"a":{"dtype":"u8","shape":[1],"offset":0,"nbytes":1},' \
              b'"a":{"dtype":"u8","shape":[1],"offset":0,"nbytes":1}}'
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(None, b"\x00", header_bytes=dup))

    def test_entry_not_object(self):
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload({"a": 7}, b""))

    def test_entry_missing_fields(self):
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload({"a": {"dtype": "u8"}}, b""))

    def test_unknown_dtype(self):
        h = {"a": entry("f64", [1], 0, 8)}
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(h, b"\x00" * 8))

    @pytest.mark.parametrize(
        "shape", [[-1], [1.5], [True], "nope", [[1]], {"x": 1}]
    )
    def test_bad_shape(self, shape):
        h = {"a": entry("u8", shape, 0, 1)}
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(h, b"\x00" * 4))

    @pytest.mark.parametrize("offset", [-1, 0.5, True, "0", None])
    def test_bad_offset(self, offset):
        h = {"a": entry("u8", [1], offset, 1)}
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(h, b"\x00" * 4))

    def test_nbytes_shape_mismatch(self):
        h = {"a": entry("f32", [2, 2], 0, 15)}
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(h, b"\x00" * 16))

    def test_truncated_data(self):
        h = {"a": entry("f32", [4], 0, 16)}
        with pytest.raises(TruncatedData):
            container_from_bytes(raw_payload(h, b"\x00" * 15))

    def test_truncating_valid_payload(self):
        good = container_to_bytes({"x": np.zeros((8, 8), dtype=np.float32)})
        with pytest.raises(TruncatedData):
            container_from_bytes(good[:-1])

    def test_overlapping_tensors(self):
        h = {
            "a": entry("u8", [4], 0, 4),
            "b": entry("u8", [4], 2, 4),
        }
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(h, b"\x00" * 6))

    def test_shared_offset_zero_overlap(self):
        h = {
            "a": entry("u8", [4], 0, 4),
            "b": entry("u8", [4], 0, 4),
        }
        with pytest.raises(CorruptHeader):
            container_from_bytes(raw_payload(h, b"\x00" * 4))

    def test_fuzz_smoke_only_typed_errors(self):
        rng = np.random.default_rng(82)
        base = bytearray(
            container_to_bytes(
                {
                    "w": rng.standard_normal((4, 4)).astype(np.float32),
                    "m": rng.integers(0, 2, 16, dtype=np.uint8),
                }
            )
        )
        for _ in range(300):
            mutated = bytearray(base)
            for _ in range(rng.integers(1, 8)):
                mutated[rng.integers(0, len(mutated))] = rng.integers(0, 256)
            try:
                container_from_bytes(bytes(mutated))
            except (BadMagic, UnsupportedVersion, CorruptHeader, TruncatedData):
                pass  # typed rejection is the contract


class TestFileIo:
    def test_write_read(self, tmp_path):
        p = tmp_path / "t.slim"
        tensors = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
        write_container(p, tensors)
        back = read_container(p)
        assert np.array_equal(back["x"], tensors["x"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_container(tmp_path / "absent.slim")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            write_container(tmp_path / "no" / "such" / "dir.slim", {})

    @pytest.mark.parametrize("existing", [True, False])
    @pytest.mark.parametrize(
        "error, raised", [(OSError(28, "No space left on device"), IoError),
                          (KeyboardInterrupt(), KeyboardInterrupt)]
    )
    def test_interrupted_write_leaves_nothing(self, tmp_path, monkeypatch, existing, error, raised):
        p = tmp_path / "t.slim"
        if existing:
            write_container(p, {"x": np.arange(4, dtype=np.float32)})
        before = sorted(tmp_path.iterdir()), p.read_bytes() if existing else None

        class HalfWrite(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[: len(data) // 2])
                raise error

        monkeypatch.setattr(container, "open", HalfWrite, raising=False)
        with pytest.raises(raised):
            write_container(p, {"y": np.ones(1000, dtype=np.float32)})
        assert (sorted(tmp_path.iterdir()), p.read_bytes() if existing else None) == before

    def test_both_sinks_write_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(86)
        tensors = {
            "big_endian": rng.standard_normal((4, 6)).astype(">f8"),
            "fortran": np.asfortranarray(rng.standard_normal((5, 3)).astype(np.float32)),
            "strided": rng.standard_normal((6, 8))[::2, ::3],
            "empty": np.zeros((0, 4), dtype=np.float32),
            "scalar": np.float64(2.5),
            "zero_d": np.array(-1.0, dtype=np.float16),
            "codes": rng.integers(-128, 128, (3, 7), dtype=np.int8),
            "mask": rng.integers(0, 256, 9, dtype=np.uint8),
        }
        p = tmp_path / "t.slim"
        write_container(p, tensors)
        payload = container_to_bytes(tensors)
        assert p.read_bytes() == payload
        back = container_from_bytes(payload)
        for name, value in tensors.items():
            expected = np.asarray(value)
            assert back[name].shape == expected.shape
            assert np.array_equal(back[name], expected.astype(back[name].dtype))
        assert container_to_bytes({}) == PREFIX.pack(MAGIC, VERSION, 2) + b"{}"

    def test_file_writer_holds_no_payload_sized_buffer(self, tmp_path):
        w = np.random.default_rng(87).standard_normal((1024, 2048)).astype(np.float32)
        tracemalloc.start()
        try:
            write_container(tmp_path / "w.slim", {"w": w, "b": w[:8]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the f32 payload goes to the file from its own buffer; a bytes
        # copy of it would be 8 MiB
        assert peak < w.nbytes // 8
        assert (tmp_path / "w.slim").read_bytes() == container_to_bytes({"w": w, "b": w[:8]})

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(SchemaViolation):
            container_to_bytes({"x": np.zeros(3, dtype=np.int32)})

    def test_bad_names_rejected(self):
        with pytest.raises(SchemaViolation):
            container_to_bytes({"": np.zeros(1, dtype=np.uint8)})
        with pytest.raises(SchemaViolation):
            container_to_bytes({7: np.zeros(1, dtype=np.uint8)})


# ---------------------------------------------------------------------------
# One reader for bytes and files, with and without a tensor selection


def _malformed_cases() -> dict:
    """Every malformed input of TestTypedErrors, with the error it must raise."""
    good = container_to_bytes({"x": np.zeros(2, dtype=np.uint8)})
    u8 = entry("u8", [1], 0, 1)
    cases = {
        "bad_magic": (raw_payload({}, b"", magic=b"NOTMAGIC"), BadMagic),
        "short_prefix": (b"SLIM", BadMagic),
        "empty": (b"", BadMagic),
        "version_2": (raw_payload({}, b"", version=2), UnsupportedVersion),
        "version_0": (raw_payload({}, b"", version=0), UnsupportedVersion),
        "header_past_end": (good[:12] + struct.pack("<Q", 10**6) + good[20:], CorruptHeader),
        "header_not_json": (raw_payload(None, b"", header_bytes=b"{nope"), CorruptHeader),
        "header_not_utf8": (raw_payload(None, b"", header_bytes=b"\xff\xfe{}"), CorruptHeader),
        "header_not_object": (raw_payload(None, b"", header_bytes=b"[1,2]"), CorruptHeader),
        "header_deeply_nested": (raw_payload(None, b"", header_bytes=b"[" * 100_000),
                                 CorruptHeader),
        "duplicate_names": (raw_payload(None, b"\x00", header_bytes=(
            b'{"a":{"dtype":"u8","shape":[1],"offset":0,"nbytes":1},'
            b'"a":{"dtype":"u8","shape":[1],"offset":0,"nbytes":1}}')), CorruptHeader),
        "entry_not_object": (raw_payload({"a": 7}, b""), CorruptHeader),
        "entry_missing_fields": (raw_payload({"a": {"dtype": "u8"}}, b""), CorruptHeader),
        "unknown_dtype": (raw_payload({"a": entry("f64", [1], 0, 8)}, b"\x00" * 8),
                          CorruptHeader),
        "nbytes_shape_mismatch": (raw_payload({"a": entry("f32", [2, 2], 0, 15)}, b"\x00" * 16),
                                  CorruptHeader),
        "truncated_data": (raw_payload({"a": entry("f32", [4], 0, 16)}, b"\x00" * 15),
                           TruncatedData),
        "truncating_valid_payload": (
            container_to_bytes({"x": np.zeros((8, 8), dtype=np.float32)})[:-1], TruncatedData),
        "overlapping": (raw_payload({"a": entry("u8", [4], 0, 4), "b": entry("u8", [4], 2, 4)},
                                    b"\x00" * 6), CorruptHeader),
        "shared_offset": (raw_payload({"a": entry("u8", [4], 0, 4), "b": entry("u8", [4], 0, 4)},
                                      b"\x00" * 4), CorruptHeader),
        # a valid entry beside a bad one that a selection of "ok" skips
        "unselected_truncated": (raw_payload({"ok": u8, "a": entry("u8", [4], 1, 4)},
                                             b"\x00" * 4), TruncatedData),
        "unselected_bad_dtype": (raw_payload({"ok": u8, "a": entry("f16", [1], 1, 2)},
                                             b"\x00" * 3), CorruptHeader),
        "unselected_overlap": (raw_payload({"ok": u8, "a": entry("u8", [2], 1, 2),
                                            "b": entry("u8", [2], 2, 2)}, b"\x00" * 4),
                               CorruptHeader),
    }
    for i, shape in enumerate([[-1], [1.5], [True], "nope", [[1]], {"x": 1}]):
        cases[f"bad_shape_{i}"] = (raw_payload({"a": entry("u8", shape, 0, 1)}, b"\x00" * 4),
                                   CorruptHeader)
    for i, offset in enumerate([-1, 0.5, True, "0", None]):
        cases[f"bad_offset_{i}"] = (raw_payload({"a": entry("u8", [1], offset, 1)}, b"\x00" * 4),
                                    CorruptHeader)
    return cases


MALFORMED = _malformed_cases()
SELECTIONS = [None, [], ["ok"], ["a"], ["absent"]]


def read_via(reader: str, payload: bytes, names, tmp_path) -> dict:
    """Read ``payload`` with ``container_from_bytes`` (from bytes or a
    memoryview) or with ``read_container`` on a written file."""
    if reader == "file":
        p = tmp_path / "c.slim"
        p.write_bytes(payload)
        return read_container(p, names)
    if reader == "memoryview":
        payload = memoryview(bytearray(payload))
    return container_from_bytes(payload, names)


READERS = ["bytes", "memoryview", "file"]


def unbuffered(file_class):
    """An ``open`` that returns an unbuffered ``file_class`` object."""
    def opener(file, mode="r", buffering=-1):
        assert buffering == 0
        return file_class(file, mode)
    return opener


class CountingFile(io.FileIO):
    """A raw file that records the byte span of every read."""

    spans: list = []

    def readinto(self, buf):
        start = self.tell()
        n = super().readinto(buf)
        CountingFile.spans.append((start, start + (n or 0)))
        return n


class TestOneReader:
    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_typed_error(self, case, reader, tmp_path):
        payload, error = MALFORMED[case]
        for names in SELECTIONS:
            with pytest.raises(error):
                read_via(reader, payload, names, tmp_path)

    @pytest.mark.parametrize("reader", ["memoryview", "file"])
    def test_fuzz_smoke_agrees_with_bytes_reader(self, reader, tmp_path):
        rng = np.random.default_rng(83)
        base = bytearray(
            container_to_bytes(
                {
                    "w": rng.standard_normal((4, 4)).astype(np.float32),
                    "m": rng.integers(0, 2, 16, dtype=np.uint8),
                }
            )
        )
        typed = (BadMagic, UnsupportedVersion, CorruptHeader, TruncatedData)
        for i in range(300):
            mutated = bytearray(base)
            for _ in range(rng.integers(1, 8)):
                mutated[rng.integers(0, len(mutated))] = rng.integers(0, 256)
            names = [None, [], ["w"], ["m"], ["absent"]][i % 5]
            outcomes = []
            for how in ("bytes", reader):
                try:
                    outcomes.append(read_via(how, bytes(mutated), names, tmp_path))
                except typed as exc:
                    outcomes.append(type(exc))
            expected, got = outcomes
            if isinstance(expected, dict):
                assert list(got) == list(expected)
                assert all(np.array_equal(got[k], expected[k], equal_nan=True)
                           and got[k].dtype == expected[k].dtype for k in expected)
            else:
                assert got is expected

    @pytest.mark.parametrize("reader", READERS)
    def test_selection_equals_full_read(self, reader, tmp_path):
        rng = np.random.default_rng(84)
        tensors = {
            "z": rng.standard_normal((5, 3)).astype(np.float32),
            "a": rng.integers(-128, 128, (2, 7), dtype=np.int8),
            "empty": np.zeros((0, 4), dtype=np.float32),
            "s": np.float32(1.5),
            "u": rng.integers(0, 256, 9, dtype=np.uint8),
        }
        payload = container_to_bytes(tensors)
        full = read_via(reader, payload, None, tmp_path)
        assert list(full) == list(tensors)  # data-section order
        for k in range(len(tensors) + 1):
            for subset in itertools.combinations(sorted(tensors), k):
                got = read_via(reader, payload, list(subset) + ["absent"], tmp_path)
                assert list(got) == [n for n in full if n in subset]
                for name in got:
                    assert got[name].dtype == full[name].dtype
                    assert got[name].shape == full[name].shape
                    assert np.array_equal(got[name], full[name])

    def test_unselected_data_never_read(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(85)
        p = tmp_path / "c.slim"
        write_container(p, {n: rng.standard_normal((64, 32)).astype(np.float32)
                            for n in ("q", "k", "v")})
        _, header_len = struct.unpack_from("<IQ", p.read_bytes(), 8)
        data_start = PREFIX.size + header_len
        CountingFile.spans = []
        monkeypatch.setattr(container, "open", unbuffered(CountingFile), raising=False)
        got = read_container(p, ["k"])
        nbytes = 64 * 32 * 4
        assert list(got) == ["k"]
        selected = (data_start + nbytes, data_start + 2 * nbytes)
        read = sum(b - a for a, b in CountingFile.spans)
        assert read == data_start + nbytes
        for a, b in CountingFile.spans:
            assert b <= data_start or (selected[0] <= a and b <= selected[1])

    def test_shapes_come_from_the_header_alone(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(86)
        tensors = {
            "z": rng.standard_normal((5, 3)).astype(np.float32),
            "empty": np.zeros((0, 4), dtype=np.float32),
            "s": np.float32(1.5),
            "u": rng.integers(0, 256, 9, dtype=np.uint8),
        }
        p = tmp_path / "c.slim"
        write_container(p, tensors)
        _, header_len = struct.unpack_from("<IQ", p.read_bytes(), 8)
        CountingFile.spans = []
        monkeypatch.setattr(container, "open", unbuffered(CountingFile), raising=False)
        shapes = container._read_shapes(p)
        assert list(shapes.items()) == [(n, t.shape) for n, t in tensors.items()]
        assert max(b for _, b in CountingFile.spans) == PREFIX.size + header_len

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_shapes_of_malformed_input_typed_error(self, case, tmp_path):
        payload, error = MALFORMED[case]
        p = tmp_path / "c.slim"
        p.write_bytes(payload)
        with pytest.raises(error):
            container._read_shapes(p)

    def test_shapes_of_missing_file_io_error(self, tmp_path):
        with pytest.raises(IoError):
            container._read_shapes(tmp_path / "absent.slim")

    def test_short_reads_are_resumed(self, tmp_path, monkeypatch):
        class Trickle(io.FileIO):
            def readinto(self, buf):
                return super().readinto(memoryview(buf)[:7])

        tensors = {"w": np.arange(50, dtype=np.float32).reshape(5, 10),
                   "m": np.arange(13, dtype=np.uint8)}
        p = tmp_path / "c.slim"
        write_container(p, tensors)
        monkeypatch.setattr(container, "open", unbuffered(Trickle), raising=False)
        got = read_container(p)
        assert all(np.array_equal(got[n], tensors[n]) for n in tensors)

    def test_file_shrinking_mid_read_is_truncated_data(self, tmp_path, monkeypatch):
        class Ends(io.FileIO):
            def readinto(self, buf):
                if self.tell() >= 40:
                    return 0
                return super().readinto(buf)

        p = tmp_path / "c.slim"
        write_container(p, {"w": np.ones((8, 8), dtype=np.float32)})
        monkeypatch.setattr(container, "open", unbuffered(Ends), raising=False)
        with pytest.raises(TruncatedData):
            read_container(p)


# ---------------------------------------------------------------------------
# One tensor of a file as a block source


def file_blocks(path, name, blocks):
    """Each ``read(rows, cols)`` of the block source of tensor ``name``."""
    with container._tensor_source(path, name) as read:
        return read.shape, [read(rows, cols) for rows, cols in blocks]


class OpenedFiles(io.FileIO):
    """A raw file that remembers every instance opened."""

    opened: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        OpenedFiles.opened.append(self)


class TestTensorSource:
    @pytest.mark.parametrize("name, shape", [
        ("wide", (7, 300)), ("tall", (300, 7)), ("codes", (9, 13)), ("bytes", (5, 6)),
    ])
    def test_blocks_equal_the_whole_read(self, tmp_path, name, shape):
        rng = np.random.default_rng(87)
        tensors = {
            "wide": rng.standard_normal((7, 300)).astype(np.float32),
            "codes": rng.integers(-128, 128, (9, 13), dtype=np.int8),
            "tall": rng.standard_normal((300, 7)).astype(np.float32),
            "bytes": rng.integers(0, 256, (5, 6), dtype=np.uint8),
            "flat": rng.standard_normal(11).astype(np.float32),
        }
        p = tmp_path / "c.slim"
        write_container(p, tensors)
        whole = read_container(p, [name])[name].astype(np.float64)
        rows, cols = shape
        everything = slice(None)
        blocks = [
            (everything, everything),                       # whole
            (slice(2, 5), everything),                      # a row block
            (slice(rows - 2, rows + 40), everything),       # ragged last rows
            (everything, slice(1, cols - 1)),               # a column block
            (everything, slice(cols - 3, cols + 9)),        # ragged last columns
            (slice(1, rows), slice(2, 4)),                  # rows and columns
            (slice(rows, rows + 3), everything),            # past the end: no rows
            (everything, slice(cols, cols + 2)),            # past the end: no columns
        ]
        got_shape, got = file_blocks(p, name, blocks)
        assert got_shape == shape
        for (r, c), block in zip(blocks, got):
            ref = whole[r, c]
            assert block.dtype == np.float64 and block.shape == ref.shape
            assert block.flags.c_contiguous
            assert np.array_equal(block.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_same_error_as_the_whole_read(self, case, tmp_path):
        payload, error = MALFORMED[case]
        p = tmp_path / "c.slim"
        p.write_bytes(payload)
        with pytest.raises(error):
            read_container(p)
        for name in ("a", "ok", "x", "absent"):
            with pytest.raises(error):
                file_blocks(p, name, [])

    def test_missing_file_and_absent_name(self, tmp_path):
        with pytest.raises(IoError):
            file_blocks(tmp_path / "absent.slim", "w", [])
        p = tmp_path / "c.slim"
        write_container(p, {"w": np.ones((2, 2), np.float32)})
        with pytest.raises(SchemaViolation, match="has no tensor named 'v'"):
            file_blocks(p, "v", [])

    @pytest.mark.parametrize("shape, error", [
        ((4,), ShapeMismatch), ((2, 2, 2), ShapeMismatch), ((), ShapeMismatch),
        ((0, 3), EmptyTensor), ((3, 0), EmptyTensor),
    ])
    def test_not_a_matrix(self, tmp_path, shape, error):
        p = tmp_path / "c.slim"
        write_container(p, {"w": np.ones(shape, np.float32)})
        with pytest.raises(error):
            file_blocks(p, "w", [])

    def test_each_block_is_checked_for_nan_and_inf(self, tmp_path):
        w = np.ones((6, 5), np.float32)
        w[4, 3] = np.nan
        w[1, 0] = np.inf
        p = tmp_path / "c.slim"
        write_container(p, {"w": w})
        with container._tensor_source(p, "w") as read:
            assert np.array_equal(read(slice(2, 4), slice(None)), np.ones((2, 5)))
            assert np.array_equal(read(slice(None), slice(4, 5)), np.ones((6, 1)))
            for rows, cols in [(slice(4, 5), slice(None)), (slice(None), slice(3, 4)),
                               (slice(0, 2), slice(None))]:
                with pytest.raises(NonFinite, match="^w contains NaN or Inf$"):
                    read(rows, cols)

    def test_reads_only_the_tensor(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(88)
        p = tmp_path / "c.slim"
        write_container(p, {n: rng.standard_normal((64, 32)).astype(np.float32)
                            for n in ("q", "k", "v")})
        _, header_len = struct.unpack_from("<IQ", p.read_bytes(), 8)
        data_start = PREFIX.size + header_len
        nbytes = 64 * 32 * 4
        CountingFile.spans = []
        monkeypatch.setattr(container, "open", unbuffered(CountingFile), raising=False)
        file_blocks(p, "k", [(slice(None), slice(None)), (slice(None), slice(5, 9))])
        selected = (data_start + nbytes, data_start + 2 * nbytes)
        spans = [s for s in CountingFile.spans if s[1] > data_start]
        # the whole tensor once, then 4 columns of each of its 64 rows
        assert sum(b - a for a, b in spans) == nbytes + 64 * 4 * 4
        assert all(selected[0] <= a and b <= selected[1] for a, b in spans)

    def test_short_reads_are_resumed_and_truncation_is_typed(self, tmp_path, monkeypatch):
        class Trickle(io.FileIO):
            def readinto(self, buf):
                return super().readinto(memoryview(buf)[:7])

        w = np.arange(50, dtype=np.float32).reshape(5, 10)
        p = tmp_path / "c.slim"
        write_container(p, {"m": np.arange(13, dtype=np.uint8), "w": w})
        monkeypatch.setattr(container, "open", unbuffered(Trickle), raising=False)
        _, (whole, part) = file_blocks(p, "w", [(slice(None), slice(None)),
                                                (slice(1, 4), slice(2, 9))])
        assert np.array_equal(whole, w) and np.array_equal(part, w[1:4, 2:9])

        class Ends(io.FileIO):  # the last 8 bytes are gone mid-read
            def readinto(self, buf):
                return super().readinto(memoryview(buf)[: max(p.stat().st_size - 8 - self.tell(), 0)])

        monkeypatch.setattr(container, "open", unbuffered(Ends), raising=False)
        assert np.array_equal(file_blocks(p, "w", [(slice(0, 2), slice(None))])[1][0], w[:2])
        with pytest.raises(TruncatedData):
            file_blocks(p, "w", [(slice(4, 5), slice(None))])

    def test_file_is_closed_when_the_block_ends(self, tmp_path, monkeypatch):
        p = tmp_path / "c.slim"
        w = np.ones((4, 4), np.float32)
        w[3, 3] = np.nan
        write_container(p, {"w": w})
        OpenedFiles.opened = []
        monkeypatch.setattr(container, "open", unbuffered(OpenedFiles), raising=False)
        file_blocks(p, "w", [(slice(0, 1), slice(None))])
        with pytest.raises(NonFinite):
            file_blocks(p, "w", [(slice(None), slice(None))])
        with pytest.raises(SchemaViolation):
            file_blocks(p, "v", [])
        assert len(OpenedFiles.opened) == 3
        assert all(f.closed for f in OpenedFiles.opened)
