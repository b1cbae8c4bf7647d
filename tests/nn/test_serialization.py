"""Model and ConvertedSNN persistence round-trips."""

import numpy as np
import pytest

from repro.nn import vgg_micro
from repro.nn.serialization import (
    load_converted,
    load_model,
    save_converted,
    save_model,
)
from repro.tensor import Tensor


class TestModelRoundtrip:
    def test_weights_restored(self, tmp_path, rng):
        m1 = vgg_micro(num_classes=4, input_size=8)
        path = tmp_path / "model.npz"
        save_model(m1, path, epochs=5)
        m2 = vgg_micro(num_classes=4, input_size=8)
        meta = load_model(m2, path)
        x = Tensor(rng.random((2, 3, 8, 8)).astype(np.float32))
        m1.eval(), m2.eval()
        assert np.allclose(m1(x).data, m2(x).data)
        assert meta == {"epochs": 5}

    def test_bn_buffers_restored(self, tmp_path):
        from repro.nn import BatchNorm2d

        m1 = vgg_micro()
        bn = next(m for m in m1.modules() if isinstance(m, BatchNorm2d))
        bn.running_mean = np.full_like(bn.running_mean, 3.0)
        bn._buffers["running_mean"] = bn.running_mean
        path = tmp_path / "m.npz"
        save_model(m1, path)
        m2 = vgg_micro()
        load_model(m2, path)
        bn2 = next(m for m in m2.modules() if isinstance(m, BatchNorm2d))
        assert np.allclose(bn2.running_mean, 3.0)

    def test_no_metadata(self, tmp_path):
        m = vgg_micro()
        path = tmp_path / "m.npz"
        save_model(m, path)
        assert load_model(vgg_micro(), path) == {}


class TestConvertedRoundtrip:
    def test_forward_identical(self, tmp_path, converted_micro,
                               tiny_dataset):
        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path)
        restored = load_converted(path)
        x = tiny_dataset.test_x[:8]
        assert np.allclose(restored.forward_value(x),
                           converted_micro.forward_value(x))

    def test_config_and_scale_restored(self, tmp_path, converted_micro):
        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path)
        restored = load_converted(path)
        assert restored.config == converted_micro.config
        assert restored.output_scale == converted_micro.output_scale

    def test_structure_restored(self, tmp_path, converted_micro):
        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path)
        restored = load_converted(path)
        kinds = [s.kind for s in restored.layers]
        assert kinds == [s.kind for s in converted_micro.layers]
        assert restored.layers[-1].is_output

    def test_simulatable_after_reload(self, tmp_path, converted_micro,
                                      tiny_dataset):
        from repro.snn import EventDrivenTTFSNetwork

        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path)
        restored = load_converted(path)
        res = EventDrivenTTFSNetwork(restored).run(tiny_dataset.test_x[:4])
        assert res.total_spikes > 0


class TestConvertedFormatVersioning:
    """Stale/truncated/corrupted files fail with actionable errors."""

    @staticmethod
    def _save(converted_micro, tmp_path):
        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path)
        return path

    @staticmethod
    def _rewrite_header(path, mutate):
        import json

        data = dict(np.load(path, allow_pickle=False))
        header = json.loads(bytes(data["__header__"]).decode())
        mutate(header)
        data["__header__"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8)
        np.savez_compressed(path, **data)

    def test_header_records_version_and_digest(self, tmp_path,
                                               converted_micro):
        import json

        from repro.nn.serialization import CONVERTED_FORMAT_VERSION

        path = self._save(converted_micro, tmp_path)
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(bytes(data["__header__"]).decode())
        assert header["format_version"] == CONVERTED_FORMAT_VERSION
        assert len(header["digest"]) == 64

    def test_wrong_version_is_actionable(self, tmp_path, converted_micro):
        from repro.nn.serialization import SerializationError

        path = self._save(converted_micro, tmp_path)
        self._rewrite_header(path,
                            lambda h: h.update(format_version=99))
        with pytest.raises(SerializationError,
                           match=r"snn\.npz.*expected 1, found 99"):
            load_converted(path)

    def test_pre_versioning_file_is_actionable(self, tmp_path,
                                               converted_micro):
        from repro.nn.serialization import SerializationError

        path = self._save(converted_micro, tmp_path)
        self._rewrite_header(path, lambda h: h.pop("format_version"))
        with pytest.raises(SerializationError,
                           match="found none \\(pre-versioning file\\)"):
            load_converted(path)

    def test_truncated_header_is_actionable_not_keyerror(self, tmp_path,
                                                         converted_micro):
        from repro.nn.serialization import SerializationError

        path = self._save(converted_micro, tmp_path)
        self._rewrite_header(path, lambda h: h.pop("digest"))
        with pytest.raises(SerializationError,
                           match="missing entry 'digest'"):
            load_converted(path)

    def test_missing_weight_array_is_actionable(self, tmp_path,
                                                converted_micro):
        from repro.nn.serialization import SerializationError

        path = self._save(converted_micro, tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        del data["w/0"]
        np.savez_compressed(path, **data)
        with pytest.raises(SerializationError, match="missing entry"):
            load_converted(path)

    def test_tampered_weights_fail_the_digest_check(self, tmp_path,
                                                    converted_micro):
        from repro.nn.serialization import SerializationError

        path = self._save(converted_micro, tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        data["w/0"] = data["w/0"] + 1.0
        np.savez_compressed(path, **data)
        with pytest.raises(SerializationError, match="digest mismatch"):
            load_converted(path)

    def test_not_an_npz_file_is_actionable(self, tmp_path):
        from repro.nn.serialization import SerializationError

        path = tmp_path / "snn.npz"
        path.write_text("definitely not a zip archive")
        with pytest.raises(SerializationError, match="not a readable"):
            load_converted(path)

    def test_npz_without_header_is_actionable(self, tmp_path):
        from repro.nn.serialization import SerializationError

        path = tmp_path / "snn.npz"
        np.savez_compressed(path, other=np.zeros(3))
        with pytest.raises(SerializationError, match="no __header__"):
            load_converted(path)


def _npy_bytes(header: str, payload: bytes) -> bytes:
    """A version-1.0 ``.npy`` stream with ``header`` as its dict text."""
    text = header.encode("latin1")
    text += b" " * (-(10 + len(text) + 1) % 64) + b"\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") \
        + text + payload


class TestMalformedNpyHeaders:
    """A stored member whose ``.npy`` header has the wrong types fails
    as a :class:`SerializationError` naming the file, whichever way the
    bundle is opened."""

    @staticmethod
    def _rewrite_member(path, name, stream):
        import zipfile

        with zipfile.ZipFile(path) as zf:
            members = {info.filename: zf.read(info) for info in zf.infolist()}
        members[name] = stream
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            for member, data in members.items():
                zf.writestr(member, data)

    @pytest.mark.parametrize("header", [
        "{'descr': '<f4', 'fortran_order': False, 'shape': 5, }",
        "{'descr': '<f4', 'fortran_order': False, 'shape': ('a',), }",
        "{'descr': 7, 'fortran_order': False, 'shape': (3,), }",
        "['descr', '<f4']",
    ], ids=["int-shape", "str-dim", "int-descr", "not-a-dict"])
    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_raises_serialization_error(self, tmp_path, converted_micro,
                                        header, mmap_mode):
        from repro.nn.serialization import SerializationError

        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path, compress=False)
        self._rewrite_member(path, "w/0.npy", _npy_bytes(header, bytes(12)))
        with pytest.raises(SerializationError, match=r"snn\.npz: "):
            load_converted(path, mmap_mode=mmap_mode)

    def test_mmap_members_leave_the_member_out(self, tmp_path,
                                               converted_micro):
        from repro.nn.serialization import mmap_npz_members

        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path, compress=False)
        self._rewrite_member(path, "w/0.npy", _npy_bytes(
            "{'descr': 7, 'fortran_order': False, 'shape': (3,), }",
            bytes(12)))
        members = mmap_npz_members(path)
        assert "w/0" not in members and "b/0" in members


def hostile_npz(path, shape, file_size=None):
    """A small ``.npz`` whose one deflated member declares float64
    ``shape`` and holds no data; ``file_size`` overwrites the size the
    central directory states for it."""
    import zipfile

    header = (f"{{'descr': '<f8', 'fortran_order': False, "
              f"'shape': {shape!r}, }}")
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("__header__.npy", _npy_bytes(header, b""))
    if file_size is not None:
        data = bytearray(path.read_bytes())
        entry = data.rindex(b"PK\x01\x02")     # the central directory
        data[entry + 24:entry + 28] = file_size.to_bytes(4, "little")
        path.write_bytes(bytes(data))
    return path


class TestOversizedMembers:
    """A member whose header declares more data than the member holds
    fails as a :class:`SerializationError` before anything is allocated
    (a bare read would ask for the whole declared shape)."""

    @pytest.mark.parametrize("shape", [(2**40,), (2**32,)],
                             ids=["2**40", "2**32"])
    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_declared_shape_beyond_the_member(self, tmp_path, shape,
                                              mmap_mode):
        from repro.nn.serialization import SerializationError

        path = hostile_npz(tmp_path / "snn.npz", shape)
        assert path.stat().st_size < 256
        with pytest.raises(SerializationError,
                           match=r"snn\.npz: .*declares"):
            load_converted(path, mmap_mode=mmap_mode)

    def test_stated_size_beyond_what_deflate_holds(self, tmp_path):
        # the central directory claims 2 GiB, which the few compressed
        # bytes cannot expand to
        from repro.nn.serialization import SerializationError

        path = hostile_npz(tmp_path / "snn.npz", (2**28,),
                           file_size=2**31 + 128)
        with pytest.raises(SerializationError, match="declares"):
            load_converted(path)

    def test_compressed_bundle_still_loads(self, tmp_path, converted_micro):
        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path, compress=True)
        loaded = load_converted(path)
        for a, b in zip(converted_micro.layers, loaded.layers):
            if a.weight is not None:
                assert np.array_equal(a.weight, b.weight)


class TestConvertedMmap:
    def test_uncompressed_bundle_maps_weights(self, tmp_path,
                                              converted_micro):
        """``compress=False`` + ``mmap_mode="r"`` serves memmapped
        weights that are bitwise-equal to an in-memory load."""
        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path, compress=False)
        plain = load_converted(path)
        mapped = load_converted(path, mmap_mode="r")
        saw_weight = False
        for p, m in zip(plain.layers, mapped.layers):
            if p.weight is None:
                assert m.weight is None
                continue
            saw_weight = True
            assert isinstance(m.weight, np.memmap)
            assert isinstance(m.bias, np.memmap)
            np.testing.assert_array_equal(np.asarray(m.weight), p.weight)
            np.testing.assert_array_equal(np.asarray(m.bias), p.bias)
        assert saw_weight

    def test_compressed_bundle_falls_back_in_memory(self, tmp_path,
                                                    converted_micro):
        """Deflated members can't be mapped; the load silently copies
        (so old bundles keep working) and stays bitwise-correct."""
        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path)        # compress=True
        mapped = load_converted(path, mmap_mode="r")
        for p, m in zip(converted_micro.layers, mapped.layers):
            if p.weight is None:
                continue
            assert not isinstance(m.weight, np.memmap)
            np.testing.assert_array_equal(m.weight, p.weight)

    def test_writable_maps_rejected(self, tmp_path, converted_micro):
        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path, compress=False)
        with pytest.raises(ValueError, match="mmap_mode"):
            load_converted(path, mmap_mode="r+")

    def test_mmap_members_match_np_load(self, tmp_path, converted_micro):
        from repro.nn.serialization import mmap_npz_members

        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path, compress=False)
        members = mmap_npz_members(path)
        assert any(name.startswith("w/") for name in members)
        with np.load(path, allow_pickle=False) as data:
            for name, mapped in members.items():
                np.testing.assert_array_equal(np.asarray(mapped),
                                              data[name])

    def test_stored_members_start_aligned(self, tmp_path, converted_micro):
        import zipfile

        from repro.nn.serialization import MEMBER_ALIGNMENT, mmap_npz_members

        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path, compress=False)
        members = mmap_npz_members(path)
        assert "__header__" in members
        assert all(m.offset % MEMBER_ALIGNMENT == 0
                   for m in members.values())
        with zipfile.ZipFile(path) as zf:
            assert zf.testzip() is None          # CRCs still hold

    def test_read_converted_hands_out_the_file_bytes(self, tmp_path,
                                                     converted_micro):
        from repro.nn.serialization import read_converted

        path = tmp_path / "snn.npz"
        save_converted(converted_micro, path, compress=False)
        for mmap_mode in (None, "r"):
            content, decode = read_converted(path, mmap_mode)
            assert bytes(content) == path.read_bytes()
            restored = decode()
            assert restored.output_scale == converted_micro.output_scale

