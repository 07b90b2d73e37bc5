import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import resample_temporal
from tut import data as D
from tut import losses as L
from tut import metrics as M
from tut.errors import DatasetError


def test_feature_file_roundtrip(tmp_path):
    arr = np.random.default_rng(0).standard_normal((7, 5)).astype(np.float32)
    path = tmp_path / "x.feat"
    D.write_features(path, arr)
    first = path.read_bytes()
    back = D.read_features(path)
    np.testing.assert_array_equal(back, arr)
    D.write_features(path, back)
    assert path.read_bytes() == first


def test_feature_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOPE")
    with pytest.raises(DatasetError):
        D.read_features(path)
    good = tmp_path / "trunc.feat"
    D.write_features(good, np.zeros((3, 2), dtype=np.float32))
    good.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(DatasetError):
        D.read_features(good)


@pytest.mark.parametrize("keep", [10, 14, 27])
def test_short_feature_header_raises_dataset_error(tmp_path, keep):
    path = tmp_path / "cut.feat"
    D.write_features(path, np.ones((3, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(DatasetError, match=re.escape(str(path))):
        D.read_features(path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_feature_file_loads_identically_or_raises(tmp_path, data):
    """A truncation anywhere, or a byte flip anywhere in the 28-byte header,
    loads the same array (every stride-th row of it, at any stride) or
    raises DatasetError. The format has no checksum, so a flip inside the
    float payload loads a changed value; such flips are not drawn."""
    arr = np.random.default_rng(5).standard_normal((6, 4)).astype(np.float32)
    path = tmp_path / "x.feat"
    D.write_features(path, arr)
    raw = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="keep")]
    else:
        at = data.draw(st.integers(0, D.HEADER_BYTES - 1), label="at")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
    path.write_bytes(damaged)
    stride = data.draw(st.integers(1, 4), label="stride")
    try:
        loaded = D.read_features(path, stride)
    except DatasetError as exc:
        assert str(path) in str(exc)
        return
    assert len(damaged) == len(raw)
    assert loaded.dtype == np.float32 and loaded.shape == arr[::stride].shape
    np.testing.assert_array_equal(loaded, arr[::stride])


# rows per 1 MiB chunk at d = 64: four of them span several chunks at every stride
SEVERAL_CHUNKS = 3 * (D.CHUNK_BYTES // (4 * 64)) + 5


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
@pytest.mark.parametrize("rows", ["1", "k-1", "k", "k+1", "several chunks"])
@pytest.mark.parametrize("chunk_bytes", [D.CHUNK_BYTES, 40], ids=["chunk", "row-sized-chunk"])
def test_strided_read_equals_full_read_then_stride(tmp_path, monkeypatch, stride, rows, chunk_bytes):
    t = {"1": 1, "k-1": stride - 1, "k": stride, "k+1": stride + 1,
         "several chunks": SEVERAL_CHUNKS}[rows]
    path = tmp_path / "x.feat"
    D.write_features(path, np.random.default_rng(t).standard_normal((t, 64)).astype(np.float32))
    monkeypatch.setattr(D, "CHUNK_BYTES", chunk_bytes)  # 40 bytes: each read is `stride` rows
    full = D.read_features(path)
    got = D.read_features(path, stride)
    assert got.dtype == full.dtype and got.shape == full[::stride].shape
    assert got.flags.c_contiguous and got.tobytes() == full[::stride].tobytes()


@pytest.mark.parametrize("stride", [2, 3])
def test_strided_read_of_a_damaged_file_raises_with_the_path(tmp_path, monkeypatch, stride):
    arr = np.arange(40, dtype=np.float32).reshape(10, 4)
    path = tmp_path / "x.feat"
    D.write_features(path, arr)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])  # truncated payload
    with pytest.raises(DatasetError, match=re.escape(str(path))):
        D.read_features(path, stride)
    path.write_bytes(raw[:16] + (11).to_bytes(8, "little") + raw[24:])  # header says T = 11
    with pytest.raises(DatasetError, match=re.escape(str(path))):
        D.read_features(path, stride)
    # the size check passes, then the payload runs out mid-read
    path.write_bytes(raw[:-20])
    monkeypatch.setattr(D, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=len(raw))))
    with pytest.raises(DatasetError, match=re.escape(str(path)) + ".*shrank"):
        D.read_features(path, stride)


def test_strided_load_never_holds_the_full_rate_features(tmp_path):
    rows, dim = 2000, 1024  # 8 MiB at the full rate, 4 MiB kept
    write_toy_dataset(tmp_path, {"v": ["a"] * (rows // 2) + ["b"] * (rows // 2)}, d=dim)
    path = tmp_path / "features" / "v.feat"
    kept = 4 * dim * (rows // 2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        features = D.read_features(path, 2)
        read_peak = tracemalloc.get_traced_memory()[1]
        del features
        tracemalloc.reset_peak()
        samples, _ = D.load_dataset(tmp_path, "splits/all.bundle", stride=2)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples[0].features.nbytes == kept
    assert read_peak <= kept + D.CHUNK_BYTES + 2**16
    assert load_peak <= kept + D.CHUNK_BYTES + 2**17  # plus the parsed label lines


def test_import_numpy_features(tmp_path):
    arr = np.random.default_rng(1).standard_normal((4, 6)).astype(np.float32)
    src = tmp_path / "x.npy"
    np.save(src, arr.T)  # stored (d, T) like common dumps
    dst = tmp_path / "x.feat"
    D.import_numpy_features(src, dst, transpose=True)
    np.testing.assert_array_equal(D.read_features(dst), arr)


def write_toy_dataset(root, labels_by_video, d=3, extra_labels=0):
    names = sorted({name for labels in labels_by_video.values() for name in labels})
    mapping = D.ClassMapping(names)
    (root / "groundTruth").mkdir(parents=True)
    (root / "features").mkdir()
    (root / "splits").mkdir()
    with open(root / "mapping.txt", "w") as fh:
        for i, name in enumerate(names):
            fh.write(f"{i} {name}\n")
    rng = np.random.default_rng(0)
    for vid, labels in labels_by_video.items():
        D.write_features(
            root / "features" / f"{vid}.feat",
            rng.standard_normal((len(labels), d)).astype(np.float32),
        )
        all_labels = list(labels) + [labels[-1]] * extra_labels
        (root / "groundTruth" / f"{vid}.txt").write_text("".join(f"{l}\n" for l in all_labels))
    (root / "splits" / "all.bundle").write_text(
        "".join(f"{vid}.txt\n" for vid in labels_by_video)
    )
    return mapping


def test_load_toy_dataset(tmp_path):
    write_toy_dataset(tmp_path, {"v1": ["walk", "walk", "run"], "v2": ["run", "jump"]})
    samples, mapping = D.load_dataset(tmp_path, "splits/all.bundle")
    assert [s.video_id for s in samples] == ["v1", "v2"]
    assert mapping.num_classes == 3
    assert samples[0].num_frames == 3
    assert samples[0].labels.tolist() == [mapping.id_of("walk")] * 2 + [mapping.id_of("run")]


def test_label_feature_mismatch_truncates_with_warning(tmp_path, caplog):
    write_toy_dataset(tmp_path, {"v1": ["a", "a", "b"]}, extra_labels=1)
    with caplog.at_level("WARNING"):
        samples, _ = D.load_dataset(tmp_path, "splits/all.bundle")
    assert samples[0].num_frames == 3
    assert any("truncating" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "extra", [0, 3, -3, -4], ids=["equal", "more-labels", "fewer-labels", "fewer-labels-by-4"]
)
def test_strided_load_equals_load_then_stride_oracle(tmp_path, caplog, stride, extra):
    rows = {"v1": 11, "v2": 13}
    names = ["a", "a", "b", "c", "c", "c", "a"] * 3
    write_toy_dataset(tmp_path, {vid: names[: n + extra] for vid, n in rows.items()}, d=5)
    for seed, (vid, n) in enumerate(rows.items()):
        features = np.random.default_rng(seed).standard_normal((n, 5)).astype(np.float32)
        D.write_features(tmp_path / "features" / f"{vid}.feat", features)
    with caplog.at_level("WARNING"):
        full, mapping = D.load_dataset(tmp_path, "splits/all.bundle", fps=15.0)
    oracle_warnings = [rec.getMessage() for rec in caplog.records]
    assert len(oracle_warnings) == (2 if extra else 0)
    expected = [resample_temporal(s, 15.0 * stride, 15.0) for s in full]
    caplog.clear()
    with caplog.at_level("WARNING"):
        got, got_mapping = D.load_dataset(tmp_path, "splits/all.bundle", fps=15.0, stride=stride)
    assert [rec.getMessage() for rec in caplog.records] == oracle_warnings
    assert got_mapping.names == mapping.names
    fields = ("video_id", "fps", "source_len", "stride", "num_frames")
    for a, b in zip(got, expected, strict=True):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        assert a.features.dtype == b.features.dtype and a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()


def test_malformed_mapping_line_reports_lineno(tmp_path):
    write_toy_dataset(tmp_path, {"v1": ["a", "b"]})
    (tmp_path / "mapping.txt").write_text("0 a\nbroken line here\n")
    with pytest.raises(DatasetError, match=":2:"):
        D.load_dataset(tmp_path, "splits/all.bundle")


def test_unknown_class_and_missing_feature(tmp_path):
    write_toy_dataset(tmp_path, {"v1": ["a", "b"]})
    (tmp_path / "groundTruth" / "v1.txt").write_text("a\nmystery\n")
    with pytest.raises(DatasetError, match="mystery"):
        D.load_dataset(tmp_path, "splits/all.bundle")
    (tmp_path / "groundTruth" / "v1.txt").write_text("a\nb\n")
    (tmp_path / "features" / "v1.feat").unlink()
    with pytest.raises(DatasetError, match="missing feature"):
        D.load_dataset(tmp_path, "splits/all.bundle")


def test_resample_and_upsample_predictions(tmp_path):
    write_toy_dataset(tmp_path, {"v": ["a", "a", "b", "b", "c", "c"]}, d=2)
    D.write_features(tmp_path / "features" / "v.feat", np.arange(12, dtype=np.float32).reshape(6, 2))
    (half,), _ = D.load_dataset(tmp_path, "splits/all.bundle", stride=2)
    assert half.num_frames == 3
    np.testing.assert_array_equal(half.labels, [0, 1, 2])
    np.testing.assert_array_equal(half.features[:, 0], [0, 4, 8])
    assert half.source_len == 6 and half.stride == 2

    np.testing.assert_array_equal(D.upsample_predictions([0, 1], 2, 4), [0, 0, 1, 1])
    np.testing.assert_array_equal(D.upsample_predictions([0, 1, 2], 2, 5), [0, 0, 1, 1, 2])
    np.testing.assert_array_equal(D.upsample_predictions([0, 1], 2, 5), [0, 0, 1, 1, 1])


def test_synthetic_reproducible_and_bounded():
    spec = D.SynthSpec(num_classes=4, num_videos=8, min_len=128, max_len=256, seed=9)
    samples, mapping = D.generate_synthetic(spec)
    again, _ = D.generate_synthetic(spec)
    assert len(samples) == 8
    assert mapping.num_classes == 4
    for a, b in zip(samples, again):
        assert 128 <= a.num_frames <= 256
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


def test_synthetic_no_adjacent_repeat_and_separable():
    spec = D.SynthSpec(num_classes=3, num_videos=4, min_len=40, max_len=60, noise=0.0, seed=3)
    samples, _ = D.generate_synthetic(spec)
    protos = D.class_prototypes(spec)
    for sample in samples:
        segs = M.extract_segments(sample.labels.tolist())
        for a, b in zip(segs, segs[1:]):
            assert a.label != b.label
        dists = np.linalg.norm(sample.features[:, None, :] - protos[None], axis=2)
        np.testing.assert_array_equal(np.argmin(dists, axis=1), sample.labels)


def test_boundaries_match_segments_cross_module():
    spec = D.SynthSpec(num_videos=2, seed=5)
    samples, _ = D.generate_synthetic(spec)
    for sample in samples:
        b = L.derive_boundaries(sample.labels)
        segs = M.extract_segments(sample.labels.tolist())
        np.testing.assert_array_equal(b.start_frames, [s.start for s in segs])
        np.testing.assert_array_equal(b.end_frames, [s.end for s in segs])


def test_write_dataset_roundtrip(tmp_path):
    spec = D.SynthSpec(num_videos=3, min_len=20, max_len=30, seed=1)
    samples, mapping = D.generate_synthetic(spec)
    D.write_dataset(tmp_path, samples, mapping)
    loaded, loaded_mapping = D.load_dataset(tmp_path, "splits/all.bundle")
    assert loaded_mapping.names == mapping.names
    for orig, back in zip(samples, loaded):
        assert orig.video_id == back.video_id
        np.testing.assert_array_equal(orig.features, back.features)
        np.testing.assert_array_equal(orig.labels, back.labels)
