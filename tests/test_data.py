import dataclasses
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
from tut.trainer import restore_source_rate


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
    raises DatasetError, through ``read_features`` and through the
    ``VideoSample.blocks`` a forward-only pass iterates. The format has no
    checksum, so a flip inside the float payload loads a changed value; such
    flips are not drawn."""
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
    labels = np.zeros(len(arr[::stride]), dtype=np.int64)
    rows = D.VideoSample("x", None, labels, stride=stride, path=path, file_shape=arr.shape)
    for read in (
        lambda: D.read_features(path, stride),
        lambda: np.concatenate([kept.copy() for _, kept in rows.blocks(2)]),
    ):
        try:
            loaded = read()
        except DatasetError as exc:
            assert str(path) in str(exc)
            continue
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
        features = samples[0].load_features()
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert features.nbytes == kept
    assert read_peak <= kept + D.CHUNK_BYTES + 2**16
    assert load_peak <= kept + D.CHUNK_BYTES + 2**17  # plus the parsed label lines


def test_import_numpy_features(tmp_path):
    arr = np.random.default_rng(1).standard_normal((4, 6)).astype(np.float32)
    src = tmp_path / "x.npy"
    np.save(src, arr.T)  # stored (d, T) like common dumps
    dst = tmp_path / "x.feat"
    D.import_numpy_features(src, dst, transpose=True)
    np.testing.assert_array_equal(D.read_features(dst), arr)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8])
def test_import_numpy_features_converts_numbers_to_float32(tmp_path, dtype):
    arr = (np.arange(24).reshape(4, 6) * 3).astype(dtype)
    np.save(tmp_path / "x.npy", arr)
    D.import_numpy_features(tmp_path / "x.npy", tmp_path / "x.feat")
    got = D.read_features(tmp_path / "x.feat")
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, arr.astype(np.float32))


def _write_npy(path, case):
    if case == "missing":
        return
    if case == "not_npy":
        path.write_bytes(b"T,d\n1,2\n")
    elif case == "npz":
        with open(path, "wb") as fh:
            np.savez(fh, x=np.zeros((2, 3)))
    elif case == "pickled_objects":
        np.save(path, np.array([[{"a": 1}, None]], dtype=object), allow_pickle=True)
    elif case == "cut":
        np.save(path, np.zeros((4, 3)))
        path.write_bytes(path.read_bytes()[:40])
    elif case == "strings":
        np.save(path, np.array([["a", "b"]]))
    else:
        np.save(path, np.zeros({"1d": (5,), "3d": (2, 3, 4)}[case]))


@pytest.mark.parametrize(
    "case", ["missing", "not_npy", "npz", "pickled_objects", "cut", "strings", "1d", "3d"]
)
def test_import_numpy_features_failures_raise_dataset_error_naming_the_source(tmp_path, case):
    src, dst = tmp_path / "dump.npy", tmp_path / "out.feat"
    _write_npy(src, case)
    with pytest.raises(DatasetError, match=re.escape(str(src))):
        D.import_numpy_features(src, dst)
    assert not dst.exists()


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
        full, mapping = D.load_dataset(tmp_path, "splits/all.bundle")
    oracle_warnings = [rec.getMessage() for rec in caplog.records]
    assert len(oracle_warnings) == (2 if extra else 0)
    expected = [resample_temporal(s, stride) for s in full]
    caplog.clear()
    with caplog.at_level("WARNING"):
        got, got_mapping = D.load_dataset(tmp_path, "splits/all.bundle", stride=stride)
    assert [rec.getMessage() for rec in caplog.records] == oracle_warnings
    assert got_mapping.names == mapping.names
    fields = ("video_id", "source_len", "stride", "num_frames")
    for a, b in zip(got, expected, strict=True):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        fa, fb = a.load_features(), b.load_features()
        assert fa.dtype == fb.dtype and fa.shape == fb.shape
        assert fa.tobytes() == fb.tobytes()
        assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("extra", [3, -3], ids=["more-labels", "fewer-labels"])
def test_loaded_sample_reads_its_rows_on_use(tmp_path, stride, extra):
    """A loaded sample holds no features; each read gives every stride-th
    row of its file, cut to its labels, as a fresh array."""
    rows = 11
    write_toy_dataset(tmp_path, {"v": (["a", "b", "c"] * 5)[: rows + extra]}, d=4)
    path = tmp_path / "features" / "v.feat"
    D.write_features(path, np.random.default_rng(1).standard_normal((rows, 4)).astype(np.float32))
    (sample,), _ = D.load_dataset(tmp_path, "splits/all.bundle", stride=stride)
    assert sample.features is None
    assert sample.path == path and sample.stride == stride and sample.file_shape == (rows, 4)
    assert sample.feature_dim == 4
    want = D.read_features(path, stride)[: sample.num_frames]
    assert want.shape[0] == len(range(0, min(rows, rows + extra), stride))
    first, second = sample.load_features(), sample.load_features()
    assert first is not second
    for got in (first, second):
        assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def _change_rows(path, features):
    D.write_features(path, features[:-1])


def _change_dim(path, features):
    D.write_features(path, features[:, :-1])


def _truncate_payload(path, features):
    path.write_bytes(path.read_bytes()[:-4])


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("change", [_change_rows, _change_dim, _truncate_payload],
                         ids=["rows", "dim", "truncated"])
def test_feature_file_changed_after_loading_raises_dataset_error(tmp_path, change, stride):
    write_toy_dataset(tmp_path, {"v": ["a", "b"] * 4}, d=3)
    path = tmp_path / "features" / "v.feat"
    (sample,), _ = D.load_dataset(tmp_path, "splits/all.bundle", stride=stride)
    change(path, D.read_features(path))
    with pytest.raises(DatasetError, match=re.escape(str(path))):
        sample.load_features()
    with pytest.raises(DatasetError, match=re.escape(str(path))):
        list(sample.blocks(2))


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 40, 128, 131, 3 * 128 + 64, 3 * 128 + 63])
def test_feature_rows_blocks_cover_the_strided_rows(tmp_path, rows, stride):
    """``blocks(size)`` yields the rows ``load_features`` returns, in order,
    in blocks of ``size`` and never fewer than ``size // 2`` unless the
    video is shorter, each a view of one reused buffer (of the array a held
    sample holds); labels shorter than the file leave its last rows unread."""
    size = 128
    write_toy_dataset(tmp_path, {"v": ["a", "b"] * (rows + 1)}, d=5)
    path = tmp_path / "features" / "v.feat"
    features = np.random.default_rng(rows).standard_normal((rows + 2, 5)).astype(np.float32)
    D.write_features(path, features)
    (sample,), _ = D.load_dataset(tmp_path, "splits/all.bundle", stride=stride)
    cut = dataclasses.replace(sample, labels=sample.labels[: max(1, sample.num_frames - 2)])
    held = D.VideoSample("v", sample.load_features(), sample.labels)
    for s in (sample, cut, held):
        assert s.shape == (s.num_frames, 5)
        blocks = [(start, kept.copy(), kept.base) for start, kept in s.blocks(size)]
        sizes = [len(kept) for _, kept, _ in blocks]
        assert [start for start, _, _ in blocks] == list(np.cumsum([0] + sizes[:-1]))
        assert sum(sizes) == s.num_frames
        assert all(n == size for n in sizes[:-1])
        assert len(sizes) == 1 or size // 2 <= sizes[-1] < size + size // 2
        assert len({id(base) for _, _, base in blocks}) == 1
        got = np.concatenate([kept for _, kept, _ in blocks])
        assert got.dtype == np.float32 and got.tobytes() == s.load_features().tobytes()


def test_a_split_of_mixed_feature_widths_fails_naming_the_file(tmp_path):
    """Every video of a split has the first file's feature width: the first
    file of another width fails the load, named with both widths."""
    write_toy_dataset(tmp_path, {"v1": ["a", "b"], "v2": ["b", "a"], "v3": ["a", "a"]}, d=8)
    wide = tmp_path / "features" / "v2.feat"
    D.write_features(wide, np.zeros((2, 9), dtype=np.float32))
    D.write_features(tmp_path / "features" / "v3.feat", np.zeros((2, 7), dtype=np.float32))
    first = tmp_path / "features" / "v1.feat"
    with pytest.raises(DatasetError) as exc:
        D.load_dataset(tmp_path, "splits/all.bundle")
    assert str(exc.value) == f"{wide}: features are 9 wide, not 8 as in {first}"


def test_malformed_mapping_line_reports_lineno(tmp_path):
    write_toy_dataset(tmp_path, {"v1": ["a", "b"]})
    (tmp_path / "mapping.txt").write_text("0 a\nbroken line here\n")
    with pytest.raises(DatasetError, match=":2:"):
        D.load_dataset(tmp_path, "splits/all.bundle")


@pytest.mark.parametrize(
    "line,error",
    [("\u00b2 b", "malformed mapping line '\u00b2 b'"),  # str.isdigit, but not int
     ("1 a", "class name 'a' is listed again (first at line 1)"),
     ("0 b", "class id 0 is listed again (first at line 1)")],
    ids=["superscript-id", "name-twice", "id-twice"],
)
def test_mapping_line_that_reads_two_ways_is_refused_at_its_line(tmp_path, line, error):
    """A superscript digit passes ``str.isdigit`` but not ``int``, and a name
    or an id listed twice would make one class name two ids or two names one
    id: each is refused with the file and the line."""
    write_toy_dataset(tmp_path, {"v1": ["a", "b"]})
    path = tmp_path / "mapping.txt"
    path.write_text(f"0 a\n{line}\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        D.load_dataset(tmp_path, "splits/all.bundle")
    assert str(exc.value) == f"{path}:2: {error}"


@pytest.mark.parametrize(
    "name", ["mapping.txt", "groundTruth/v1.txt", "splits/all.bundle"]
)
def test_text_that_is_not_utf8_raises_dataset_error_naming_the_file(tmp_path, name):
    """The mapping, a ground-truth file and the split are read as UTF-8
    whatever the locale; a byte that is not UTF-8 names the file and where
    the byte is."""
    write_toy_dataset(tmp_path, {"v1": ["a", "b"]})
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    offset = path.stat().st_size - 2
    with pytest.raises(DatasetError) as exc:
        D.load_dataset(tmp_path, "splits/all.bundle")
    assert str(exc.value) == f"{path}: not UTF-8 text (byte 0xff at offset {offset})"


def test_unknown_class_and_missing_feature(tmp_path):
    write_toy_dataset(tmp_path, {"v1": ["a", "b"]})
    (tmp_path / "groundTruth" / "v1.txt").write_text("a\nmystery\n")
    with pytest.raises(DatasetError, match="mystery"):
        D.load_dataset(tmp_path, "splits/all.bundle")
    (tmp_path / "groundTruth" / "v1.txt").write_text("a\nb\n")
    (tmp_path / "features" / "v1.feat").unlink()
    with pytest.raises(DatasetError, match="missing feature"):
        D.load_dataset(tmp_path, "splits/all.bundle")


def test_an_unknown_class_names_its_ground_truth_file_and_line(tmp_path):
    write_toy_dataset(tmp_path, {"v1": ["a", "b"], "v2": ["a", "b"]})
    gt = tmp_path / "groundTruth" / "v2.txt"
    gt.write_text("a\n\nb\n  mystery  \nb\n")  # the blank line still counts
    with pytest.raises(DatasetError, match=re.escape(f"{gt}:4: unknown class name 'mystery'")):
        D.load_dataset(tmp_path, "splits/all.bundle")


def test_resample_and_upsample_predictions(tmp_path):
    write_toy_dataset(tmp_path, {"v": ["a", "a", "b", "b", "c", "c"]}, d=2)
    D.write_features(tmp_path / "features" / "v.feat", np.arange(12, dtype=np.float32).reshape(6, 2))
    (half,), _ = D.load_dataset(tmp_path, "splits/all.bundle", stride=2)
    assert half.num_frames == 3
    np.testing.assert_array_equal(half.labels, [0, 1, 2])
    np.testing.assert_array_equal(half.load_features()[:, 0], [0, 4, 8])
    assert half.source_len == 6 and half.stride == 2


@pytest.mark.parametrize("frames", [5, 6, 7])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_restore_source_rate_gives_every_source_frame_its_strided_label(tmp_path, stride, frames):
    """A strided sample holds ceil(frames / stride) labels; each covers the
    ``stride`` source frames from its own, and the last is cut at the
    source length."""
    write_toy_dataset(tmp_path, {"v": ["a"] * frames}, d=2)
    (sample,), _ = D.load_dataset(tmp_path, "splits/all.bundle", stride=stride)
    assert sample.num_frames == -(-frames // stride)
    restored = restore_source_rate(np.arange(sample.num_frames), sample)
    np.testing.assert_array_equal(restored, np.arange(frames) // stride)


def test_a_video_the_split_lists_twice_names_the_split_line(tmp_path):
    """``v1`` and ``v1.txt`` are one video; a blank line still counts."""
    write_toy_dataset(tmp_path, {"v1": ["a", "b"], "v2": ["a", "b"]})
    split = tmp_path / "splits" / "all.bundle"
    split.write_text("v1.txt\n\nv2\n v1 \n")
    message = f"{split}:4: video 'v1' is listed again (first at line 1)"
    with pytest.raises(DatasetError, match=re.escape(message)):
        D.load_dataset(tmp_path, "splits/all.bundle")


@pytest.mark.parametrize(
    "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_a_newline_ends_a_ground_truth_or_split_line(tmp_path, sep):
    """``str.splitlines`` also breaks at these characters, which made one
    ground-truth line two labels and put every later ``file:line`` one line
    past the one an editor shows; like ``mapping.txt``, these files break
    lines at "\\n" only."""
    write_toy_dataset(tmp_path, {"v1": ["a", "b", "b"]})
    gt = tmp_path / "groundTruth" / "v1.txt"
    gt.write_text(f"a\na{sep}b\nb\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        D.load_dataset(tmp_path, "splits/all.bundle")
    assert str(exc.value) == f"{gt}:2: unknown class name {f'a{sep}b'!r}"
    gt.write_text("a\nb\nb\n")
    split = tmp_path / "splits" / "all.bundle"
    split.write_text(f"v1{sep}\nv1\n", encoding="utf-8")
    message = f"{split}:2: video 'v1' is listed again (first at line 1)"
    with pytest.raises(DatasetError, match=re.escape(message)):
        D.load_dataset(tmp_path, "splits/all.bundle")


def test_synth_spec_checks_itself_when_built_and_is_frozen():
    with pytest.raises(DatasetError, match="positive"):
        D.SynthSpec(num_videos=0)
    with pytest.raises(DatasetError, match="inverted"):
        D.SynthSpec(min_len=10, max_len=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        D.SynthSpec().seed = 1


@pytest.mark.parametrize("fields,message", [
    (dict(min_segments=0), "min_segments must lie in"),
    (dict(min_len=2, max_len=2, min_segments=3), "min_len=2"),
    (dict(num_classes=1, min_segments=2), "one class"),
    (dict(num_classes=1, min_segments=1, max_segments=2), "one class"),
    (dict(noise=float("nan")), "noise must be finite"),
    (dict(noise=float("inf")), "noise must be finite"),
    (dict(seed=-1), "seed must be >= 0"),
])
def test_synth_spec_refuses_what_it_cannot_generate(fields, message):
    """No segment, more segments than the shortest video has frames, two
    adjacent segments with one class, a noise that is not finite, or a seed
    the generator refuses: the spec is refused when it is built, before
    anything is drawn."""
    with pytest.raises(DatasetError, match=message):
        D.SynthSpec(**fields)


def test_the_edge_specs_the_checks_allow_generate():
    """One frame per segment, and one class in one segment, still generate."""
    for spec in (D.SynthSpec(min_len=3, max_len=3, min_segments=3, max_segments=3, num_videos=2),
                 D.SynthSpec(num_classes=1, min_segments=1, max_segments=1, num_videos=2)):
        samples, _ = D.generate_synthetic(spec)
        for sample in samples:
            runs = np.flatnonzero(np.diff(sample.labels)) + 1
            assert len(runs) + 1 == spec.min_segments
            assert np.isfinite(sample.features).all()


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
        starts, ends = L.derive_boundaries(sample.labels)
        segs = M.extract_segments(sample.labels.tolist())
        np.testing.assert_array_equal(starts, [s.start for s in segs])
        np.testing.assert_array_equal(ends, [s.end for s in segs])


def test_write_dataset_roundtrip(tmp_path):
    spec = D.SynthSpec(num_videos=3, min_len=20, max_len=30, seed=1)
    samples, mapping = D.generate_synthetic(spec)
    D.write_dataset(tmp_path, samples, mapping)
    loaded, loaded_mapping = D.load_dataset(tmp_path, "splits/all.bundle")
    assert loaded_mapping.names == mapping.names
    for orig, back in zip(samples, loaded):
        assert orig.video_id == back.video_id
        np.testing.assert_array_equal(orig.features, back.load_features())
        np.testing.assert_array_equal(orig.labels, back.labels)
