import hashlib
import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambitrace.data_io import (
    FAMILIES,
    FORMAT_VERSION,
    SPLIT_MODES,
    DataError,
    DatasetConfig,
    ExperimentManifest,
    ItemEntry,
    ModelConfig,
    ReportError,
    RepresentationConfig,
    SplitSpec,
    TrainConfig,
    load_manifest,
    read_json,
    save_manifest,
)
from ambitrace.dataset import (
    SynthConfig,
    dataset_digest,
    load_feature_table,
    load_trace_table,
    make_splits,
    prepare_item,
    read_table,
    synth_generate,
    write_feature_table,
    write_trace_table,
)
from ambitrace.metrics import ccc
from ambitrace.pipeline import run_synth


def dataset_hash(manifest: ExperimentManifest) -> str:
    """Digest of the dataset config and every referenced data file."""
    digest = dataset_digest(manifest)
    for item in manifest.dataset.items:
        for rel in (item.trace_file, item.feature_file):
            with open(manifest.resolve(rel), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# The hand-written serialiser that ``save_manifest`` and ``dataset_digest``
# replaced with ``dataclasses.asdict``, kept as the reference for their bytes.
def manifest_to_dict(manifest: ExperimentManifest) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "seed": manifest.seed,
        "dataset": {
            "name": manifest.dataset.name,
            "native_period": manifest.dataset.native_period,
            "window_length": manifest.dataset.window_length,
            "delay_offset": manifest.dataset.delay_offset,
            "keep_first": manifest.dataset.keep_first,
            "bounds": list(manifest.dataset.bounds) if manifest.dataset.bounds else None,
            "items": [asdict(it) for it in manifest.dataset.items],
        },
        "representation": {"family": manifest.representation.family,
                           "neighbor_radius": manifest.representation.neighbor_radius},
        "model": {"hidden_dim": manifest.model.hidden_dim,
                  "num_layers": manifest.model.num_layers, "seed": manifest.model.seed},
        "train": asdict(manifest.train),
        "split": asdict(manifest.split),
    }


class TestTraceTable:
    def test_small_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,alice,bob\n0.0,0.1,0.2\n0.5,0.3,0.4\n1.0,0.5,0.6\n")
        annotators, matrix, period = load_trace_table(path)
        assert annotators == ["alice", "bob"]
        np.testing.assert_array_equal(matrix, [[0.1, 0.3, 0.5], [0.2, 0.4, 0.6]])
        assert matrix.flags.c_contiguous
        assert period == 0.5

    def test_non_uniform_timing_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,a,b\n0.0,1,1\n1.0,2,2\n2.5,3,3\n")
        with pytest.raises(DataError, match="line 4"):
            load_trace_table(path)

    def test_non_increasing_time_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,a,b\n1.0,1,1\n1.0,2,2\n")
        with pytest.raises(DataError, match="non-increasing time at line 3"):
            load_trace_table(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,a,b\n0.0,1,1\n1.0,2\n")
        with pytest.raises(DataError, match="ragged"):
            load_trace_table(path)

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_time_names_line(self, tmp_path, time):
        path = tmp_path / "t.csv"
        path.write_text(f"time_s,a,b\n0.0,1,1\n{time},2,2\n2.0,3,3\n")
        with pytest.raises(DataError, match="non-finite value at line 3"):
            load_trace_table(path)

    def test_overflowing_time_step_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,a,b\n-1e308,1,1\n1e308,2,2\n")
        with pytest.raises(DataError, match="time step at line 3"):
            load_trace_table(path)

    def test_duplicate_annotator_ids_rejected(self, tmp_path):
        with pytest.raises(DataError, match="annotator ids must be unique"):
            write_trace_table(tmp_path / "t.csv", ["a", "a"], np.zeros((2, 3)), 1.0)
        assert not (tmp_path / "t.csv").exists()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(3, 25))
        path = tmp_path / "rt.csv"
        write_trace_table(path, ["ann0", "ann1", "ann2"], matrix, 0.04)
        annotators, loaded, period = load_trace_table(path)
        assert annotators == ["ann0", "ann1", "ann2"]
        assert period == pytest.approx(0.04)
        np.testing.assert_array_equal(loaded, matrix)


class TestFeatureTable:
    def test_round_trip(self, tmp_path):
        matrix = np.random.default_rng(1).normal(size=(5, 3))
        path = tmp_path / "f.csv"
        write_feature_table(path, "item1", matrix, "features")
        loaded = load_feature_table(path)
        assert read_table(path).meta["item_id"] == "item1"
        np.testing.assert_array_equal(loaded, matrix)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# item_id: x\nwindow_index,f000,f001\n0,1.0,2.0\n1,1.0,inf\n")
        message = f"{path}: non-finite value at line 4"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_feature_table(path)


class TestSplits:
    def test_thirty_groups_k10(self):
        items = [(f"i{n}", f"g{n % 30}") for n in range(120)]
        folds = make_splits(items, SplitSpec(mode="k_fold_grouped", k=10, seed=0))
        assert len(folds) == 10
        all_val = []
        for train, val in folds:
            val_groups = {g for i, g in items if i in set(val)}
            train_groups = {g for i, g in items if i in set(train)}
            assert len(val_groups) == 3
            assert len(train_groups) == 27
            assert not val_groups & train_groups
            all_val.extend(val)
        assert sorted(all_val) == sorted(i for i, _ in items)

    def test_leave_one_group_out(self):
        items = [(f"i{n}", f"g{n}") for n in range(5)]
        folds = make_splits(items, SplitSpec(k=5, seed=1))
        assert len(folds) == 5
        assert all(len(val) == 1 for _, val in folds)

    def test_seed_reproducible(self):
        items = [(f"i{n}", f"g{n % 7}") for n in range(21)]
        a = make_splits(items, SplitSpec(k=7, seed=42))
        b = make_splits(items, SplitSpec(k=7, seed=42))
        assert a == b

    def test_k_exceeding_groups(self):
        with pytest.raises(DataError, match=r"^split\.k: 3 exceeds the 2 available groups$"):
            make_splits([("a", "g0"), ("b", "g1")], SplitSpec(k=3))

    def test_fixed_split_without_labels_names_the_mode(self):
        with pytest.raises(DataError, match=r"^split\.mode: fixed_train_dev needs items "
                                            r"labeled 'train' and 'dev'$"):
            make_splits([("a", "train"), ("b", "g1")], SplitSpec(mode="fixed_train_dev"))

    def test_fixed_train_dev(self):
        items = [("a", "train"), ("b", "train"), ("c", "dev")]
        folds = make_splits(items, SplitSpec(mode="fixed_train_dev"))
        assert folds == [(["a", "b"], ["c"])]


class TestReadJson:
    @pytest.mark.parametrize("content, reason", [
        (b'{"seed": "\xff"}', "not a readable manifest: 'utf-8' codec can't decode"),
        (b'{"seed": 1', "not a readable manifest: Expecting"),
        (b"[" * 100_000, "not a readable manifest: maximum recursion depth"),
        (b"1" * 5000, "not a readable manifest: Exceeds the limit"),
        (json.dumps(list(range(20_000))).encode(),
         "expected a JSON object, got [0, 1, 2, 3, 4, 5, ...]"),
    ])
    def test_bad_file_names_it(self, tmp_path, content, reason):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(DataError) as info:
            read_json(path, "manifest")
        assert str(info.value).startswith(f"{path}: {reason}"), str(info.value)

    def test_unreadable_path_and_error_class(self, tmp_path):
        with pytest.raises(ReportError, match=f"^{re.escape(str(tmp_path))}: not a readable "
                                              "summary: ") as info:
            read_json(tmp_path, "summary", ReportError)
        assert info.value.exit_code == 5
        assert isinstance(info.value.__cause__, IsADirectoryError)

    def test_reads_an_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2.5, "x"]}')
        assert read_json(path, "config") == {"a": [1, 2.5, "x"]}


class TestSynth:
    def test_deterministic(self):
        cfg = SynthConfig(items=3, groups=3, seed=7)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.latent, y.latent)
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.trace_set.matrix, y.trace_set.matrix)

    def test_noise_free_consistent_traces_identical(self):
        cfg = SynthConfig(items=2, groups=2, offset_std=0.0, noise_std=0.0, seed=0)
        for item in synth_generate(cfg):
            matrix = item.trace_set.matrix
            expected = np.broadcast_to(matrix[0], matrix.shape)
            np.testing.assert_allclose(matrix, expected, atol=1e-15)

    def test_latent_learnable_from_features(self):
        cfg = SynthConfig(seed=3)
        items = synth_generate(cfg)
        F = np.concatenate([it.features for it in items])
        L = np.concatenate([it.latent for it in items])
        design = np.c_[F, np.ones(len(F))]
        coef, *_ = np.linalg.lstsq(design, L, rcond=None)
        assert ccc(L, design @ coef) > 0.95

    def test_inconsistent_scenario_has_sign_disagreement(self):
        cfg = SynthConfig(items=5, groups=5, scenario="inconsistent_trend", seed=2,
                          noise_std=0.0, offset_std=0.0)
        for item in synth_generate(cfg):
            corr = np.corrcoef(item.trace_set.matrix)
            assert corr.min() < -0.9  # at least one anti-correlated pair

    def test_config_validation(self):
        with pytest.raises(DataError):
            SynthConfig(noise_std=-0.1)
        with pytest.raises(DataError):
            SynthConfig(annotators=1)
        with pytest.raises(DataError):
            SynthConfig(scenario="chaotic")


def _write_item(tmp_path, name, n_samples, period, n_windows, dim=4, value=0.0):
    write_trace_table(tmp_path / f"{name}_traces.csv", ["a", "b"],
                      np.full((2, n_samples), value), period)
    write_feature_table(tmp_path / f"{name}_features.csv", name, np.zeros((n_windows, dim)),
                        "features")
    return ItemEntry(
        item_id=name,
        group="g0",
        trace_file=f"{name}_traces.csv",
        feature_file=f"{name}_features.csv",
    )


class TestManifest:
    def test_recola_profile_constants(self, tmp_path):
        # 40 ms sampling, 3 s windows, 4 s delay: 2 windows need
        # 100 + 150 native samples.
        item = _write_item(tmp_path, "u1", 250, 0.04, 2)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(
                native_period=0.04,
                window_length=3.0,
                delay_offset=4.0,
                bounds=(-1.0, 1.0),
                items=[item],
            ),
            representation=RepresentationConfig("beta_mapped"),
            model=ModelConfig(),
            train=TrainConfig(),
            split=SplitSpec(),
            base_dir=str(tmp_path),
        )
        assert manifest.dataset.samples_per_window == 75
        trace_set, feats = prepare_item(manifest, item)
        assert trace_set.window_count == 2
        assert feats.shape[0] == 2

    def test_gamevibe_profile_constants(self, tmp_path):
        item = _write_item(tmp_path, "v1", 21 * 12, 0.25, 21)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(
                native_period=0.25,
                window_length=3.0,
                keep_first=19,
                items=[item],
            ),
            representation=RepresentationConfig("gaussian"),
            model=ModelConfig(),
            train=TrainConfig(),
            split=SplitSpec(),
            base_dir=str(tmp_path),
        )
        assert manifest.dataset.samples_per_window == 12
        trace_set, feats = prepare_item(manifest, item)
        assert trace_set.window_count == 19
        assert feats.shape[0] == 19

    def test_save_load_round_trip(self, tmp_path):
        item = _write_item(tmp_path, "w1", 20, 1.0, 20)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(
                native_period=1.0, window_length=1.0, items=[item], keep_first=19
            ),
            representation=RepresentationConfig("gaussian"),
            model=ModelConfig(hidden_dim=8),
            train=TrainConfig(max_epochs=2),
            split=SplitSpec(k=2),
            seed=5,
            base_dir=str(tmp_path),
        )
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.seed == 5
        assert loaded.dataset.keep_first == 19
        assert loaded.model == ModelConfig(hidden_dim=8)
        assert loaded == manifest

    def test_missing_feature_file_names_item(self, tmp_path):
        item = _write_item(tmp_path, "x1", 20, 1.0, 20)
        (tmp_path / "x1_features.csv").unlink()
        doc = {
            "dataset": {
                "native_period": 1.0,
                "window_length": 1.0,
                "items": [
                    {"item_id": "x1", "group": "g0",
                     "trace_file": "x1_traces.csv",
                     "feature_file": "x1_features.csv"}
                ],
            },
            "representation": {"family": "gaussian"},
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="x1"):
            load_manifest(path)

    def test_tables_are_read_only_when_items_are_prepared(self, tmp_path):
        item = _write_item(tmp_path, "m1", 20, 1.0, 20)
        (tmp_path / "m1_features.csv").write_text("window_index,f000\n0,abc\n")
        manifest = ExperimentManifest(
            dataset=DatasetConfig(native_period=1.0, window_length=1.0, items=[item]),
            representation=RepresentationConfig("gaussian"), model=ModelConfig(), train=TrainConfig(), split=SplitSpec(),
            base_dir=str(tmp_path),
        )
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        with pytest.raises(DataError, match="m1_features.csv: bad value at line 2"):
            prepare_item(loaded, loaded.dataset.items[0])

    @pytest.mark.parametrize("period", [0.5, 2.0, 1.0 + 1e-6])
    def test_trace_period_must_match_native_period(self, tmp_path, period):
        item = _write_item(tmp_path, "p1", 20, 1.0, 20)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(native_period=period, window_length=2 * period,
                                  items=[item]),
            representation=RepresentationConfig("gaussian"), model=ModelConfig(), train=TrainConfig(), split=SplitSpec(),
            base_dir=str(tmp_path),
        )
        with pytest.raises(DataError, match=f"p1_traces.csv: time step 1 s does not match "
                                            f"dataset.native_period {period:.12g} s"):
            prepare_item(manifest, item)

    def test_trace_period_within_tolerance_accepted(self, tmp_path):
        item = _write_item(tmp_path, "p2", 20, 1.0, 20)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(native_period=1.0 + 1e-12, window_length=1.0 + 1e-12,
                                  items=[item]),
            representation=RepresentationConfig("gaussian"), model=ModelConfig(), train=TrainConfig(), split=SplitSpec(),
            base_dir=str(tmp_path),
        )
        trace_set, _ = prepare_item(manifest, item)
        assert trace_set.window_count == 20

    def test_short_features_rejected(self, tmp_path):
        item = _write_item(tmp_path, "y1", 20, 1.0, 10)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(native_period=1.0, window_length=1.0, items=[item]),
            representation=RepresentationConfig("gaussian"),
            model=ModelConfig(),
            train=TrainConfig(),
            split=SplitSpec(),
            base_dir=str(tmp_path),
        )
        with pytest.raises(DataError, match="y1"):
            prepare_item(manifest, item)

    @pytest.mark.parametrize("field, value", [("window_length", 1.3), ("delay_offset", 0.49)])
    def test_fractional_sample_counts_rejected(self, field, value):
        settings = dict(native_period=1.0, window_length=1.0, items=[])
        settings[field] = value
        with pytest.raises(DataError, match=f"{field}: {value} is not a whole multiple"):
            DatasetConfig(**settings)

    @pytest.mark.parametrize("seed", [-1, "x"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DataError, match="^seed: expected an integer"):
            ExperimentManifest(
                dataset=DatasetConfig(native_period=1.0, window_length=1.0, items=[]),
                representation=RepresentationConfig("gaussian"), model=ModelConfig(), train=TrainConfig(),
                split=SplitSpec(), seed=seed,
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(DataError, match="^family: expected one of gaussian, beta_mapped"):
            RepresentationConfig("cauchy")

    def test_dataset_hash_tracks_content(self, tmp_path):
        item = _write_item(tmp_path, "h1", 20, 1.0, 20)
        manifest = ExperimentManifest(
            dataset=DatasetConfig(native_period=1.0, window_length=1.0, items=[item]),
            representation=RepresentationConfig("gaussian"),
            model=ModelConfig(),
            train=TrainConfig(),
            split=SplitSpec(),
            base_dir=str(tmp_path),
        )
        h1 = dataset_hash(manifest)
        assert h1 == dataset_hash(manifest)
        item2 = _write_item(tmp_path, "h1", 20, 1.0, 20, value=1.0)
        assert dataset_hash(manifest) != h1

    def test_loader_digest_equals_dataset_hash(self, tmp_path):
        items = [_write_item(tmp_path, name, 20, 1.0, 20, value=value)
                 for name, value in (("b", 1.0), ("a", 2.0), ("c", 3.0))]
        manifest = ExperimentManifest(
            dataset=DatasetConfig(native_period=1.0, window_length=1.0, items=items),
            representation=RepresentationConfig("gaussian"),
            model=ModelConfig(),
            train=TrainConfig(),
            split=SplitSpec(),
            base_dir=str(tmp_path),
        )
        # Twice: with the memo missing, then hitting.
        for _ in range(2):
            digest = dataset_digest(manifest)
            for item in items:
                prepare_item(manifest, item, digest)
            assert digest.hexdigest() == dataset_hash(manifest)


class TestModelSeed:
    """The model seed is ``train-eval --seed``, else ``model.seed``, else the manifest seed."""

    @pytest.mark.parametrize("model, model_seed, expected", [
        ({}, None, 5),
        ({"seed": 7}, None, 7),
        ({}, 9, 9),
        ({"seed": 7}, 9, 9),
    ])
    def test_resolution_order(self, tmp_path, model, model_seed, expected):
        item = _write_item(tmp_path, "s1", 20, 1.0, 20)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "seed": 5, "model": model,
            "dataset": {"native_period": 1.0, "window_length": 1.0, "items": [asdict(item)]}}))
        loaded = load_manifest(path, model_seed)
        assert loaded.model == ModelConfig(seed=expected)
        assert loaded.seed == 5

    def test_a_bad_model_seed_is_refused_under_an_override(self, tmp_path):
        item = _write_item(tmp_path, "s2", 20, 1.0, 20)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "model": {"seed": -1},
            "dataset": {"native_period": 1.0, "window_length": 1.0, "items": [asdict(item)]}}))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: model.seed: expected"):
            load_manifest(path, 3)


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    """A directory holding one item's tables, for manifests saved beside them."""
    root = tmp_path_factory.mktemp("round_trip")
    _write_item(root, "r1", 20, 1.0, 20)
    return root


SEEDS = st.integers(min_value=0, max_value=2**40)


@st.composite
def manifests(draw, base_dir):
    """A valid manifest over the one item in ``base_dir``, every setting drawn."""
    item = ItemEntry(item_id="r1", group="g0", trace_file="r1_traces.csv",
                     feature_file="r1_features.csv")
    bounds = draw(st.sampled_from([None, (-1.0, 1.0)]))
    return ExperimentManifest(
        dataset=DatasetConfig(native_period=1.0, window_length=1.0, items=[item],
                              bounds=bounds, keep_first=draw(st.none() | st.integers(1, 30))),
        representation=RepresentationConfig(
            draw(st.sampled_from(FAMILIES if bounds else ("gaussian",))),
            draw(st.integers(0, 5))),
        model=ModelConfig(hidden_dim=draw(st.integers(1, 256)), seed=draw(SEEDS)),
        train=TrainConfig(
            learning_rate=draw(st.floats(0, 1e6)),
            weight_decay=draw(st.floats(0, 1, exclude_max=True)),
            max_epochs=draw(st.integers(0, 10**6)),
            segment_length=draw(st.integers(2, 10**4)),
            batch_segments=draw(st.integers(1, 512)),
            target_margin=draw(st.floats(0, 1, exclude_min=True))),
        split=SplitSpec(mode=draw(st.sampled_from(SPLIT_MODES)), k=draw(st.integers(2, 20)),
                        seed=draw(SEEDS)),
        seed=draw(SEEDS),
        base_dir=str(base_dir),
    )


class TestManifestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_load_gives_back_the_saved_manifest(self, round_trip_dir, data):
        manifest = data.draw(manifests(round_trip_dir))
        path = round_trip_dir / "manifest.json"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest
        # Saving what was loaded writes the same bytes.
        saved = path.read_bytes()
        save_manifest(load_manifest(path), path)
        assert path.read_bytes() == saved


class TestManifestSerialiser:
    """``save_manifest`` and ``dataset_digest`` against ``manifest_to_dict``.

    A field added to ``DatasetConfig`` or ``ExperimentManifest`` changes
    what ``asdict`` writes, and so every dataset hash; this fails first.
    """

    @pytest.fixture(params=["synth", "bounded"])
    def manifest(self, request, tmp_path):
        if request.param == "synth":
            config = tmp_path / "synth.json"
            config.write_text(json.dumps({"items": 4, "groups": 2, "seed": 3}))
            # The pipeline writes into a directory that exists, as the CLI's staging one does.
            (tmp_path / "data").mkdir()
            return run_synth(config, tmp_path / "data")
        items = [_write_item(tmp_path, name, 260, 0.04, 2) for name in ("u1", "u2")]
        return ExperimentManifest(
            dataset=DatasetConfig(native_period=0.04, window_length=3.0, delay_offset=4.0,
                                  keep_first=2, bounds=(-1.0, 1.0), items=items,
                                  name="bounded"),
            representation=RepresentationConfig("beta_mapped", 2),
            model=ModelConfig(hidden_dim=8), train=TrainConfig(max_epochs=2),
            split=SplitSpec(mode="fixed_train_dev"), seed=4, base_dir=str(tmp_path),
        )

    def test_saved_bytes_match_the_reference(self, manifest, tmp_path):
        path = tmp_path / "saved.json"
        save_manifest(manifest, path)
        expected = json.dumps(manifest_to_dict(manifest), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected

    def test_digest_matches_the_reference(self, manifest):
        doc = json.dumps(manifest_to_dict(manifest)["dataset"], sort_keys=True)
        expected = hashlib.sha256(doc.encode("utf-8")).hexdigest()
        assert dataset_digest(manifest).hexdigest() == expected
