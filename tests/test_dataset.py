import json
from dataclasses import fields, replace

import numpy as np
import pytest

from spoofbench.channel import ChannelParams
from spoofbench.configio import ConfigError
from spoofbench.dataset import (
    DatasetFormatError,
    DatasetSpec,
    LabeledDataset,
    generate,
    CHUNK_ROWS,
    iter_delta_chunks,
    load,
    row_plan,
    save,
    select_bs_subset,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)
from spoofbench.features import FEATURES_PER_BS
from spoofbench.scenario import BaseStation, ScenarioConfig, default_config


def small_spec(method="mvsk", n_bs=3, seed=1, train=40, test=20):
    return DatasetSpec(
        scenario=default_config(),
        channel=ChannelParams(carrier_frequency=2.0, rng_seed=seed),
        method=method,
        n_bs=n_bs,
        train_size=train,
        test_size=test,
        rng_seed=seed,
    )


def test_select_bs_subset():
    assert select_bs_subset(3) == (1, 2, 3)
    assert select_bs_subset(2) == (1, 3)
    assert select_bs_subset(1) == (1,)
    with pytest.raises(ValueError):
        select_bs_subset(4)


def test_spec_default_sizes_match_reference_dataset():
    spec = DatasetSpec(
        scenario=default_config(),
        channel=ChannelParams(carrier_frequency=2.0),
        method="wd",
        n_bs=3,
    )
    assert spec.train_size == 2259
    assert spec.test_size == 969


def test_generate_shapes_and_balance():
    spec = small_spec(method="mvsk", n_bs=3, train=41, test=20)
    train_ds, test_ds = generate(spec)
    assert len(train_ds.rows) == 41 and len(test_ds.rows) == 20
    assert train_ds.width == 12 and test_ds.width == 12
    for ds in (train_ds, test_ds):
        spoofed = sum(r.label for r in ds.rows)
        assert abs(spoofed - (len(ds.rows) - spoofed)) <= 1
    assert train_ds.split == "train" and test_ds.split == "test"
    assert train_ds.provenance == spec_hash(spec)


@pytest.mark.parametrize("method,n_bs", [("mvsk", 2), ("box", 1), ("wd", 3)])
def test_generate_width_matches_method_and_stations(method, n_bs):
    train_ds, _ = generate(small_spec(method=method, n_bs=n_bs, train=8, test=4))
    assert train_ds.width == n_bs * FEATURES_PER_BS[method]


def test_generate_is_deterministic():
    a_train, a_test = generate(small_spec(seed=5))
    b_train, b_test = generate(small_spec(seed=5))
    assert a_train == b_train
    assert a_test == b_test
    c_train, _ = generate(small_spec(seed=6))
    assert a_train != c_train


def test_train_and_test_noise_seeds_are_disjoint():
    spec = small_spec(train=200, test=200)
    train_seeds = {p.noise_seed for p in row_plan(spec, "train")}
    test_seeds = {p.noise_seed for p in row_plan(spec, "test")}
    assert not train_seeds & test_seeds
    assert len(train_seeds) == 200 and len(test_seeds) == 200


def test_row_plan_cycles_spoofed_destinations():
    spec = small_spec(train=64, test=4)
    plans = row_plan(spec, "train")
    assert all(p.label == (p.index % 2 == 0) for p in plans)
    spoofed_dests = [p.dest_index for p in plans if p.label]
    assert set(spoofed_dests) <= set(range(1, 16))
    assert all(p.dest_index == 0 for p in plans if not p.label)


def test_delta_rows_agree_with_mvsk_mean_feature():
    spec = small_spec(method="mvsk", n_bs=2, train=6, test=4)
    train_ds, _ = generate(spec)
    (plans, deltas), = iter_delta_chunks(spec, "train")
    assert deltas.shape == (6, 2, 100)
    for plan, row_deltas, row in zip(plans, deltas, train_ds.rows):
        assert plan.label == row.label
        for k, d in enumerate(row_deltas):
            mean_feature = row.per_bs[k][1][0]
            assert float(np.mean(d)) == pytest.approx(mean_feature, rel=1e-12)


def test_delta_chunks_cover_the_split_in_order():
    spec = small_spec(method="wd", n_bs=1, train=CHUNK_ROWS + 3, test=2)
    chunks = list(iter_delta_chunks(spec, "train"))
    assert [len(plans) for plans, _ in chunks] == [CHUNK_ROWS, 3]
    assert [p.index for plans, _ in chunks for p in plans] == list(range(CHUNK_ROWS + 3))
    assert all(d.shape == (len(plans), 1, 100) for plans, d in chunks)


def test_save_load_round_trip(tmp_path):
    train_ds, test_ds = generate(small_spec(method="box", n_bs=2, train=10, test=6))
    for ds, name in ((train_ds, "train.csv"), (test_ds, "test.csv")):
        path = tmp_path / name
        save(ds, path)
        assert load(path) == ds


def test_save_load_round_trip_without_spec(tmp_path):
    train_ds, _ = generate(small_spec(method="mvsk", n_bs=2, train=10, test=6))
    bare = LabeledDataset(rows=train_ds.rows, split="train", provenance=train_ds.provenance)
    path = tmp_path / "train.csv"
    save(bare, path)
    again = load(path)
    assert again == bare
    assert [bs_id for bs_id, _ in again.rows[0].per_bs] == [1, 3]

    sidecar_path = tmp_path / "train.meta.json"
    doc = json.loads(sidecar_path.read_text())
    doc["bs_ids"] = [1, 2, 3]
    sidecar_path.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="3 stations"):
        load(path)
    del doc["bs_ids"]
    sidecar_path.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="neither bs_ids nor a spec"):
        load(path)


def test_load_reports_bad_cells(tmp_path):
    ds, _ = generate(small_spec(method="wd", n_bs=1, train=6, test=4))
    path = tmp_path / "train.csv"
    save(ds, path)
    lines = path.read_text().splitlines()

    broken = lines[:]
    broken[2] = broken[2].replace(broken[2].split(",")[1], "not-a-number", 1)
    path.write_text("\n".join(broken) + "\n")
    with pytest.raises(DatasetFormatError, match=r"row 3, column 2"):
        load(path)

    broken = lines[:]
    broken[4] = broken[4] + ",0.5"  # extra cell
    path.write_text("\n".join(broken) + "\n")
    with pytest.raises(DatasetFormatError, match=r"row 5: expected 2 columns, found 3"):
        load(path)

    broken = lines[:]
    broken[1] = "7" + broken[1][1:]
    path.write_text("\n".join(broken) + "\n")
    with pytest.raises(DatasetFormatError, match=r"row 2, column 1"):
        load(path)

    path.write_text("f1,f2\n1.0,2.0\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load(path)


def test_load_requires_sidecar(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("label,f1\n1,0.5\n0,0.3\n")
    with pytest.raises(DatasetFormatError, match="sidecar"):
        load(path)


def test_load_detects_tampered_sidecar(tmp_path):
    ds, _ = generate(small_spec(method="wd", n_bs=1, train=6, test=4))
    path = tmp_path / "train.csv"
    save(ds, path)
    sidecar_path = tmp_path / "train.meta.json"
    original = sidecar_path.read_text()
    doc = json.loads(original)
    doc["spec"]["scenario"]["rng_seed"] = 999  # silently alter provenance
    sidecar_path.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="hash"):
        load(path)
    doc = json.loads(original)
    doc["bs_ids"] = [2]  # relabel the station
    sidecar_path.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="disagree"):
        load(path)


def test_spec_dict_round_trip():
    spec = small_spec(method="wd", n_bs=2, seed=3)
    doc = spec_to_dict(spec)
    again = spec_from_dict(json.loads(json.dumps(doc)))
    assert again == spec
    assert spec_hash(again) == spec_hash(spec)


_DROP = object()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("n_bs", 2.9, "n_bs must be an integer"),
        ("n_bs", 2.0, "n_bs must be an integer"),
        ("n_bs", 4, "invalid spec value: n_bs must be one of"),
        ("rng_seed", True, "rng_seed must be an integer"),
        ("train_size", "40", "train_size must be an integer"),
        ("test_size", None, "test_size must be an integer"),
        ("method", 3, "method must be a string"),
        ("method", _DROP, "spec missing keys: method"),
        ("n_bs", _DROP, "spec missing keys: n_bs"),
        ("scenario", [], "scenario must be an object"),
    ],
)
def test_spec_from_dict_rejects_bad_values_naming_the_key(key, value, message):
    doc = json.loads(json.dumps(spec_to_dict(small_spec(method="wd", n_bs=2))))
    if value is _DROP:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ConfigError, match=message):
        spec_from_dict(doc)


# One changed valid value for every field a spec is built from.
CHANGES = {
    ScenarioConfig: {
        "base_stations": tuple(default_config().base_stations[:2]) + (BaseStation(3, [300.0, 160.0, 35.0]),),
        "start": np.array([150.0, 150.0, 151.0]),
        "mission_radius": 99.0,
        "n_destinations": 8,
        "window_size": 50,
        "sample_period": 0.5,
    },
    ChannelParams: {
        "carrier_frequency": 3.5,
        "los_shadow_formula": False,
        "nlos_shadow_sigma": 5.0,
        "meas_noise_sigma": 0.4,
        "rng_seed": 2,
        "sampled_los": True,
    },
    DatasetSpec: {"method": "box", "n_bs": 2, "train_size": 41, "test_size": 21, "rng_seed": 2},
}


def _changed(spec, owner, name):
    value = CHANGES[owner][name]
    if owner is ScenarioConfig:
        return replace(spec, scenario=replace(spec.scenario, **{name: value}))
    if owner is ChannelParams:
        return replace(spec, channel=replace(spec.channel, **{name: value}))
    return replace(spec, **{name: value})


def test_changes_cover_every_field():
    for owner, changes in CHANGES.items():
        names = {f.name for f in fields(owner)}
        if owner is DatasetSpec:
            names -= {"scenario", "channel"}  # covered field by field above
        assert set(changes) == names, owner.__name__


@pytest.mark.parametrize(
    "owner,name", [(owner, name) for owner, changes in CHANGES.items() for name in changes],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_spec_hash_covers_every_field(owner, name):
    spec = small_spec(method="wd", n_bs=3)
    changed = _changed(spec, owner, name)
    assert changed != spec
    assert spec_hash(changed) != spec_hash(spec)
    for s in (spec, changed):
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(s)))) == s


def test_labeled_dataset_requires_both_classes():
    ds, _ = generate(small_spec(train=6, test=4))
    with pytest.raises(ValueError, match="both classes"):
        LabeledDataset(
            rows=[r for r in ds.rows if r.label],
            split="train",
            provenance=ds.provenance,
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(method="nope")
    with pytest.raises(ValueError):
        small_spec(n_bs=5)
    with pytest.raises(ValueError):
        small_spec(train=0)
