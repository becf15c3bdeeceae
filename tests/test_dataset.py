import copy
import json
import re
import tempfile
import warnings
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import split_deltas
from oracles import reference_row_plan, reference_window
from spoofbench.channel import ChannelParams
from spoofbench.configio import ConfigError, load_config, save_config, save_csv
from spoofbench.dataset import (
    DatasetFormatError,
    DatasetSpec,
    LabeledDataset,
    generate,
    CHUNK_ROWS,
    load,
    load_spec,
    row_plan,
    save,
    select_bs_subset,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    spec_width,
    window_means,
)
from spoofbench.features import FEATURES_PER_BS, extract
from spoofbench.scenario import BaseStation, ScenarioConfig, default_config


def small_spec(method="mvsk", n_bs=3, seed=1, train=40, test=20):
    return DatasetSpec(
        scenario=default_config(),
        channel=ChannelParams(carrier_frequency=2.0, rng_seed=seed),
        method=method,
        n_bs=n_bs,
        train_size=train,
        test_size=test,
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
    assert train_ds.features.shape == (41, 12) and test_ds.features.shape == (20, 12)
    for ds in (train_ds, test_ds):
        spoofed = int(ds.labels.sum())
        assert abs(spoofed - (len(ds.labels) - spoofed)) <= 1
        assert ds.spec == spec
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


def plan_seeds(spec, split):
    """Every row's noise seed: row k's is first_seed + k."""
    dests, first_seed = row_plan(spec, split)
    return [first_seed + k for k in range(len(dests))]


def test_train_and_test_noise_seeds_are_disjoint():
    spec = small_spec(train=200, test=200)
    train_seeds = set(plan_seeds(spec, "train"))
    test_seeds = set(plan_seeds(spec, "test"))
    assert not train_seeds & test_seeds
    assert len(train_seeds) == 200 and len(test_seeds) == 200


def test_row_plan_cycles_spoofed_destinations():
    spec = small_spec(train=64, test=4)
    dests, _ = row_plan(spec, "train")
    assert (dests != 0).tolist() == [k % 2 == 0 for k in range(64)]
    assert set(dests[0::2].tolist()) <= set(range(1, 16))
    assert not np.any(dests[1::2])


@pytest.mark.parametrize("rng_seed", [1, 2**31, 2**40])
def test_row_plan_matches_the_per_row_reference(rng_seed):
    # From rng_seed 2**30 on the seeds exceed int64.
    spec = small_spec(seed=rng_seed, train=2 * CHUNK_ROWS + 5, test=CHUNK_ROWS + 1)
    for split in ("train", "test"):
        dests, first_seed = row_plan(spec, split)
        plan = [(d != 0, d, first_seed + k) for k, d in enumerate(dests.tolist())]
        assert plan == reference_row_plan(spec, split)


def test_windows_draw_with_the_reference_seeds_beyond_int64():
    spec = small_spec(method="wd", n_bs=1, seed=2**40, train=CHUNK_ROWS + 2, test=2)
    deltas = split_deltas(spec, "train")
    plan = reference_row_plan(spec, "train")
    station = spec.scenario.base_station_by_id(1)
    for k in (0, 1, CHUNK_ROWS, CHUNK_ROWS + 1):
        _, dest, seed = plan[k]
        measured, theoretical, _ = reference_window(spec.scenario, dest, seed, station, spec.channel)
        assert deltas[k, 0].tolist() == [abs(m - t) for m, t in zip(measured, theoretical)]


def test_delta_rows_agree_with_mvsk_mean_feature():
    spec = small_spec(method="mvsk", n_bs=2, train=6, test=4)
    train_ds, _ = generate(spec)
    deltas = split_deltas(spec, "train")
    assert deltas.shape == (6, 2, 100)
    assert train_ds.labels.tolist() == [label for label, _, _ in reference_row_plan(spec, "train")]
    means = train_ds.features.reshape(6, 2, 4)[..., 0]  # (rows, stations) window means
    assert np.mean(deltas, axis=-1) == pytest.approx(means, rel=1e-12)


@pytest.mark.parametrize("method", ["wd", "mvsk", "box"])
@pytest.mark.parametrize("n_bs", [1, 2, 3])
def test_window_means_of_saved_rows_equal_the_resimulated_means(tmp_path, method, n_bs):
    for ds in generate(small_spec(method=method, n_bs=n_bs, train=30, test=20)):
        save(ds, tmp_path / f"{ds.split}.csv")
        resimulated = extract(split_deltas(ds.spec, ds.split), "wd")
        means = window_means(load(tmp_path / f"{ds.split}.csv"))
        assert means.shape == (len(ds.labels), n_bs)
        assert means.tobytes() == resimulated.tobytes()


@pytest.mark.parametrize("sigma", [1e120, 1e160])
def test_generate_refuses_mvsk_moments_that_overflow(sigma):
    # Finite deltas whose variance, cubed (sigma 1e120) or as it is (sigma
    # 1e160), exceeds the largest float.
    spec = replace(small_spec(method="mvsk", n_bs=1, train=4, test=4),
                   channel=ChannelParams(meas_noise_sigma=sigma))
    with warnings.catch_warnings(), pytest.raises(ValueError, match="mvsk skewness and kurtosis overflow"):
        warnings.simplefilter("error", RuntimeWarning)  # numpy prints none of its own
        generate(spec)


def test_save_load_round_trip(tmp_path):
    train_ds, test_ds = generate(small_spec(method="box", n_bs=2, train=10, test=6))
    for ds, name in ((train_ds, "train.csv"), (test_ds, "test.csv")):
        path = tmp_path / name
        save(ds, path)
        assert load(path) == ds


def test_save_csv_writes_numpy_floats_as_digits_that_load_reads_back(tmp_path):
    ds, _ = generate(small_spec(method="mvsk", n_bs=2, train=10, test=6))
    path = tmp_path / "train.csv"
    save(ds, path)
    written = path.read_bytes()
    # The same rows as numpy scalars, not Python floats: str gives their digits.
    rows = [[int(label), *row] for label, row in zip(ds.labels, ds.features)]
    assert type(rows[0][1]) is np.float64
    save_csv(path, ["label"] + [f"f{i + 1}" for i in range(ds.width)], rows)
    assert path.read_bytes() == written
    assert load(path) == ds
    save_csv(tmp_path / "cells.csv", ["a", "b", "c"], [(np.float64(0.1), np.float64(1e-05), 1e16)])
    assert (tmp_path / "cells.csv").read_text() == "a,b,c\n0.1,1e-05,1e+16\n"


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

    # The header is exactly the label,f1..fK that save writes for the spec's width.
    for header in ("label,speed", "label,f2", "label,f1,f2", "label, f1"):
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: row 1: bad header {header!r}")):
            load(path)

    path.write_text("f1,f2\n1.0,2.0\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_cells_naming_row_and_column(tmp_path, cell):
    path = tmp_path / "train.csv"
    save(_wd3_train(), path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = cell
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: row 4, column 3: '{cell}' is not finite"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        load(path)


@cache
def _wd3_train():
    """A 40-row wd/3 train split."""
    return generate(small_spec(method="wd", n_bs=3))[0]


@cache
def _saved_sidecar() -> dict:
    """The sidecar `save` writes for _wd3_train()."""
    with tempfile.TemporaryDirectory() as tmp:
        save(_wd3_train(), Path(tmp) / "train.csv")
        return json.loads((Path(tmp) / "train.meta.json").read_text())


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.pop("split"), "sidecar missing keys: split"),
        (lambda d: d.pop("method"), "sidecar missing keys: method"),
        (lambda d: d.pop("spec_hash"), "sidecar missing keys: spec_hash"),
        (lambda d: d.pop("spec"), "sidecar missing keys: spec"),
        (lambda d: d.update(spec_hash="abc"), "spec_hash 'abc' disagrees with the spec's"),
        (lambda d: d.update(method="box"), "method 'box' disagrees with the spec's 'wd'"),
        (lambda d: d.update(bs_ids=[1.7, 2, 3]), "bs_ids [1.7, 2, 3] disagrees with the spec's [1, 2, 3]"),
        (lambda d: d.update(bs_ids=[1.0, 2, 3]), "bs_ids [1.0, 2, 3] disagrees with the spec's [1, 2, 3]"),
        (lambda d: d.update(bs_ids=3), "bs_ids 3 disagrees with the spec's [1, 2, 3]"),
        (lambda d: d.update(n_rows=999), "n_rows 999 disagrees with the spec's 40"),
        (lambda d: d.update(width=7), "width 7 disagrees with the spec's 3"),
        (lambda d: d.update(n_bs=2), "n_bs 2 disagrees with the spec's 3"),
        (lambda d: d.update(n_bs=True), "n_bs True disagrees with the spec's 3"),
        (lambda d: d.update(split=1), "split must be a string"),
        (lambda d: d.update(spec=[]), "spec must be an object"),
    ],
)
def test_load_rejects_bad_sidecars_naming_path_and_key(tmp_path, edit, message):
    path = tmp_path / "train.csv"
    save(_wd3_train(), path)
    doc = copy.deepcopy(_saved_sidecar())
    edit(doc)
    sidecar = tmp_path / "train.meta.json"
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match=re.escape(f"{sidecar}: {message}")):
        load(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.update(note="x"), "sidecar: unknown fields ['note']"),
        (lambda d: d["spec"].update(train_sise=10), "spec: unknown fields ['train_sise']"),
        (lambda d: d["spec"]["scenario"].update(meas_noise_sigma=5.0),
         "spec.scenario: unknown fields ['meas_noise_sigma']"),
    ],
)
def test_load_refuses_unknown_sidecar_keys_naming_them(tmp_path, edit, message):
    path = tmp_path / "train.csv"
    save(_wd3_train(), path)
    doc = copy.deepcopy(_saved_sidecar())
    edit(doc)
    sidecar = tmp_path / "train.meta.json"
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match=re.escape(f"{sidecar}: {message}")):
        load(path)


def test_load_rejects_unparseable_sidecar_naming_the_path(tmp_path):
    path = tmp_path / "train.csv"
    save(_wd3_train(), path)
    sidecar = tmp_path / "train.meta.json"
    sidecar.write_text('{"split": ')
    with pytest.raises(DatasetFormatError, match=re.escape(f"{sidecar}: Expecting value")):
        load(path)


SIDECAR_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
    st.sampled_from(["train", "test", "wd", "box", "mvsk"]),
)
SIDECAR_VALUES = st.recursive(
    SIDECAR_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def mutated_sidecars(draw):
    """A valid sidecar with a few keys dropped, renamed, retyped or set to
    nearby or arbitrary values, at the top level or inside bs_ids or spec."""
    doc = copy.deepcopy(_saved_sidecar())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        key = draw(st.sampled_from(sorted(_saved_sidecar())))
        action = draw(st.sampled_from(["drop", "rename", "arbitrary", "near", "station", "spec", "extra"]))
        if action == "drop":
            doc.pop(key, None)
        elif action == "rename" and key in doc:
            doc[key + draw(st.sampled_from(["_", "s", "X"]))] = doc.pop(key)
        elif action == "arbitrary":
            doc[key] = draw(SIDECAR_VALUES)
        elif action == "near" and type(doc.get(key)) is int:
            doc[key] = draw(st.one_of(st.integers(min_value=-2, max_value=50), st.floats(-5.0, 50.0)))
        elif action == "station" and isinstance(doc.get("bs_ids"), list) and doc["bs_ids"]:
            i = draw(st.integers(min_value=0, max_value=len(doc["bs_ids"]) - 1))
            doc["bs_ids"][i] = draw(st.one_of(st.integers(min_value=0, max_value=4), SIDECAR_SCALARS))
        elif action == "spec" and isinstance(doc.get("spec"), dict) and doc["spec"]:
            doc["spec"][draw(st.sampled_from(sorted(doc["spec"])))] = draw(SIDECAR_VALUES)
        elif action == "extra":
            doc[draw(st.text(max_size=6))] = draw(SIDECAR_VALUES)
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_sidecars())
def test_load_fuzz_rejects_with_format_error_or_reads_what_the_sidecar_says(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train.csv"
        save(_wd3_train(), path)
        (Path(tmp) / "train.meta.json").write_text(json.dumps(doc))
        try:
            ds = load(path)
        except DatasetFormatError as exc:
            assert str(exc).startswith(f"{tmp}/train")
            return
        again = Path(tmp) / "again.csv"
        save(ds, again)
        written = json.loads((Path(tmp) / "again.meta.json").read_text())
    assert np.array_equal(ds.features, _wd3_train().features)
    # What was read is what the sidecar said, key by key.
    for key, value in written.items():
        if key in doc:
            assert doc[key] == value, key


def test_load_refuses_labels_that_disagree_with_the_row_plan(tmp_path):
    path = tmp_path / "train.csv"
    save(_wd3_train(), path)
    lines = path.read_text().splitlines()
    flipped = lines[:]
    assert lines[4].startswith("0,")  # row 5 of the file, a legitimate replay
    flipped[4] = "1" + flipped[4][1:]
    path.write_text("\n".join(flipped) + "\n")
    message = f"{path}: row 5, column 1: label 1 disagrees with the spec's row plan"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        load(path)

    path.write_text("\n".join(lines[:-1]) + "\n")  # one row short, under the untouched sidecar
    message = f"{path}: features of shape (39, 3), but the train split is (40, 3)"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        load(path)

    sidecar = tmp_path / "train.meta.json"  # and a sidecar that agrees with the short CSV
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**doc, "n_rows": 39}))
    message = f"{sidecar}: n_rows 39 disagrees with the spec's 40"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
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
# Stations 1 and 2 of the default scene: a 2-station spec also needs station 3.
_WITHOUT_STATION_3 = [b for b in spec_to_dict(small_spec())["scenario"]["base_stations"] if b["id"] != 3]


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("n_bs", 2.9, "n_bs must be an integer"),
        ("n_bs", 2.0, "n_bs must be an integer"),
        ("n_bs", 4, "invalid spec value: n_bs must be one of"),
        ("scenario.rng_seed", True, "scenario.rng_seed must be an integer"),
        ("train_size", "40", "train_size must be an integer"),
        ("test_size", None, "test_size must be an integer"),
        ("method", 3, "method must be a string"),
        ("method", _DROP, "spec missing keys: method"),
        ("n_bs", _DROP, "spec missing keys: n_bs"),
        ("train_size", _DROP, "spec missing keys: train_size"),
        ("scenario.sampled_los", _DROP, r"scenario: missing fields \['sampled_los'\]"),
        ("scenario", [], "scenario must be an object"),
        ("scenario.base_stations", _WITHOUT_STATION_3,
         "invalid spec value: n_bs 2 uses base station 3, which the scenario lacks"),
    ],
)
def test_spec_from_dict_rejects_bad_values_naming_the_key(key, value, message):
    doc = json.loads(json.dumps(spec_to_dict(small_spec(method="wd", n_bs=2))))
    *path, key = key.split(".")
    owner = doc[path[0]] if path else doc
    if value is _DROP:
        del owner[key]
    else:
        owner[key] = value
    with pytest.raises(ConfigError, match=message):
        spec_from_dict(doc)


@pytest.mark.parametrize("key", ["train_sise", "meas_noise_sigma"])
def test_spec_from_dict_refuses_unknown_keys_naming_them(key):
    doc = json.loads(json.dumps(spec_to_dict(small_spec(method="wd", n_bs=2))))
    doc[key] = 10
    with pytest.raises(ConfigError, match=re.escape(f"spec: unknown fields ['{key}']")):
        spec_from_dict(doc)


def test_spec_from_dict_names_the_key_path_of_a_nested_value():
    doc = json.loads(json.dumps(spec_to_dict(small_spec(method="wd", n_bs=2))))
    doc["scenario"]["base_stations"][0]["h"] = "35"
    with pytest.raises(ConfigError, match=r"scenario\.base_stations\.h must be a number"):
        spec_from_dict(doc)


@pytest.mark.parametrize(
    "name,edit,message",
    [
        ("config.json", lambda d: d.update(sample_period_s=1.0), "config: unknown fields ['sample_period_s']"),
        ("spec.json", lambda d: d["scenario"].update(sample_period_s=1.0),
         "scenario: unknown fields ['sample_period_s']"),
        ("spec.json", lambda d: d.update(rng_seed=1), "spec: unknown fields ['rng_seed']"),
        ("train.meta.json", lambda d: d["spec"]["scenario"].update(sample_period_s=1.0),
         "spec.scenario: unknown fields ['sample_period_s']"),
        ("train.meta.json", lambda d: d["spec"].update(rng_seed=1), "spec: unknown fields ['rng_seed']"),
    ],
)
def test_documents_with_a_sample_period_or_a_spec_level_seed_are_refused(tmp_path, name, edit, message):
    """A spec has one seed, the channel's, and no sample period: documents
    written with either are refused, naming the file and the key."""
    spec = small_spec(method="wd", n_bs=1, train=6, test=4)
    save_config(tmp_path / "config.json", spec.scenario, spec.channel)
    (tmp_path / "spec.json").write_text(json.dumps(spec_to_dict(spec)))
    csv = tmp_path / "train.csv"
    save(generate(spec)[0], csv)
    path = tmp_path / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    read = {"config.json": load_config, "spec.json": load_spec, "train.meta.json": lambda _: load(csv)}
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read[name](path)


# One changed valid value for every field a spec is built from.
CHANGES = {
    ScenarioConfig: {
        "base_stations": tuple(default_config().base_stations[:2]) + (BaseStation(3, [300.0, 160.0, 35.0]),),
        "start": np.array([150.0, 150.0, 151.0]),
        "mission_radius": 99.0,
        "n_destinations": 8,
        "window_size": 50,
    },
    ChannelParams: {
        "carrier_frequency": 3.5,
        "los_shadow_formula": False,
        "nlos_shadow_sigma": 5.0,
        "meas_noise_sigma": 0.4,
        "rng_seed": 2,
        "sampled_los": True,
    },
    DatasetSpec: {"method": "box", "n_bs": 2, "train_size": 41, "test_size": 21},
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


# Each number of a spec, as the values it is drawn from; each value as the
# spellings that compare equal to it: the float, the other zero, the int.
_ZERO = (0.0, -0.0, 0)
_SIGMAS = (_ZERO, (0.5,), (6.0, 6))
_SLOTS = (
    *[(_ZERO, (160.0, 160)), (_ZERO, (150.5,)), ((35.0, 35), (0.5,))] * 3,  # stations
    (_ZERO, (150.0, 150)), (_ZERO, (150.0, 150)), ((150.0, 150), (200.0,)),  # start
    ((100.0, 100), (99.5,)),  # mission radius
    ((2.0, 2), (3.5,)),  # carrier frequency
    _SIGMAS, _SIGMAS,  # NLoS shadowing and measurement noise
)


def _spec_of(numbers) -> DatasetSpec:
    """A 4/2-row wd/3 spec whose numbers are `numbers`, in _SLOTS order."""
    stations = tuple(BaseStation(i + 1, numbers[3 * i : 3 * i + 3]) for i in range(3))
    scenario = ScenarioConfig(stations, numbers[9:12], numbers[12], n_destinations=4, window_size=5)
    channel = ChannelParams(numbers[13], nlos_shadow_sigma=numbers[14], meas_noise_sigma=numbers[15])
    return DatasetSpec(scenario, channel, "wd", 3, train_size=4, test_size=2)


@st.composite
def spec_pairs(draw):
    """Two specs, equal in value or apart in one number, each number spelled
    on each side independently."""
    values = [draw(st.integers(0, len(slot) - 1)) for slot in _SLOTS]
    other = list(values)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(_SLOTS) - 1))
        other[k] = draw(st.integers(0, len(_SLOTS[k]) - 1))
    return tuple(
        _spec_of([draw(st.sampled_from(slot[v])) for slot, v in zip(_SLOTS, picks)]) for picks in (values, other)
    )


_FLOATS = [0.0, 0.0, 35.0] * 3 + [0.0, 0.0, 150.0, 100.0, 2.0, 6.0, 0.5]
# The same spec with station 1 at x = -0.0 and a carrier frequency of int 2.
_TWIN = [-0.0, *_FLOATS[1:13], 2, *_FLOATS[14:]]


@settings(max_examples=200, deadline=None)
@given(pair=spec_pairs())
@example(pair=(_spec_of(_FLOATS), _spec_of(_TWIN)))
def test_specs_are_equal_exactly_when_their_hashes_are(pair):
    a, b = pair
    assert (a == b) == (spec_hash(a) == spec_hash(b))
    features = np.zeros((a.train_size, spec_width(a)))
    assert (LabeledDataset(features, "train", a) == LabeledDataset(features, "train", b)) == (a == b)
    for spec in pair:
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


def test_labels_are_the_row_plan_and_features_must_fit_the_split(tmp_path):
    spec = small_spec(method="wd", n_bs=2, train=9, test=6)
    for ds in generate(spec):
        planned = [label for label, _, _ in reference_row_plan(spec, ds.split)]
        path = tmp_path / f"{ds.split}.csv"
        save(ds, path)
        assert ds.labels.tolist() == planned
        assert load(path).labels.tolist() == planned
        n = len(planned)
        for features in (ds.features[:-1], ds.features[:, :1], ds.features.ravel()):
            message = f"features of shape {features.shape}, but the {ds.split} split is ({n}, 2)"
            with pytest.raises(ValueError, match=re.escape(message)):
                replace(ds, features=features)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(method="nope")
    with pytest.raises(ValueError):
        small_spec(n_bs=5)
    with pytest.raises(ValueError):
        small_spec(train=0)
    # Row 0 is spoofed and row 1 legitimate: a split of one row has one class.
    for train, test, name in ((1, 20, "train_size"), (40, 1, "test_size")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 2 .*, got 1$"):
            small_spec(train=train, test=test)
    assert small_spec(train=2, test=2).test_size == 2
