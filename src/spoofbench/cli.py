"""Command-line workbench: simulate flights, generate datasets, train and
tune detectors, evaluate them and merge training curves into report CSVs.

Every command is replayable: outputs embed the hash of the generating spec
and a single --seed value reproduces a whole experiment byte for byte
(wall-clock fields excepted).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import asdict, astuple, replace
from pathlib import Path

from . import baseline, dataset, mlp
from .channel import ChannelParams
from .configio import config_to_dict, load_config, save_config, save_csv, save_json
from .features import METHODS
from .presets import BEST_SETTINGS
from .scenario import default_config, destination_grid

ARCHIVE_FORMAT = "spoofbench-archive"
REPORT_FORMAT = "spoofbench-report"
FORMAT_VERSION = 1


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_init(args) -> int:
    """Write the default scenario config and dataset spec to a directory."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario = default_config()
    channel = ChannelParams(rng_seed=args.seed)
    save_config(out / "config.json", scenario, channel)
    spec = dataset.DatasetSpec(
        scenario=scenario,
        channel=channel,
        method=args.method,
        n_bs=args.n_bs,
        train_size=args.train_size,
        test_size=args.test_size,
    )
    save_json(out / "spec.json", dataset.spec_to_dict(spec))
    print(f"wrote {out / 'config.json'} and {out / 'spec.json'}")
    return 0


def cmd_simulate(args) -> int:
    """Archive every station's windows of the first 2n - 2 rows of the train
    split, n the scene's destinations: each non-planned one spoofed once."""
    scenario_cfg, channel = load_config(args.config)
    bs_ids = [bs.id for bs in scenario_cfg.base_stations]
    destinations = destination_grid(scenario_cfg)
    n = scenario_cfg.n_destinations
    dests, first_seed = dataset.plan_rows(n, channel.rng_seed, "train", 2 * n - 2)
    entries = []
    for rows, theoretical, measured in dataset.iter_windows(scenario_cfg, channel, bs_ids, dests, first_seed):
        for k, row in zip(rows, measured):
            entries.append(
                {
                    "index": k,
                    "label": bool(dests[k]),
                    "noise_seed": first_seed + k,
                    "true_destination": destinations[dests[k]].tolist(),
                    "reported_destination": destinations[0].tolist(),
                    "windows": {
                        str(bs_id): {"measured_db": m.tolist(), "theoretical_db": t.tolist()}
                        for bs_id, m, t in zip(bs_ids, row, theoretical)
                    },
                }
            )
    save_json(
        args.out,
        {
            "format": ARCHIVE_FORMAT,
            "format_version": FORMAT_VERSION,
            "config": config_to_dict(scenario_cfg, channel),
            "base_stations": bs_ids,
            "scenarios": entries,
        },
    )
    print(f"wrote {args.out}: {len(entries)} scenarios x {len(bs_ids)} stations")
    return 0


def _load_spec(args) -> dataset.DatasetSpec:
    spec = dataset.load_spec(args.spec)
    return replace(spec, method=args.method or spec.method, n_bs=args.n_bs or spec.n_bs)


def cmd_generate(args) -> int:
    """Wrap dataset.generate: write train/test CSVs plus spec sidecars."""
    spec = _load_spec(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_ds, test_ds = dataset.generate(spec)
    dataset.save(train_ds, out / "train.csv")
    dataset.save(test_ds, out / "test.csv")
    print(
        f"wrote {out}/{{train,test}}.csv: {spec.train_size}/{spec.test_size} rows, "
        f"width {train_ds.width} ({spec.method}, {spec.n_bs} BS), spec {train_ds.provenance[:12]}"
    )
    return 0


def _load_split(data_dir, split: str) -> dataset.LabeledDataset:
    path = Path(data_dir) / f"{split}.csv"
    ds = dataset.load(path)
    if ds.split != split:
        raise ValueError(f"{path} holds the {ds.split} split, not the {split} split")
    return ds


def _model_meta(train_ds: dataset.LabeledDataset) -> dict:
    spec = train_ds.spec
    return {"method": spec.method, "n_bs": spec.n_bs, "dataset_spec_hash": train_ds.provenance}


def _train_flags(p) -> None:
    """The training flags `train` and `tune` share; _train_config reads them."""
    p.add_argument("--epochs", type=int, default=mlp.TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=mlp.TrainConfig.patience)
    p.add_argument("--batch-size", type=int, default=mlp.TrainConfig.batch_size)
    p.add_argument("--val-fraction", type=float, default=mlp.TrainConfig.validation_fraction)
    p.add_argument("--seed", type=int, default=mlp.TrainConfig.rng_seed)


def _train_config(args, learning_rate: float) -> mlp.TrainConfig:
    return mlp.TrainConfig(
        learning_rate=learning_rate,
        max_epochs=args.epochs,
        patience=args.patience,
        batch_size=args.batch_size,
        validation_fraction=args.val_fraction,
        rng_seed=args.seed,
    )


def cmd_train(args) -> int:
    """Train one MLP on a generated dataset; write model JSON + history CSV."""
    train_ds = _load_split(args.data_dir, "train")
    preset = BEST_SETTINGS[train_ds.spec.method, train_ds.spec.n_bs]
    lr = args.lr if args.lr is not None else preset[0]
    layers = args.layers if args.layers is not None else preset[1]
    neurons = args.neurons if args.neurons is not None else preset[2]
    config = _train_config(args, lr)
    arch = mlp.MlpArchitecture(train_ds.width, layers, neurons)
    model = mlp.train(arch, train_ds.features, train_ds.labels, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mlp.save_model(model, out / "model.json", _model_meta(train_ds))
    mlp.write_history_csv(model.history, out / "history.csv")
    print(
        f"wrote {out}/model.json: {len(model.history)} epochs, best {model.best_epoch} "
        f"(val_mse {model.val_mse:.5f}, val_acc {model.val_accuracy:.4f})"
    )
    return 0


def _parse_grid(text: str | None, default, cast, flag: str):
    """The comma-separated values of a grid flag, each read by cast; an
    empty or unreadable cell raises ValueError naming the flag and the
    cell's 1-based place."""
    if text is None:
        return default
    values = []
    for i, cell in enumerate(text.split(","), start=1):
        try:
            values.append(cast(cell))
        except ValueError:
            raise ValueError(f"{flag}: cannot read cell {i} ({cell!r}) as {cast.__name__}") from None
    return tuple(values)


def cmd_tune(args) -> int:
    """Grid-search hyperparameters; write the full grid report and the winner."""
    train_ds = _load_split(args.data_dir, "train")
    lrs = _parse_grid(args.lr_grid, mlp.GRID_LEARNING_RATES, float, "--lr-grid")
    layer_grid = _parse_grid(args.layers_grid, mlp.GRID_HIDDEN_LAYERS, int, "--layers-grid")
    neuron_grid = _parse_grid(args.neurons_grid, mlp.GRID_NEURONS, int, "--neurons-grid")
    result = mlp.tune(
        train_ds.features,
        train_ds.labels,
        _train_config(args, lrs[0]),
        learning_rates=lrs,
        hidden_layers=layer_grid,
        neurons=neuron_grid,
        jobs=args.jobs,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["method", *mlp.column_names(mlp.GridResult), "rank"]
    rows = ((train_ds.spec.method, *astuple(r), rank) for r, rank in zip(result.results, result.ranks))
    save_csv(out / "grid_report.csv", header, rows)
    mlp.save_model(result.best_model, out / "model.json", _model_meta(train_ds))
    mlp.write_history_csv(result.best_model.history, out / "history.csv")
    best = result.results[result.best_index]
    print(
        f"wrote {out}/grid_report.csv ({len(result.results)} configurations); best: "
        f"lr={best.learning_rate} layers={best.hidden_layers} neurons={best.neurons} "
        f"val_mse={best.val_mse:.5f}"
    )
    return 0


def _confusion_report(predictions, labels, started: float, spec_hash_: str, detector: dict) -> dict:
    counts = mlp.confusion_matrix(predictions, labels)
    if sum(counts.values()) != len(labels):
        raise AssertionError("confusion matrix does not sum to the dataset size")
    return {
        "format": REPORT_FORMAT,
        "format_version": FORMAT_VERSION,
        "dataset_spec_hash": spec_hash_,
        "detector": detector,
        "test_accuracy": mlp.accuracy(predictions, labels),
        "test_mse": mlp.loss_mse(predictions, labels),
        "confusion": counts,
        "wall_clock_s": time.perf_counter() - started,
    }


def cmd_evaluate(args) -> int:
    """Score an MLP model file or the threshold baseline on a dataset split."""
    started = time.perf_counter()
    ds = _load_split(args.data_dir, args.split)
    labels = ds.labels
    if args.model:
        model, meta = mlp.load_model(args.model)
        if meta["method"] != ds.spec.method:
            raise ValueError(
                f"model was trained on {meta['method']!r} features, dataset is {ds.spec.method!r}"
            )
        predictions = mlp.forward_batch(model, ds.features)
        detector = {
            "kind": "mlp",
            "architecture": asdict(model.architecture),
            "train_config": asdict(model.train_config),
            "method": meta["method"],
            "model_sha256": _sha256(args.model),
        }
    else:
        det = baseline.ThresholdDetector(args.t, args.aggregation)
        predictions = baseline.decide(det, dataset.window_means(ds)).astype(float)
        # JSON has no infinity; an infinite threshold is recorded as "inf".
        threshold_db = "inf" if args.t == float("inf") else args.t
        detector = {"kind": "threshold", "threshold_db": threshold_db, "aggregation": args.aggregation}
    report = _confusion_report(predictions, labels, started, ds.provenance, detector)
    save_json(args.out, report)
    print(
        f"wrote {args.out}: accuracy {report['test_accuracy']:.4f}, "
        f"mse {report['test_mse']:.5f} on {len(labels)} {args.split} rows"
    )
    return 0


def cmd_report(args) -> int:
    """Merge run histories into one scenario,method,epoch,accuracy,mse CSV."""
    rows = []
    for run_dir in args.run_dirs:
        model, meta = mlp.load_model(Path(run_dir) / "model.json")
        for s in model.history:
            rows.append((f"{meta['n_bs']}bs", meta["method"], s.epoch, s.val_accuracy, s.val_mse))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    save_csv(args.out, ["scenario", "method", "epoch", "accuracy", "mse"], rows)
    print(f"wrote {args.out}: {len(rows)} rows from {len(args.run_dirs)} runs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoofbench",
        description="GPS spoofing detection workbench: simulate, featurize, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write default config.json and spec.json")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=ChannelParams.rng_seed)
    p.add_argument("--method", choices=METHODS, default="wd")
    p.add_argument("--n-bs", type=int, choices=tuple(dataset.BS_SUBSETS), default=3)
    p.add_argument("--train-size", type=int, default=dataset.DatasetSpec.train_size)
    p.add_argument("--test-size", type=int, default=dataset.DatasetSpec.test_size)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("simulate", help="write a scenario + window archive")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", required=True, help="archive JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="generate labeled train/test datasets")
    p.add_argument("--spec", required=True, help="dataset spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", choices=METHODS, default=None, help="override spec method")
    p.add_argument("--n-bs", type=int, choices=tuple(dataset.BS_SUBSETS), default=None, help="override spec n_bs")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one MLP detector")
    p.add_argument("data_dir", help="directory with train.csv from `generate`")
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--neurons", type=int, default=None)
    _train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="hyperparameter grid search")
    p.add_argument("data_dir")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lr-grid", default=None, help="comma-separated learning rates")
    p.add_argument("--layers-grid", default=None, help="comma-separated depths")
    p.add_argument("--neurons-grid", default=None, help="comma-separated widths")
    p.add_argument("--jobs", type=int, default=None,
                   help="training processes, at most the usable CPUs (default: all); outputs do not depend on it")
    _train_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="score a model or the threshold baseline")
    p.add_argument("data_dir")
    p.add_argument("--model", default=None, help="model.json from `train`/`tune`")
    p.add_argument("--detector", choices=("threshold",), default=None)
    p.add_argument("--t", type=float, default=1.0, help="threshold in dB")
    p.add_argument("--aggregation", choices=baseline.AGGREGATIONS, default="mean-delta")
    p.add_argument("--split", choices=dataset.SPLITS, default="test")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="merge run histories into one CSV")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "evaluate" and bool(args.model) == bool(args.detector):
        print("error: evaluate needs exactly one of --model or --detector", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
