"""Command-line workbench: simulate flights, generate datasets, train and
tune detectors, evaluate them and merge training curves into report CSVs.

Every command is replayable: outputs embed the hash of the generating spec
and a single --seed value reproduces a whole experiment byte for byte
(wall-clock fields excepted).

The trainer, `mlp`, is imported by the commands that train or read a model
(`train`, `tune`, `evaluate`, `report`), so `init`, `simulate` and
`generate` start without loading it.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import time
from dataclasses import asdict, astuple
from pathlib import Path

from . import baseline, dataset
from .channel import ChannelParams, measured_windows
from .configio import config_to_dict, load_config, save_config, save_csv, save_json
from .features import METHODS
from .presets import BEST_SETTINGS
from .scenario import default_config, destination_grid

ARCHIVE_FORMAT = "spoofbench-archive"
ARCHIVE_FORMAT_VERSION = 2
REPORT_FORMAT = "spoofbench-report"
REPORT_FORMAT_VERSION = 2


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_init(args) -> int:
    """Write the default scenario config and dataset spec to a directory."""
    spec = dataset.DatasetSpec(
        scenario=default_config(),
        channel=ChannelParams(rng_seed=args.seed),
        method=args.method,
        n_bs=args.n_bs,
        train_size=args.train_size,
        test_size=args.test_size,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_config(out / "config.json", spec.scenario, spec.channel)
    save_json(out / "spec.json", dataset.spec_to_dict(spec))
    print(f"wrote {out / 'config.json'} and {out / 'spec.json'}")
    return 0


def cmd_simulate(args) -> int:
    """Archive every station's windows of the first 2n - 2 rows of the train
    split, n the scene's destinations: each non-planned one spoofed once.
    Every row reports the planned flight, so the reported destination and
    each station's path loss along it (scene_links' one theoretical array)
    are written once; a row's label and noise seed follow from its true
    destination and index. The archive holds every value, so the rows are
    simulated in one batch."""
    scenario_cfg, channel = load_config(args.config)
    bs_ids = [bs.id for bs in scenario_cfg.base_stations]
    destinations = destination_grid(scenario_cfg)
    n = scenario_cfg.n_destinations
    dests, first_seed = dataset.plan_rows(n, channel.rng_seed, "train", 2 * n - 2)
    links, theoretical = dataset.scene_links(scenario_cfg, channel, bs_ids)
    measured = measured_windows(links, dests, channel, range(first_seed, first_seed + len(dests)), bs_ids)
    entries = [
        {
            "index": k,
            "true_destination": destinations[dest].tolist(),
            "measured_db": {str(bs_id): m.tolist() for bs_id, m in zip(bs_ids, row)},
        }
        for k, (dest, row) in enumerate(zip(dests, measured))
    ]
    save_json(
        args.out,
        {
            "format": ARCHIVE_FORMAT,
            "format_version": ARCHIVE_FORMAT_VERSION,
            "config": config_to_dict(scenario_cfg, channel),
            "base_stations": bs_ids,
            "reported_destination": destinations[0].tolist(),
            "theoretical_db": {str(bs_id): t.tolist() for bs_id, t in zip(bs_ids, theoretical)},
            "scenarios": entries,
        },
    )
    print(f"wrote {args.out}: {len(entries)} scenarios x {len(bs_ids)} stations")
    return 0


def cmd_generate(args) -> int:
    """Wrap dataset.generate: write train/test CSVs plus spec sidecars."""
    spec = dataset.load_spec(args.spec)
    train_ds, test_ds = dataset.generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    """The training flags `train` and `tune` share; _train_config reads them.
    They default to unset, so TrainConfig alone holds the defaults."""
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)


def _train_config(args, learning_rate: float):
    from . import mlp

    given = {"max_epochs": args.epochs, "patience": args.patience, "rng_seed": args.seed}
    return mlp.TrainConfig(learning_rate=learning_rate, **{k: v for k, v in given.items() if v is not None})


def cmd_train(args) -> int:
    """Train one MLP on a generated dataset; write its model JSON, history included."""
    from . import mlp

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
    from . import mlp

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
    best = result.results[result.best_index]
    print(
        f"wrote {out}/grid_report.csv ({len(result.results)} configurations); best: "
        f"lr={best.learning_rate} layers={best.hidden_layers} neurons={best.neurons} "
        f"val_mse={best.val_mse:.5f}"
    )
    return 0


def _confusion_report(predictions, labels, started: float, spec_hash_: str, detector: dict) -> dict:
    from . import mlp

    counts = mlp.confusion_matrix(predictions, labels)
    return {
        "format": REPORT_FORMAT,
        "format_version": REPORT_FORMAT_VERSION,
        "dataset_spec_hash": spec_hash_,
        "detector": detector,
        "test_accuracy": mlp.accuracy(predictions, labels),
        "test_mse": mlp.loss_mse(predictions, labels),
        "confusion": counts,
        "wall_clock_s": time.perf_counter() - started,
    }


def cmd_evaluate(args) -> int:
    """Score an MLP model file or the threshold baseline on a dataset's test
    split. Without --t, the threshold is the one fitted on the train split."""
    from . import mlp

    started = time.perf_counter()
    if args.model is not None:
        for flag, value in (("--t", args.t), ("--aggregation", args.aggregation)):
            if value is not None:
                raise ValueError(f"{flag} sets the threshold detector; --model takes none")
    ds = _load_split(args.data_dir, "test")
    labels = ds.labels
    if args.model is not None:
        model, meta = mlp.load_model(args.model)
        if (meta["method"], meta["n_bs"]) != (ds.spec.method, ds.spec.n_bs):
            raise ValueError(
                f"model was trained on {meta['method']!r} features of {meta['n_bs']} stations, "
                f"dataset is {ds.spec.method!r} of {ds.spec.n_bs}"
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
        aggregation = args.aggregation or baseline.ThresholdDetector.aggregation
        if args.t is not None:
            det = baseline.ThresholdDetector(args.t, aggregation)
        else:  # fitted on the train split of the spec it scores
            train_ds = _load_split(args.data_dir, "train")
            if train_ds.provenance != ds.provenance:
                raise ValueError(
                    f"{Path(args.data_dir) / 'train.csv'} is of spec {train_ds.provenance}, but "
                    f"{Path(args.data_dir) / 'test.csv'} is of spec {ds.provenance}: T is fitted on the "
                    "train split of the spec it scores"
                )
            det = baseline.fit(dataset.window_means(train_ds), train_ds.labels, aggregation)
        predictions = baseline.decide(det, dataset.window_means(ds)).astype(float)
        # -0.0 is recorded as 0.0, as configio writes it: one threshold, one report.
        detector = {"kind": "threshold", "threshold_db": det.threshold_db + 0.0, "aggregation": aggregation,
                    "fitted_on_train": args.t is None}
    report = _confusion_report(predictions, labels, started, ds.provenance, detector)
    save_json(args.out, report)
    print(
        f"wrote {args.out}: accuracy {report['test_accuracy']:.4f}, "
        f"mse {report['test_mse']:.5f} on {len(labels)} test rows"
    )
    return 0


def cmd_report(args) -> int:
    """Merge run histories into one scenario,method,run,epoch,accuracy,mse
    CSV, run being the run directory as given."""
    from . import mlp

    rows = []
    for run_dir in args.run_dirs:
        if any(c in run_dir for c in ",\n\r"):
            raise ValueError(f"run directory {run_dir!r}: a CSV cell cannot hold a comma or a line break")
        model, meta = mlp.load_model(Path(run_dir) / "model.json")
        for s in model.history:
            rows.append((f"{meta['n_bs']}bs", meta["method"], run_dir, s.epoch, s.val_accuracy, s.val_mse))
    # A stable sort: a scenario and method's runs keep the order they were
    # given in, and a history holds its epochs in order.
    rows.sort(key=lambda r: r[:2])
    save_csv(args.out, ["scenario", "method", "run", "epoch", "accuracy", "mse"], rows)
    print(f"wrote {args.out}: {len(rows)} rows from {len(args.run_dirs)} runs")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every float literal after a minus sign
    as a value: argparse's own pattern takes only digits and a point, so
    `--t -1e-3` and `--t -inf` would lose their value to an unknown option.
    The value then meets the option's own rule."""

    NEGATIVE_NUMBER = re.compile(r"^-(\d[\d_]*(\.[\d_]*)?|\.\d[\d_]*)([eE][+-]?\d[\d_]*)?$|^-(inf|infinity|nan)$", re.I)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self.NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("evaluate", help="score a model or the threshold baseline on test.csv")
    p.add_argument("data_dir")
    detector = p.add_mutually_exclusive_group(required=True)
    detector.add_argument("--model", default=None, help="model.json from `train`/`tune`")
    detector.add_argument("--detector", choices=("threshold",), default=None)
    p.add_argument("--t", type=float, default=None,
                   help="threshold in dB (default: fitted on train.csv)")
    p.add_argument("--aggregation", choices=baseline.AGGREGATIONS, default=None,
                   help=f"threshold detector only (default: {baseline.ThresholdDetector.aggregation})")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="merge run histories into one CSV")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
