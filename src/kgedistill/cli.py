"""Command-line surface: prepare, train, evaluate, export, count parameters.

Exit codes: 0 success, 2 configuration or input-schema problem, 3 numeric
abort (non-finite loss), 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_run_config
from .data import augment_reciprocal, build_filter_index, group_queries, load_dataset
from .errors import CheckpointError, ConfigError, ParseError, TrainingAbort
from .evaluation import evaluate
from .models import count_parameters
from .training import Trainer, load_checkpoint, model_from_checkpoint

METRIC_KEYS = ("epoch", "loss_bce", "loss_kl", "loss_total", "beta", "lr")


def _require(cfg_value: str, key: str) -> str:
    if not cfg_value:
        raise ConfigError(f"config key {key} is required for this command")
    return cfg_value


def cmd_prepare(args) -> int:
    if args.config:
        dataset_dir = _require(load_run_config(args.config).dataset_dir, "dataset_dir")
    elif args.dataset_dir:
        dataset_dir = args.dataset_dir
    else:
        raise ConfigError("prepare needs --config or a dataset directory")
    store = load_dataset(dataset_dir)
    augmented = augment_reciprocal(store)
    stats = store.stats()
    stats["augmented_relations"] = augmented.n_relations
    stats["augmented_train"] = int(len(augmented.train))
    stats["distinct_train_queries"] = len(group_queries(augmented))
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    _require(cfg.dataset_dir, "dataset_dir")
    _require(cfg.output_dir, "output_dir")
    store = augment_reciprocal(load_dataset(cfg.dataset_dir))
    trainer = Trainer(store, cfg)
    filter_index = None
    if cfg.train.eval_every > 0:
        filter_index = build_filter_index(store)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as metrics_file:
        for epoch in range(cfg.train.epochs):
            record = trainer.train_epoch()
            line = {key: record[key] for key in METRIC_KEYS}
            if (
                filter_index is not None
                and (epoch + 1) % cfg.train.eval_every == 0
                and len(store.valid) > 0
            ):
                report = evaluate(trainer.model, store, filter_index, split="valid")
                line.update((f"valid_{k}", report[k]) for k in ("mrr", "h1", "h3", "h10"))
                record.update({k: line[k] for k in line if k.startswith("valid_")})
            metrics_file.write(json.dumps(line) + "\n")
            metrics_file.flush()
    trainer.save(out_dir / "checkpoint")
    return 0


def cmd_evaluate(args) -> int:
    if args.split not in ("train", "valid", "test"):
        raise ConfigError(f"unknown split {args.split!r}, expected train, valid or test")
    ckpt = load_checkpoint(args.checkpoint)
    store = augment_reciprocal(load_dataset(args.dataset_dir))
    ckpt.check_vocab(store)
    model = model_from_checkpoint(ckpt)
    report = evaluate(model, store, build_filter_index(store), split=args.split)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_export_embeddings(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    table = ckpt.tensors.get("model.entity_embeddings")
    if table is None:
        raise CheckpointError("checkpoint has no entity embedding table")
    if len(ckpt.entities) != table.shape[0]:
        raise CheckpointError(
            f"checkpoint lists {len(ckpt.entities)} entities for a "
            f"{table.shape[0]}-row embedding table"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        for name, row in zip(ckpt.entities, table):
            values = "\t".join(f"{v:.17g}" for v in row)
            fh.write(f"{name}\t{values}\n")
    return 0


def cmd_count_params(args) -> int:
    cfg = load_run_config(args.config)
    _require(cfg.dataset_dir, "dataset_dir")
    store = load_dataset(cfg.dataset_dir)
    n_relations = 2 * store.n_relations  # reciprocal augmentation
    if cfg.isd.enabled:
        total = count_parameters(
            cfg.model,
            store.n_entities,
            n_relations,
            isd_k_b=cfg.isd.k_b or cfg.model.d_e,
            isd_batch_size=cfg.train.batch_size,
        )
    else:
        total = count_parameters(cfg.model, store.n_entities, n_relations)
    print(total)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgedistill",
        description="Knowledge-graph embedding training with iterative self-distillation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="load a dataset and report its statistics")
    p.add_argument("dataset_dir", nargs="?", help="directory with train/valid/test.txt")
    p.add_argument("--config", help="run config whose dataset_dir to use")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="run the full training pipeline")
    p.add_argument("--config", required=True, help="JSON run config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank a split with a trained checkpoint")
    p.add_argument("checkpoint", help="checkpoint directory")
    p.add_argument("dataset_dir", help="dataset directory")
    p.add_argument("--split", default="test", help="train, valid or test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-embeddings", help="write entity embeddings as TSV")
    p.add_argument("checkpoint", help="checkpoint directory")
    p.add_argument("out", help="output TSV path")
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("count-params", help="print the learnable-parameter count")
    p.add_argument("--config", required=True, help="JSON run config")
    p.set_defaults(func=cmd_count_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
