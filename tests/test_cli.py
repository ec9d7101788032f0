"""Command-line runs end to end, and the exit-code mapping."""

import json
import re

import numpy as np
import pytest

from kgedistill import cli
from kgedistill.config import RunConfig
from kgedistill.data import augment_reciprocal, build_filter_index, load_dataset
from kgedistill.errors import TrainingAbort
from kgedistill.evaluation import evaluate
from kgedistill.training import Trainer, load_checkpoint


def test_train_then_evaluate(tmp_path, memorization_dataset_dir, capsys):
    out_dir = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset_dir": str(memorization_dataset_dir),
        "output_dir": str(out_dir),
        "model": {"kind": "distmult", "d_e": 8},
        "train": {"batch_size": 16, "epochs": 3, "seed": 1},
        "isd": {"enabled": True, "m_exponent": 1.0},
    }))
    assert cli.main(["train", "--config", str(config)]) == 0
    records = [json.loads(line) for line in (out_dir / "metrics.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [0, 1, 2]
    assert all("loss_total" in r for r in records)

    capsys.readouterr()
    assert cli.main(["evaluate", str(out_dir / "checkpoint"), str(memorization_dataset_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["mrr"] <= 1.0

    exported = tmp_path / "embeddings.tsv"
    assert cli.main(["export-embeddings", str(out_dir / "checkpoint"), str(exported)]) == 0
    ckpt = load_checkpoint(out_dir / "checkpoint")
    rows = [line.split("\t") for line in exported.read_text().splitlines()]
    assert [row[0] for row in rows] == ckpt.entities
    table = np.array([[float(v) for v in row[1:]] for row in rows])
    assert table.tobytes() == ckpt.tensors["model.entity_embeddings"].tobytes()

    # Same entity and relation counts, one entity renamed: not this checkpoint's dataset.
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    for split in ("train", "valid", "test"):
        text = (memorization_dataset_dir / f"{split}.txt").read_text()
        (renamed / f"{split}.txt").write_text(re.sub(r"\be0\b", "x0", text))
    assert cli.main(["evaluate", str(out_dir / "checkpoint"), str(renamed)]) == 2
    assert "entities" in capsys.readouterr().err


# `evaluate` on the memorization graph for a seed-3 DistMult at its
# initialisation. The literals are a golden record of the report format and
# of every bit of its values.
GOLDEN_REPORT = {
    "mrr": 0.1592401703721153, "h1": 0.0625, "h3": 0.0625, "h10": 0.4375,
    "head": {"mrr": 0.22795138888888888, "h1": 0.125, "h3": 0.125, "h10": 0.625},
    "tail": {"mrr": 0.09052895185534168, "h1": 0.0, "h3": 0.0, "h10": 0.25},
    "n_test": 8,
}


def test_evaluate_report_is_unchanged(tmp_path, memorization_dataset_dir, capsys):
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    config = RunConfig.from_dict({"model": {"kind": "distmult", "d_e": 8}, "train": {"seed": 3}})
    trainer = Trainer(store, config)
    report = evaluate(trainer.model, store, build_filter_index(store))
    # Compared as JSON text, so key order and the last bit of each float count.
    assert json.dumps(report) == json.dumps(GOLDEN_REPORT)

    trainer.save(tmp_path / "checkpoint")
    capsys.readouterr()
    assert cli.main(["evaluate", str(tmp_path / "checkpoint"), str(memorization_dataset_dir)]) == 0
    assert capsys.readouterr().out == json.dumps(GOLDEN_REPORT, indent=2, sort_keys=True) + "\n"


def test_training_abort_maps_to_exit_3(monkeypatch, capsys):
    def abort(args):
        raise TrainingAbort(0, 0, "non-finite loss at epoch 0, batch 0")

    monkeypatch.setattr(cli, "cmd_train", abort)
    assert cli.main(["train", "--config", "unused.json"]) == 3
    assert "aborted" in capsys.readouterr().err


def test_prepare_reports_counts_and_rejects_non_utf8(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "train.txt").write_bytes(b"a\tr\tb\r\n\na\tr\tc\rb\tr\tc\n")
    (data_dir / "valid.txt").write_bytes(b"")
    (data_dir / "test.txt").write_bytes(b"c\ts\ta\n")
    assert cli.main(["prepare", str(data_dir)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["entities"], stats["relations"], stats["train"]) == (3, 2, 3)
    assert stats["distinct_train_queries"] == 4  # (a, r), (b, r) and two inverses

    (data_dir / "train.txt").write_bytes(b"a\tr\tb\r\n\n\xff\tr\tc\n")
    assert cli.main(["prepare", str(data_dir)]) == 2
    assert f"{data_dir / 'train.txt'}:3: not UTF-8 text" in capsys.readouterr().err


def test_malformed_manifests_exit_2(tmp_path, memorization_dataset_dir, capsys):
    checkpoint = tmp_path / "checkpoint"
    checkpoint.mkdir()
    for manifest, message in (
        ([1, 2], "not a kgedistill-checkpoint manifest"),
        ({"format": "kgedistill-checkpoint", "version": 1}, "manifest lacks adam_step"),
    ):
        (checkpoint / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["export-embeddings", str(checkpoint), str(tmp_path / "out.tsv")]) == 2
        assert message in capsys.readouterr().err

    # A well-formed checkpoint whose manifest values have the wrong JSON types.
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}})).save(checkpoint)
    saved = json.loads((checkpoint / "manifest.json").read_text())
    for key, value in (("epoch", "0"), ("adam_step", False), ("metrics_history", None)):
        (checkpoint / "manifest.json").write_text(json.dumps({**saved, key: value}))
        capsys.readouterr()
        assert cli.main(["evaluate", str(checkpoint), str(memorization_dataset_dir)]) == 2
        assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "missing, message",
    [
        ("model.entity_embeddings.bin", "checkpoint is missing tensor model.entity_embeddings"),
        ("entities.txt", "no entities.txt in"),
    ],
    ids=["tensor", "vocab"],
)
def test_checkpoint_missing_a_file_exits_2(tmp_path, memorization_dataset_dir, capsys, missing, message):
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}})).save(tmp_path / "checkpoint")
    (tmp_path / "checkpoint" / missing).unlink()
    capsys.readouterr()
    assert cli.main(["evaluate", str(tmp_path / "checkpoint"), str(memorization_dataset_dir)]) == 2
    assert message in capsys.readouterr().err
