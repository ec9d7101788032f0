"""Command-line runs end to end, and the exit-code mapping."""

import json
import re
import struct

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
    saved = ckpt.tensors["model.entity_embeddings"]
    assert table.shape == saved.shape
    assert table.astype("<f8").tobytes() == saved.path.read_bytes()[-table.nbytes:]

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
        raise TrainingAbort("non-finite loss at epoch 0, batch 0")

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
        ("[1, 2]", "not a kgedistill-checkpoint manifest"),
        ('{"format": "kgedistill-checkpoint", "version": 1}', "manifest lacks config"),
        ('{"format": "kgedistill-checkpoint", "version": 2}', "unsupported version 2"),
        ("{not json", "corrupt manifest"),
    ):
        (checkpoint / "manifest.json").write_text(manifest)
        capsys.readouterr()
        assert cli.main(["export-embeddings", str(checkpoint), str(tmp_path / "out.tsv")]) == 2
        assert message in capsys.readouterr().err

    # A well-formed checkpoint whose manifest values have the wrong JSON types.
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}})).save(checkpoint)
    saved = json.loads((checkpoint / "manifest.json").read_text())
    (checkpoint / "manifest.json").write_text(json.dumps({**saved, "metrics_history": None}))
    capsys.readouterr()
    assert cli.main(["evaluate", str(checkpoint), str(memorization_dataset_dir)]) == 2
    assert "metrics_history must be" in capsys.readouterr().err

    # Bytes that are not UTF-8, in the manifest and in a vocabulary file.
    (checkpoint / "manifest.json").write_bytes(b'{"format": "\xff"}')
    assert cli.main(["evaluate", str(checkpoint), str(memorization_dataset_dir)]) == 2
    assert "corrupt manifest" in capsys.readouterr().err
    (checkpoint / "manifest.json").write_text(json.dumps(saved))
    (checkpoint / "entities.txt").write_bytes(b"e0\n\xff\n")
    assert cli.main(["evaluate", str(checkpoint), str(memorization_dataset_dir)]) == 2
    assert f"{checkpoint / 'entities.txt'}: not UTF-8 text" in capsys.readouterr().err


def test_non_finite_checkpoint_tensor_exits_2(tmp_path, memorization_dataset_dir, capsys):
    """Ranking would score a NaN entity table as perfect (MRR 2.0)."""
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    trainer = Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}, "train": {"batch_size": 16}}))
    trainer.train_epoch()
    trainer.save(tmp_path / "checkpoint")
    path = tmp_path / "checkpoint" / "model.entity_embeddings.bin"
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", np.nan)  # the table's last entry
    path.write_bytes(raw)
    capsys.readouterr()
    assert cli.main(["evaluate", str(tmp_path / "checkpoint"), str(memorization_dataset_dir)]) == 2
    assert f"{path}: holds a NaN or infinite value" in capsys.readouterr().err


def test_tensor_header_whose_size_overflows_int64_exits_2(tmp_path, memorization_dataset_dir, capsys):
    """(2^32, 2^32) elements wrap to 0 bytes in int64, which a bare header matches."""
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}})).save(tmp_path / "checkpoint")
    path = tmp_path / "checkpoint" / "model.entity_embeddings.bin"
    path.write_bytes(b"KGE1" + struct.pack("<I2Q", 2, 2**32, 2**32))
    capsys.readouterr()
    assert cli.main(["evaluate", str(tmp_path / "checkpoint"), str(memorization_dataset_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}: expected {2**64 * 8} data bytes" in err


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
    checkpoint = str(tmp_path / "checkpoint")
    for argv in (["evaluate", checkpoint, str(memorization_dataset_dir)],
                 ["export-embeddings", checkpoint, str(tmp_path / "out.tsv")]):
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


def _write_config(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("kind", ["distmult", "tucker"])
@pytest.mark.parametrize("isd", [{}, {"enabled": True, "k_b": 3}], ids=["plain", "distill"])
def test_count_params_matches_the_trainer(tmp_path, memorization_dataset_dir, capsys, kind, isd):
    doc = {"dataset_dir": str(memorization_dataset_dir), "model": {"kind": kind, "d_e": 8},
           "train": {"batch_size": 16}, "isd": isd}
    assert cli.main(["count-params", "--config", _write_config(tmp_path / "c.json", doc)]) == 0
    trainer = Trainer(augment_reciprocal(load_dataset(memorization_dataset_dir)), RunConfig.from_dict(doc))
    assert int(capsys.readouterr().out) == sum(p.data.size for _, p in trainer.adam.named_params)


@pytest.mark.parametrize(
    "section, values, message",
    [
        ("model", {"d_e": 0}, "entity dimension must be >= 1"),
        ("model", {"kind": "tucker", "d_r": 0}, "relation dimension must be >= 1"),
        ("model", {"kind": "lowfer", "k_l": 0}, "lowfer factorization rank must be >= 1"),
        ("model", {"dropout2": 1.0}, "dropout2 must lie in [0, 1)"),
        ("isd", {"m_exponent": -400.0}, "temperature must be positive"),
        ("isd", {"beta_init": 1.5}, "beta_init must lie in [0, 1]"),
        ("isd", {"k_b": 0}, "k_b must be >= 1"),
        ("train", {"batch_size": 0}, "batch_size must be >= 1"),
        ("train", {"lr": 0.0}, "lr must be positive"),
        ("train", {"lr_decay": 0.0}, "lr_decay must lie in (0, 1]"),
        ("train", {"label_smoothing": 1.0}, "label_smoothing must lie in [0, 1)"),
        ("train", {"epochs": 0}, "epochs must be >= 1"),
        ("train", {"eval_every": -1}, "eval_every must be >= 0"),
        ("isd", {"m_exponent": 400.0}, "temperature must be positive and finite"),
        ("isd", {"m_exponent": float("nan")}, "m_exponent must be a finite number"),
        ("train", {"lr": float("nan")}, "lr must be a finite number"),
        ("train", {"lr": float("inf")}, "lr must be a finite number"),
    ],
)
def test_invalid_config_values_exit_2(tmp_path, memorization_dataset_dir, capsys, section, values, message):
    doc = {"dataset_dir": str(memorization_dataset_dir), section: values}
    assert cli.main(["count-params", "--config", _write_config(tmp_path / "c.json", doc)]) == 2
    assert message in capsys.readouterr().err


def test_unusable_run_configs_exit_2(tmp_path, memorization_dataset_dir, capsys):
    for broken in (b'{"model": ', b'{"dataset_dir": "\xff"}'):
        (tmp_path / "broken.json").write_bytes(broken)
        assert cli.main(["count-params", "--config", str(tmp_path / "broken.json")]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    no_output = _write_config(tmp_path / "c.json", {"dataset_dir": str(memorization_dataset_dir)})
    assert cli.main(["train", "--config", no_output]) == 2
    assert "config key output_dir is required" in capsys.readouterr().err


def test_evaluate_rejects_an_unknown_split(tmp_path, memorization_dataset_dir, capsys):
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}})).save(tmp_path / "checkpoint")
    capsys.readouterr()
    args = ["evaluate", str(tmp_path / "checkpoint"), str(memorization_dataset_dir), "--split", "bogus"]
    assert cli.main(args) == 2
    assert "unknown split 'bogus'" in capsys.readouterr().err


def test_evaluating_an_empty_split_exits_2(tmp_path, memorization_dataset_dir, capsys):
    (memorization_dataset_dir / "valid.txt").write_text("")
    config = _write_config(tmp_path / "c.json", {
        "dataset_dir": str(memorization_dataset_dir), "output_dir": str(tmp_path / "run"),
        "model": {"d_e": 4}, "train": {"batch_size": 16, "epochs": 1},
    })
    assert cli.main(["train", "--config", config]) == 0
    capsys.readouterr()
    args = ["evaluate", str(tmp_path / "run" / "checkpoint"), str(memorization_dataset_dir), "--split", "valid"]
    assert cli.main(args) == 2
    assert "split 'valid' has no triples to rank" in capsys.readouterr().err


def test_export_embeddings_rejects_an_entity_list_one_name_short(tmp_path, memorization_dataset_dir, capsys):
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}})).save(tmp_path / "checkpoint")
    names = tmp_path / "checkpoint" / "entities.txt"
    names.write_text("".join(names.read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    assert cli.main(["export-embeddings", str(tmp_path / "checkpoint"), str(tmp_path / "out.tsv")]) == 2
    assert "tensor model.entity_embeddings has shape" in capsys.readouterr().err


def test_prepare_takes_no_config_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["prepare", "--config", str(tmp_path / "c.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kgedistill") and "unrecognized arguments: --config" in err
