"""Command-line runs end to end, and the exit-code mapping."""

import json
import re

import numpy as np

from kgedistill import cli
from kgedistill.errors import DivergenceError
from kgedistill.training import load_checkpoint


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


def test_divergence_maps_to_exit_3(monkeypatch, capsys):
    def diverge(args):
        raise DivergenceError("kl_divergence is infinite")

    monkeypatch.setattr(cli, "cmd_train", diverge)
    assert cli.main(["train", "--config", "unused.json"]) == 3
    assert "aborted" in capsys.readouterr().err
