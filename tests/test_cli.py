"""Command-line surface: argument plumbing, config parsing, exit codes."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from ccir.cli import ConfigError, _coerce, build_parser, main, read_config_file
from ccir.data import read_jsonl, write_jsonl
from ccir.tensor import ParameterSet, Tensor
from ccir.train import Checkpoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    code = main(["generate-data", "--out", str(out), "--n-train", "40", "--n-val", "10",
                 "--seed", "21", "--holdout-colors", "purple,orange"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["train", "--data", str(data_dir), "--out", str(out), "--seed", "0",
                 "--quiet", "--set", "epochs=1", "--set", "d=16", "--set", "k_steps=2",
                 "--set", "batch_size=8", "--set", "freeze_epochs=1"])
    assert code == 0
    return out


# -- config plumbing --------------------------------------------------------


def test_coerce_types():
    assert _coerce("epochs", "12") == 12
    assert _coerce("lr", "5e-4") == pytest.approx(5e-4)
    assert _coerce("remove_fusion", "true") is True
    assert _coerce("plain_layer_norm", "No") is False
    assert _coerce("recall_ks", "1,5,10") == (1, 5, 10)
    assert _coerce("pos_classes", "noun,adj") == frozenset({"noun", "adj"})
    assert _coerce("word_vector_file", "none") is None
    assert _coerce("word_vector_file", "vecs.txt") == "vecs.txt"
    with pytest.raises(ConfigError):
        _coerce("no_such_key", "1")
    with pytest.raises(ConfigError):
        _coerce("epochs", "twelve")
    with pytest.raises(ConfigError):
        _coerce("remove_fusion", "maybe")


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "epochs = 7\n"
        "alpha=100.5   # trailing comment\n"
        "context_score_on = yes\n"
        "\n",
        encoding="utf-8",
    )
    cfg = read_config_file(path)
    assert cfg == {"epochs": 7, "alpha": 100.5, "context_score_on": True}
    path.write_text("epochs 7\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_parser_rejects_missing_seed():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--data", "x", "--out", "y"])


# -- subcommands ------------------------------------------------------------


def test_generate_data_writes_layout(data_dir, capsys):
    assert (data_dir / "train.jsonl").exists()
    assert (data_dir / "meta.json").exists()
    assert len(read_jsonl(data_dir / "train.jsonl")) == 40


def test_generate_data_without_holdout_colors(tmp_path, capsys):
    out = tmp_path / "plain"
    code = main(["generate-data", "--out", str(out), "--n-train", "4", "--n-val", "2",
                 "--seed", "1"])
    assert code == 0
    written = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(written) == ["index", "store", "train", "val"]
    assert all(Path(path).is_file() for path in written.values())
    assert (out / "meta.json").is_file()
    assert len(read_jsonl(out / "train.jsonl")) == 4
    assert len(read_jsonl(out / "val.jsonl")) == 2


def test_train_writes_checkpoint_and_log(run_dir, capsys):
    assert (run_dir / "model.nck").exists()
    assert (run_dir / "model.json").exists()
    assert (run_dir / "metrics.jsonl").exists()


def test_train_with_config_file(data_dir, tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("epochs = 1\nd = 16\nk_steps = 2\nbatch_size = 8\n", encoding="utf-8")
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 "--seed", "1", "--quiet", "--config", str(cfg),
                 "--set", "freeze_epochs=0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "final" in out


def test_eval_prints_metrics(run_dir, data_dir, capsys):
    code = main(["eval", "--checkpoint", str(run_dir / "model.nck"),
                 "--data", str(data_dir)])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "R@1" in metrics and "aggregate" in metrics


def test_zero_shot_split_lists_holdout_colors(data_dir, tmp_path, capsys):
    from ccir.data import COLORS

    out_file = tmp_path / "zs.jsonl"
    code = main(["zero-shot-split", "--data", str(data_dir), "--out", str(out_file)])
    assert code == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # only the held-out colors can be color-novel in validation
    assert set(info["zero_shot_concepts"]) & set(COLORS) <= {"purple", "orange"}
    kept = read_jsonl(out_file)
    assert len(kept) == info["n_triplets"]
    for rec in kept:
        assert set(rec["concepts"]) & set(info["zero_shot_concepts"])


def test_align_viz_writes_files(run_dir, data_dir, tmp_path, capsys):
    rec = read_jsonl(data_dir / "val.jsonl")[0]
    side = json.loads((run_dir / "model.json").read_text())
    concept = next(c for c in rec["concepts"] if c in side["concepts"])
    code = main(["align-viz", "--checkpoint", str(run_dir / "model.nck"),
                 "--data", str(data_dir), "--triplet", rec["id"],
                 "--concept", concept, "--out", str(tmp_path / "h")])
    assert code == 0
    assert (tmp_path / "h.pgm").exists()
    assert (tmp_path / "h.json").exists()


# -- exit codes -------------------------------------------------------------


def test_exit_2_on_bad_config(data_dir, tmp_path, capsys):
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--seed", "0", "--set", "bogus=1"]) == 2
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--seed", "0", "--set", "batch_size=1"]) == 2
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--seed", "0", "--set", "reference_only=true",
                 "--set", "target_only=true"]) == 2
    assert main(["generate-data", "--out", str(tmp_path / "d"), "--seed", "1",
                 "--holdout-colors", "mauve"]) == 2


SMALL_TRAIN = ["--set", "epochs=1", "--set", "d=16", "--set", "k_steps=2",
               "--set", "batch_size=8", "--set", "freeze_epochs=1"]


@pytest.mark.parametrize("command, flags", [
    ("train", ["--set", "d=0"]),
    ("train", ["--set", "n_heads=0"]),
    ("train", ["--set", "eval_every=0"]),
    ("train", ["--set", "decay_every=0"]),
    ("train", ["--set", "recall_ks=0"]),
    ("train", ["--set", "subset_ks=1,0"]),
    ("train", ["--set", "subset_size=0"]),
    ("generate-data", ["--grid", "0x4"]),
    ("generate-data", ["--cell-px", "0"]),
    ("generate-data", ["--min-objects", "0"]),
    ("generate-data", ["--min-objects", "5"]),
    ("generate-data", ["--grid", "2x2"]),
])
def test_exit_2_on_out_of_range_value(data_dir, tmp_path, capsys, command, flags):
    """A width, head count, period, k, subset size, grid, cell size or
    object count the program cannot run with exits 2 before writing."""
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--data", str(data_dir), "--out", str(out), "--seed", "0", "--quiet",
                *SMALL_TRAIN, *flags]
    else:
        argv = ["generate-data", "--out", str(out), "--n-train", "20", "--n-val", "4",
                "--seed", "1", *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("holdout", ["red,blue,green,yellow,purple",
                                     "red,blue,green,yellow,purple,orange"])
def test_exit_2_when_holdout_leaves_one_training_color(tmp_path, capsys, holdout):
    out = tmp_path / "d"
    assert main(["generate-data", "--out", str(out), "--n-train", "4", "--n-val", "2",
                 "--seed", "1", "--holdout-colors", holdout]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("counts", [("-1", "2"), ("4", "-1")])
def test_exit_2_on_negative_triplet_count(tmp_path, capsys, counts):
    out = tmp_path / "d"
    assert main(["generate-data", "--out", str(out), "--n-train", counts[0],
                 "--n-val", counts[1], "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_exit_3_on_missing_data(run_dir, tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(run_dir / "model.nck"),
                 "--data", str(tmp_path / "missing")]) == 3
    assert main(["eval", "--checkpoint", str(tmp_path / "no.nck"),
                 "--data", str(tmp_path / "missing")]) == 3
    assert main(["zero-shot-split", "--data", str(tmp_path / "missing")]) == 3


def test_exit_3_on_unknown_triplet_or_concept(run_dir, data_dir, tmp_path, capsys):
    rec = read_jsonl(data_dir / "val.jsonl")[0]
    assert main(["align-viz", "--checkpoint", str(run_dir / "model.nck"),
                 "--data", str(data_dir), "--triplet", "nope",
                 "--concept", "red", "--out", str(tmp_path / "h")]) == 3
    assert main(["align-viz", "--checkpoint", str(run_dir / "model.nck"),
                 "--data", str(data_dir), "--triplet", rec["id"],
                 "--concept", "blorp", "--out", str(tmp_path / "h")]) == 3


@pytest.mark.parametrize("name, key", [
    ("meta.json", "cell_px"),
    ("train.jsonl", "modifier"),
    ("val.jsonl", "tgt_image"),
])
def test_exit_3_on_malformed_dataset_file(data_dir, tmp_path, capsys, name, key):
    """A dataset file without a key the program reads exits 3, naming the
    file, the record and the key, not with a traceback."""
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    path = bad / name
    if name == "meta.json":
        meta = json.loads(path.read_text(encoding="utf-8"))
        del meta[key]
        path.write_text(json.dumps(meta), encoding="utf-8")
    else:
        records = read_jsonl(path)
        del records[1][key]
        write_jsonl(path, records)
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "run"), "--seed", "0",
                 "--quiet", "--set", "epochs=1"])
    assert code == 3
    err = capsys.readouterr().err
    assert name in err and repr(key) in err
    if name != "meta.json":
        assert "record 2" in err


def _bad_magic(raw: bytes, last: int) -> bytes:
    return b"XXXX" + raw[4:]


def _truncated_header(raw: bytes, last: int) -> bytes:
    return raw[: last + 6]  # the last record's magic, then half of its rank field


def _truncated_file(raw: bytes, last: int) -> bytes:
    return raw[:-3]


@pytest.mark.parametrize("name, corrupt", [
    ("images.nct", _bad_magic),
    ("images.nct", _truncated_header),
    ("images.nct", _truncated_file),
    ("images.idx.json", _truncated_file),
])
def test_exit_3_on_corrupt_image_store(data_dir, tmp_path, capsys, name, corrupt):
    """A damaged image store (bad record magic, truncated header or
    payload) or index exits 3 naming the file, not with a traceback."""
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    last = max(json.loads((bad / "images.idx.json").read_text(encoding="utf-8")).values())
    (bad / name).write_bytes(corrupt((bad / name).read_bytes(), last))
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "run"), "--seed", "0",
                 "--quiet", "--set", "epochs=1"])
    assert code == 3
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("flag", [("--grid", "3x3"), ("--cell-px", "4")])
def test_exit_3_on_dataset_of_another_geometry(run_dir, tmp_path, capsys, flag):
    """A checkpoint evaluated or visualized on a dataset whose grid or cell
    size differs from its own exits 3, naming both geometries."""
    other = tmp_path / "other"
    assert main(["generate-data", "--out", str(other), "--n-train", "8", "--n-val", "4",
                 "--seed", "3", *flag]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "model.nck"), "--data", str(other)]) == 3
    err = capsys.readouterr().err
    assert "4x4 grid of 8-px cells" in err and "Traceback" not in err
    rec = read_jsonl(other / "val.jsonl")[0]
    side = json.loads((run_dir / "model.json").read_text(encoding="utf-8"))
    concept = next(c for c in rec["concepts"] if c in side["concepts"])
    assert main(["align-viz", "--checkpoint", str(run_dir / "model.nck"), "--data", str(other),
                 "--triplet", rec["id"], "--concept", concept,
                 "--out", str(tmp_path / "h")]) == 3
    assert "4x4 grid of 8-px cells" in capsys.readouterr().err
    assert not (tmp_path / "h.pgm").exists()


def test_exit_3_on_malformed_checkpoint(run_dir, data_dir, tmp_path, capsys):
    """A sidecar with an unknown config key or a missing key, or a
    truncated container, exits 3."""
    side = json.loads((run_dir / "model.json").read_text(encoding="utf-8"))

    def evaluate_with(sidecar, container=None):
        shutil.copy(run_dir / "model.nck", tmp_path / "model.nck")
        if container is not None:
            (tmp_path / "model.nck").write_bytes(container)
        (tmp_path / "model.json").write_text(json.dumps(sidecar), encoding="utf-8")
        return main(["eval", "--checkpoint", str(tmp_path / "model.nck"),
                     "--data", str(data_dir)])

    assert evaluate_with(dict(side, config=dict(side["config"], no_such_option=True))) == 3
    assert "no_such_option" in capsys.readouterr().err
    assert evaluate_with({k: v for k, v in side.items() if k != "epoch"}) == 3
    assert "'epoch'" in capsys.readouterr().err
    truncated = (run_dir / "model.nck").read_bytes()[:-3]
    assert evaluate_with(side, truncated) == 3
    assert "truncated" in capsys.readouterr().err


def test_exit_4_on_numeric_failure(data_dir, tmp_path, capsys):
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--seed", "0", "--quiet", "--set", "lr=1e8",
                 "--set", "epochs=3", "--set", "d=16", "--set", "k_steps=2",
                 "--set", "batch_size=8", "--set", "freeze_epochs=0"])
    assert code == 4
    assert "numeric failure" in capsys.readouterr().err


def test_exit_4_on_overflowing_update(data_dir, tmp_path, capsys):
    """An lr past float32 range overflows the first AdamW update: exit 4,
    with the parameter path in the message, not a traceback."""
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--seed", "0", "--quiet", "--set", "lr=1e39",
                 "--set", "epochs=1", "--set", "d=16", "--set", "k_steps=2",
                 "--set", "batch_size=8", "--set", "freeze_epochs=0"])
    assert code == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err
    assert "AdamW update for parameter" in err


def test_exit_4_on_overflowing_inference(run_dir, data_dir, tmp_path, capsys):
    """A checkpoint whose patch weights (3e38, finite in float32) overflow
    the first linear map: eval and align-viz exit 4, naming the primitive,
    not a traceback."""
    ckpt = Checkpoint.load(run_dir / "model.nck")
    w = ckpt.params["image/patch/w"]
    huge = ParameterSet({"image/patch/w": Tensor(np.full(w.shape, 3e38, np.float32))})
    dataclasses.replace(ckpt, params=ckpt.params.merge(huge)).save(tmp_path / "model.nck")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "model.nck"),
                 "--data", str(data_dir)]) == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err and "'linear'" in err and "Traceback" not in err
    rec = read_jsonl(data_dir / "val.jsonl")[0]
    concept = next(c for c in rec["concepts"] if c in ckpt.concept_vocab)
    assert main(["align-viz", "--checkpoint", str(tmp_path / "model.nck"),
                 "--data", str(data_dir), "--triplet", rec["id"], "--concept", concept,
                 "--out", str(tmp_path / "h")]) == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err and "'linear'" in err and "Traceback" not in err
    assert not (tmp_path / "h.pgm").exists()
