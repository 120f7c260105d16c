"""Tests of the benchmark's own parts: the oracles on hand-made cases, the
tracer, and a tiny-size run of each workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ccir import train as T  # noqa: E402
from ccir.config import TrainConfig  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- oracles -----------------------------------------------------------------


def test_chance_aggregate():
    assert oracles.chance_aggregate(200, 6) == pytest.approx(0.5 * (5 / 200 + 1 / 6))
    assert oracles.chance_aggregate(4, 6) == pytest.approx(0.5 * (1 + 1 / 4))


def test_edit_cells_flags_exactly_the_edited_cell():
    rng = np.random.default_rng(0)
    sigma = 0.02
    base = np.full((8, 8, 3), 0.1)
    ref = base + rng.normal(0, sigma, base.shape)
    tgt = base + rng.normal(0, sigma, base.shape)
    tgt[4:8, 0:4] = 0.9  # cell 2 of a 2x2 grid, row-major
    images = {"r": ref, "t": tgt}
    rec = {"id": "x", "ref_image": "r", "tgt_image": "t", "edit": {"cell": 2}}
    assert oracles.check_edit_cells([rec], images.get, (2, 2), sigma) == []
    assert oracles.check_edit_cells([dict(rec, edit={"cell": 1})], images.get, (2, 2), sigma)
    tgt[0:4, 4:8] = 0.5  # a second changed cell
    assert oracles.check_edit_cells([rec], images.get, (2, 2), sigma)


def test_directional_derivative_detects_a_wrong_gradient():
    a = np.array([[1.0, 2.0], [3.0, -1.0]])
    x = {"w": np.array([[0.5, -0.2], [0.1, 0.3]])}

    def loss_at(arrays):
        return float((a * arrays["w"] ** 3).sum())

    right = {"w": 3 * a * x["w"] ** 2}
    wrong = {"w": 1.1 * right["w"]}
    rng = np.random.default_rng(1)
    assert oracles.directional_derivative_error(loss_at, right, x, rng) < 1e-8
    assert oracles.directional_derivative_error(loss_at, wrong, x, rng) > 0.05


def test_rank_bounds_and_ties():
    scores = np.array([0.9, 0.5, 0.5, 0.1])
    assert oracles.rank_bounds(scores, 2, range(4)) == (2, 3)
    assert oracles.rank_bounds(scores, 0, range(4)) == (1, 1)
    assert oracles.rank_bounds(scores, 3, [1, 3]) == (2, 2)


def test_nearest_subsets_by_brute_force():
    feats = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9], [1.0, 0.0]])
    subsets = oracles.nearest_subsets(feats, [0, 2], 3)
    assert subsets[0] == [0, 1, 4]
    assert subsets[2] == [1, 2, 3]
    # an exact tie goes to the lower position
    assert oracles.nearest_subsets(feats, [1], 2)[1] == [0, 1]


def test_check_recalls_against_hand_ranked_queries():
    gallery = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    queries = np.array([[1.0, 0.1], [1.0, 0.0]])
    targets = [0, 1]  # ranks 1 and 3
    subsets = {0: [0, 2], 1: [1, 2]}  # subset ranks 1 and 2
    good = SimpleNamespace(r_at={1: 0.5, 2: 0.5, 3: 1.0}, rs_at={1: 0.5, 2: 1.0})
    assert oracles.check_recalls(good, queries, gallery, targets, subsets, (1, 2, 3), (1, 2)) == []
    bad = SimpleNamespace(r_at={1: 1.0, 2: 1.0, 3: 1.0}, rs_at={1: 0.5, 2: 1.0})
    assert oracles.check_recalls(bad, queries, gallery, targets, subsets, (1, 2, 3), (1, 2))


def test_attention_maps_zero_shot_and_loss_checks():
    ok = {"id": "a", "attention": [0.25, 0.25, 0.5, 0.0]}
    assert oracles.check_attention_maps([ok], 2) == []
    assert oracles.check_attention_maps([dict(ok, attention=[0.5, 0.5, 0.5, -0.5])], 2)
    assert oracles.check_attention_maps([dict(ok, attention=[0.5, 0.5])], 2)

    train = [{"id": "t0", "modifier": "make the red circle blue"}]
    kept = [{"id": "v0", "modifier": "add a purple square"}]
    assert oracles.check_zero_shot(train, kept, ("purple",)) == []
    assert oracles.check_zero_shot(train + kept, kept, ("purple",))
    assert oracles.check_zero_shot(train, train, ("purple",))

    assert oracles.check_loss_falls([{"L": 3.0}, {"L": 2.0}], "x") == []
    assert oracles.check_loss_falls([{"L": 3.0}, {"L": 3.0}], "x")
    assert oracles.check_loss_falls([{"L": 3.0}, {"L": float("nan")}], "x")


# -- tracer ------------------------------------------------------------------


def test_tracer_self_time_and_restore():
    tr = tracing.Tracer()
    original = T.compute_metrics
    tr.install([("ccir.train", "compute_metrics", "compute_metrics"),
                ("ccir.train.Checkpoint", "load", "checkpoint_load")])
    assert T.compute_metrics is not original
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    m = T.compute_metrics(scores, [0, 1], ["a", "b"], recall_ks=(1,))
    assert m.r_at == {1: 1.0}
    tr.uninstall()
    assert T.compute_metrics is original
    assert isinstance(T.Checkpoint.__dict__["load"], classmethod)
    (span,) = tr.spans
    assert span.name == "compute_metrics" and span.seconds > 0
    assert tr.self_times()["compute_metrics"]["calls"] == 1


# -- tiny runs of every workload ---------------------------------------------

TINY_CFG = TrainConfig(d=16, batch_size=16, lr=2e-3)
TINY = {
    "train-default": dataclasses.replace(
        workloads.SPECS["train-default"], n_train=64, n_val=16,
        cfg=dataclasses.replace(TINY_CFG, epochs=3, freeze_epochs=1)),
    "retrieve-gallery": dataclasses.replace(
        workloads.SPECS["retrieve-gallery"], n_train=64, n_val=16,
        cfg=dataclasses.replace(TINY_CFG, epochs=2, freeze_epochs=1)),
    "ablate-d32": dataclasses.replace(
        workloads.SPECS["ablate-d32"], n_train=64, n_val=16,
        cfg=dataclasses.replace(TINY_CFG, epochs=2, freeze_epochs=1)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_checks(name, tmp_path):
    run = workloads.run_workload(name, 0, 0, tmp_path / "w", spec=TINY[name])
    assert run.failures == [] and run.failed == []
    assert run.attempted > 0 and len(run.rounds) == 2
    metrics = workloads.end_to_end(run)
    assert sorted(metrics) == sorted(m["name"] for m in DECLARED["end_to_end"])
    assert all(v > 0 for v in metrics.values()), metrics
    assert not (tmp_path / "w").exists()


def test_failed_operation_is_counted_and_ends_its_round(tmp_path, monkeypatch):
    original, calls = T.alignment_record, []

    def fails_once(*args):
        calls.append(1)
        if len(calls) == 1:
            raise FloatingPointError("injected")
        return original(*args)

    monkeypatch.setattr(T, "alignment_record", fails_once)
    run = workloads.run_workload("train-default", 0, 0, tmp_path / "w",
                                 spec=TINY["train-default"])
    assert run.failed == ["align: FloatingPointError: injected"]
    assert run.failures == [] and len(run.rounds) == 1  # the first round ended early
    whole_round = 1 + workloads.EVAL_REPEATS + TINY["train-default"].n_val
    assert run.attempted == (1 + workloads.EVAL_REPEATS + 1) + whole_round


def test_tiny_traced_run_reports_every_layer(tmp_path):
    tr = tracing.Tracer()
    run = workloads.run_workload("train-default", 1, 0, tmp_path / "w", tr,
                                 spec=TINY["train-default"])
    assert run.failures == []
    layers = tracing.layer_metrics(tr)
    zero = [k for k, v in layers.items() if not v > 0 and k != "autograd.gc_full_collections"]
    assert zero == []
    assert layers["train.unfrozen_step_ms"] > layers["train.frozen_step_ms"] > 0
    assert sorted(layers) == sorted(m["name"] for m in DECLARED["per_layer"])
