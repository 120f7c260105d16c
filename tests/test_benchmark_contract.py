"""What the benchmark's tracer relies on must keep holding.

``perfbench/tracer.py`` wraps program functions by module and attribute
name, reads ``attention_core``'s head count from its 4th positional
argument, and tells a frozen training step from an unfrozen one by the
input keys ``forward_backward`` gets as its 2nd.  Its own tests sit
outside this suite, so a change here would otherwise surface only when
the benchmark runs.
"""

import ast
import importlib
import inspect
from pathlib import Path

import ccir.train
from ccir.config import TrainConfig
from ccir.data import DataConfig, generate_dataset
from ccir.layers import attention_core

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> tuple:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def owner_of(dotted: str):
    """The module, or a class inside a module, named by a dotted path."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = [(owner, attr) for owner, attr, _ in targets
               if attr not in vars(owner_of(owner))]
    assert not missing, f"tracer targets without a definition: {missing}"


def test_attention_core_takes_heads_fourth():
    params = list(inspect.signature(attention_core).parameters)
    assert params[3] == "n_heads"


def test_frozen_steps_pass_token_cache_inputs(tmp_path, monkeypatch):
    """Frozen epochs feed cached tokens, unfrozen epochs raw patches."""
    generate_dataset(tmp_path, 16, 4, DataConfig(), seed=5)
    seen = []
    real = ccir.train.forward_backward

    def spy(*args, **kwargs):
        seen.append(sorted(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(ccir.train, "forward_backward", spy)
    cfg = TrainConfig(d=16, k_steps=2, batch_size=8, epochs=2, freeze_epochs=1)
    ccir.train.train(cfg, tmp_path)
    per_epoch = len(seen) // 2
    assert per_epoch and len(seen) == 2 * per_epoch
    assert seen[:per_epoch] == [["ref_tokens", "tgt_tokens"]] * per_epoch
    assert seen[per_epoch:] == [["patches"]] * per_epoch
