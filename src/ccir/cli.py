"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure in training, evaluation or an alignment export.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .autograd import NonFiniteError
from .config import TrainConfig
from .data import (
    DataConfig,
    generate_dataset,
    make_zero_shot_split,
    split_configs,
    write_jsonl,
)
from .train import (
    Checkpoint,
    DataError,
    NumericFailure,
    evaluate,
    export_alignment_heatmap,
    load_dataset,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, raw: str):
    """Turn a key=value string into the right type for a TrainConfig field."""
    spec = {f.name: f for f in fields(TrainConfig)}
    if name not in spec:
        raise ConfigError(f"unknown config key {name!r}")
    kind = str(spec[name].type)
    raw = raw.strip()
    if name == "pos_classes":
        return frozenset(x for x in raw.split(",") if x)
    if name in ("recall_ks", "subset_ks"):
        try:
            return tuple(int(x) for x in raw.split(",") if x)
        except ValueError as e:
            raise ConfigError(f"bad integer list for {name}: {raw!r}") from e
    if name == "word_vector_file":
        return None if raw.lower() in ("", "none") else raw
    if "bool" in kind:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"bad boolean for {name}: {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if "int" in kind:
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"bad integer for {name}: {raw!r}") from e
    try:
        return float(raw)
    except ValueError as e:
        raise ConfigError(f"bad number for {name}: {raw!r}") from e


def read_config_file(path) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = _coerce(key.strip(), value)
    return out


def build_train_config(args) -> TrainConfig:
    overrides = {}
    if args.config:
        overrides.update(read_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = _coerce(key.strip(), value)
    overrides["seed"] = args.seed
    try:
        return TrainConfig(**overrides)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate_data(args) -> int:
    holdout = tuple(c for c in (args.holdout_colors or "").split(",") if c)
    try:
        gh, gw = (int(x) for x in args.grid.lower().split("x"))
        cfg = DataConfig(
            grid=(gh, gw),
            cell_px=args.cell_px,
            min_objects=args.min_objects,
            max_objects=args.max_objects,
            noise_sigma=args.noise_sigma,
        )
        split_configs(cfg, args.n_train, args.n_val, holdout)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    paths = generate_dataset(
        args.out, args.n_train, args.n_val, cfg, seed=args.seed,
        holdout_colors=holdout,
    )
    print(json.dumps({k: str(v) for k, v in paths.items()}, sort_keys=True))
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        cfg = build_train_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        ckpt, records = train(cfg, args.data, out_dir=args.out, verbose=not args.quiet)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    final = records[-1]["recall"] if records else {}
    print(json.dumps({"checkpoint": str(Path(args.out) / "model.nck"), "final": final},
                     sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        ckpt = Checkpoint.load(args.checkpoint)
    except (OSError, DataError) as e:
        print(f"data error: cannot load checkpoint {args.checkpoint}: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        dataset = load_dataset(args.data)
        records = dataset.val if args.split == "val" else dataset.train
        m = evaluate(ckpt, records, dataset, score_dump_path=args.scores_out)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(m.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_zero_shot_split(args) -> int:
    try:
        dataset = load_dataset(args.data)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    train_modifiers = [r["modifier"] for r in dataset.train]
    concepts, kept = make_zero_shot_split(train_modifiers, dataset.val)
    if args.out:
        write_jsonl(args.out, kept)
    print(json.dumps({"zero_shot_concepts": sorted(concepts), "n_triplets": len(kept)},
                     sort_keys=True))
    return EXIT_OK


def cmd_align_viz(args) -> int:
    try:
        ckpt = Checkpoint.load(args.checkpoint)
        dataset = load_dataset(args.data)
    except (OSError, DataError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    rec = next((r for r in dataset.train + dataset.val if r["id"] == args.triplet), None)
    if rec is None:
        print(f"data error: no triplet with id {args.triplet!r}", file=sys.stderr)
        return EXIT_DATA
    try:
        out = export_alignment_heatmap(ckpt, rec, args.concept, dataset, args.out)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ccir",
                                description="Concept-aligned composed image retrieval.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="render a synthetic triplet dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n-train", type=int, default=2000)
    g.add_argument("--n-val", type=int, default=200)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--grid", default="4x4")
    g.add_argument("--cell-px", type=int, default=8)
    g.add_argument("--min-objects", type=int, default=2)
    g.add_argument("--max-objects", type=int, default=4)
    g.add_argument("--noise-sigma", type=float, default=0.02)
    g.add_argument("--holdout-colors", default="",
                   help="comma-separated colors kept out of the training split")
    g.set_defaults(func=cmd_generate_data)

    t = sub.add_parser("train", help="train a model on a generated dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--config", help="key=value file of TrainConfig overrides")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="inline config override (repeatable)")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=("train", "val"), default="val")
    e.add_argument("--scores-out", help="optional JSONL of per-query rankings")
    e.set_defaults(func=cmd_eval)

    z = sub.add_parser("zero-shot-split", help="extract val triplets with unseen concepts")
    z.add_argument("--data", required=True)
    z.add_argument("--out", help="optional JSONL path for the kept triplets")
    z.set_defaults(func=cmd_zero_shot_split)

    a = sub.add_parser("align-viz", help="export an alignment heatmap for one triplet")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--triplet", required=True)
    a.add_argument("--concept", required=True)
    a.add_argument("--out", required=True, help="output path prefix (.pgm/.json added)")
    a.set_defaults(func=cmd_align_viz)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
