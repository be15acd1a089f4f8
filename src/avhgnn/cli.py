"""Command-line surface: dataset generation, training, evaluation, inspection.

Every subcommand echoes its effective configuration so a run can be
reproduced from its output alone. Exit codes: 0 success, 1 usage, 2 data or
config problem (a size too large to allocate or for numpy to express included),
3 numeric failure, 141 stdout closed by its reader. JSON output is strict: null,
never NaN.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .data import (DataFormatError, DatasetError, SynthSpec, generate_synthetic,
                   load_dataset, read_json)
from .graph import EdgeRule, EdgeRules, relation_edges
from .layers import GatFusionLayer
from .metrics import evaluate
from .tensor import ComputeGraph, NumericError, ShapeError
from .training import (ConfigError, TrainConfig, atomic_open, check_items, load_checkpoint,
                       run_seeds, seed_configs, split_dataset, train, write_history_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 128 + 13  # as a shell reports a process killed by SIGPIPE
# numpy's ValueErrors for a shape or size it cannot express
_NUMPY_SIZE_ERRORS = ("Maximum allowed size exceeded", "Maximum allowed dimension exceeded",
                      "array is too big;")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for data problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _echo(label: str, payload: dict):
    print(f"{label}: {json.dumps(payload, sort_keys=True, allow_nan=False)}")


def _add_fields(p, record, names, suffix=""):
    """One flag per named field of `record`, `--name` plus `suffix`, with the
    field's annotated type and its CHOICES."""
    hints = typing.get_type_hints(record)
    for name in names:
        p.add_argument(f"--{name}{suffix}".replace("_", "-"), type=hints[name],
                       choices=record.CHOICES.get(name))


def _read_record(record, base, args, suffix=""):
    """`record.from_dict` of the JSON value `base`, each field set to the value of
    the flag named after it (see `_add_fields`) when that flag was given. A `base`
    that is not an object is read as it is, so the reader rejects it."""
    if isinstance(base, dict):
        base = base | {f.name: value for f in fields(record)
                       if (value := getattr(args, f.name + suffix, None)) is not None}
    return record.from_dict(base)


# -- gen-synth ----------------------------------------------------------------


def _add_gen_synth(sub):
    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--spec", help="JSON file with SynthSpec fields")
    p.add_argument("--out", required=True, help="output directory")
    _add_fields(p, SynthSpec, ("mode", "n_items", "noise_sigma", "seed"))
    p.set_defaults(run=_cmd_gen_synth)


def _cmd_gen_synth(args) -> int:
    spec = _read_record(SynthSpec, read_json(args.spec) if args.spec else {}, args)
    manifest_path = generate_synthetic(spec, args.out)
    _echo("spec", spec.to_dict())
    print(f"wrote {spec.n_items} items ({spec.n_audio}x{spec.d_audio} audio, "
          f"{spec.n_video}x{spec.d_video} video, {spec.n_classes} classes, "
          f"mode={spec.mode}) to {manifest_path}")
    return EXIT_OK


# -- train --------------------------------------------------------------------


def _add_train(sub):
    p = sub.add_parser("train", help="train a model on a manifest dataset")
    p.add_argument("--config", help="JSON file with TrainConfig fields")
    p.add_argument("--data", required=True, help="manifest.json path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", help="comma-separated seeds for a multi-seed run")
    p.add_argument("--resume", help="checkpoint to continue from")
    _add_fields(p, TrainConfig, ("pooling", "fusion", "modality", "lr", "gamma", "hidden",
                                 "num_layers", "max_iters", "batch_size", "seed",
                                 "eval_every", "warmup_iters", "decay_at_iter"))
    p.set_defaults(run=_cmd_train)


def _run_one_seed(items_train, items_val, cfg, run_cfg, out_dir: Path, tag: str,
                  resume=None):
    suffix = f"_{tag}" if tag else ""

    def progress(row):
        if cfg.validates(row["iteration"]):
            print(f"[{tag or 'train'}] iter {row['iteration']}/{cfg.max_iters} "
                  f"loss {row['loss']:.5f} lr {row['lr']:.5g} map {row['map']:.4f}")

    result = train(items_train, cfg, val_items=items_val, resume=resume,
                   progress=progress)
    out_dir.mkdir(parents=True, exist_ok=True)  # only now: a run that fails writes nothing
    with atomic_open(out_dir / "effective_config.json", "w") as f:
        json.dump(run_cfg.to_dict(), f, indent=2, allow_nan=False)
    ckpt_path = out_dir / f"checkpoint{suffix}.hgck"
    result.save(ckpt_path)
    write_history_csv(out_dir / f"history{suffix}.csv", result.history)
    return ckpt_path, result.final_eval


def _check_out(out_dir: Path):
    """ConfigError unless `out_dir`, or its nearest existing ancestor, is a writable
    directory, so a run cannot train to its end and then fail to write. A dangling symlink
    exists, as no directory can be made in its place. Creates nothing."""
    here = out_dir.absolute()
    existing = next(p for p in (here, *here.parents) if p.exists() or p.is_symlink())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {out_dir}: {existing} is not a writable directory")


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None
    return seeds


def _cmd_train(args) -> int:
    seeds = _parse_seeds(args.seeds) if args.seeds is not None else None
    if seeds is not None and args.resume:
        raise ConfigError("--resume cannot be combined with --seeds")
    ckpt = None
    if args.resume:
        if args.config:
            raise ConfigError("--resume cannot be combined with --config")
        ckpt = load_checkpoint(args.resume)
        cfg = _read_record(TrainConfig, ckpt.train_config.to_dict(), args)
        ckpt.check_resume(cfg)  # a changed model or split exits before any file is written
    else:
        cfg = _read_record(TrainConfig, read_json(args.config) if args.config else {}, args)
    if seeds is not None:
        seed_configs(cfg, seeds)  # a bad seed list exits before any file is written
    _echo("config", cfg.to_dict())
    out_dir = Path(args.out)
    _check_out(out_dir)
    items = load_dataset(args.data, cfg.rules)
    if seeds is not None:
        def run_seed(items_train, items_val, c):
            ckpt_path, ev = _run_one_seed(items_train, items_val, c, cfg, out_dir, f"seed{c.seed}")
            print(f"seed {c.seed}: map {ev.map:.4f} roc_auc {ev.roc_auc:.4f} -> {ckpt_path}")
            return ev

        aggregate = run_seeds(items, cfg, seeds, run=run_seed).to_dict()
        with atomic_open(out_dir / "aggregate.json", "w") as f:
            json.dump(aggregate, f, indent=2, allow_nan=False)
        _echo("aggregate", aggregate)
        return EXIT_OK

    items_train, items_val = split_dataset(items, cfg.val_fraction, cfg.seed)
    ckpt_path, ev = _run_one_seed(items_train, items_val, cfg, cfg, out_dir, "", resume=ckpt)
    if ev is not None:
        print(f"final: map {ev.map:.4f} roc_auc {ev.roc_auc:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


# -- eval ---------------------------------------------------------------------


def _add_eval(sub):
    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(run=_cmd_eval)


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = ckpt.build_model()
    items = load_dataset(args.data, ckpt.train_config.rules)
    check_items(ckpt.model_config, items)
    result = evaluate(model, items)
    payload = result.to_dict()
    payload["config"] = ckpt.train_config.to_dict()
    print(json.dumps(payload, indent=2, allow_nan=False))
    return EXIT_OK


# -- inspect-graph ------------------------------------------------------------


def _add_inspect(sub):
    p = sub.add_parser("inspect-graph", help="emit edge lists for given node counts")
    p.add_argument("--config", help="JSON file with TrainConfig fields (for rules)")
    p.add_argument("--n-audio", type=int, required=True)
    p.add_argument("--n-video", type=int, required=True)
    for edge in ("audio", "video", "cross"):
        _add_fields(p, EdgeRule, ("span", "dilation"), suffix=f"_{edge}")
    p.set_defaults(run=_cmd_inspect)


def _rules_from_args(args) -> EdgeRules:
    rules = TrainConfig.from_dict(read_json(args.config) if args.config else {}).rules
    return EdgeRules(**{edge: _read_record(EdgeRule, getattr(rules, edge).to_dict(), args,
                                           suffix=f"_{edge}")
                        for edge in ("audio", "video", "cross")})


def _degree_stats(rows: np.ndarray, n: int) -> dict:
    degrees = np.bincount(rows, minlength=n)
    return {"min": int(degrees.min()), "max": int(degrees.max()),
            "mean": float(degrees.mean())}


def _cmd_inspect(args) -> int:
    rules = _rules_from_args(args)
    n_audio, n_video = args.n_audio, args.n_video
    if n_audio < 1 or n_video < 1:
        raise ConfigError("node counts must be >= 1")
    aa, vv, va = relation_edges(n_audio, n_video, rules)
    payload = {
        "config": {"n_audio": n_audio, "n_video": n_video, "rules": asdict(rules)},
        "aa_edges": np.stack(aa, axis=1)[aa[0] < aa[1]].tolist(),
        "vv_edges": np.stack(vv, axis=1)[vv[0] < vv[1]].tolist(),
        "va_edges": np.stack(va, axis=1).tolist(),
        "degrees": {  # k = 0 is no intra edge
            "audio_intra": _degree_stats(aa[0][aa[0] != aa[1]], n_audio),
            "video_intra": _degree_stats(vv[0][vv[0] != vv[1]], n_video),
            "audio_cross": _degree_stats(va[0], n_audio),
        },
    }
    print(json.dumps(payload, indent=2, allow_nan=False))
    return EXIT_OK


# -- dump-attention -----------------------------------------------------------


def _add_dump_attention(sub):
    p = sub.add_parser("dump-attention",
                       help="per-audio-node attention summary for one item")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--item", required=True, help="item id from the manifest")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(run=_cmd_dump_attention)


def attention_summary(attention_maps) -> list[tuple[int, int, float]]:
    """Rows (layer, audio_node, value): max incoming weight per node,
    min-max rescaled to [0, 1] within each layer. A constant layer maps
    to all-ones."""
    rows = []
    for layer_idx, alpha in enumerate(attention_maps):
        per_node = alpha.max(axis=1)
        lo, hi = float(per_node.min()), float(per_node.max())
        if hi > lo:
            scaled = (per_node - lo) / (hi - lo)
        else:
            scaled = np.ones_like(per_node)
        rows.extend((layer_idx, node, float(value))
                    for node, value in enumerate(scaled))
    return rows


def _cmd_dump_attention(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = ckpt.build_model()
    if not isinstance(model.layers[0].fusion, GatFusionLayer):
        raise ConfigError(f"checkpoint was trained with fusion={model.config.fusion!r}, "
                          f"modality={model.config.modality!r}: no attention to dump")
    items = load_dataset(args.data, ckpt.train_config.rules)
    matches = [it for it in items if it.item_id == args.item]
    if not matches:
        raise DatasetError(f"item {args.item!r} not found in {args.data}")
    check_items(ckpt.model_config, matches)
    g = ComputeGraph()
    result = model.forward(g, matches[0].graph)
    lines = ["layer,audio_node,attention"]
    lines += [f"{layer},{node},{value:.6f}"
              for layer, node, value in attention_summary(result.attention)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with atomic_open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- entry point ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="avhgnn",
                     description="audio-visual heterogeneous graph classifier")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_synth(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_inspect(sub)
    _add_dump_attention(sub)
    return parser


def _keep_freed_memory():
    """Where the C library has mallopt, serve arrays under 32 MiB from the heap and trim
    it past 256 MiB free: each training step reuses memory instead of faulting it in."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader went away: exit as SIGPIPE would, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ConfigError, DataFormatError, DatasetError, ShapeError, OSError,
            MemoryError) as exc:  # numpy's message names the size and shape it wanted
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        if not str(exc).startswith(_NUMPY_SIZE_ERRORS):
            raise  # any other ValueError is the program's own, and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
