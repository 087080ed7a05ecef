"""Command-line front end: ``csm train|sample|eval|check``.

Configuration is flat ``key = value`` text (``#`` comments); every key
can also be passed as a ``--key value`` override. Unknown keys are
rejected before any work starts, outputs are written atomically, and
the process exits non-zero on any error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import checks, data, models, objectives, samplers
from .exact import TabularDistribution, kl_and_tv
from .graphs import BOUNDARIES, KINDS, DiscreteSpace, build_reverse_index, build_structure, load_explicit_edges
from .io import atomic_write, write_csv, write_histogram_pgm, write_samples_csv


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


@dataclass
class RunConfig:
    dataset: str = "toy1d"
    n_samples: int = 100_000
    bins: int = 91
    header: bool = False
    structure: str = "cycle"
    boundary: str = "drop"
    model: str = "logit_table"
    hidden: str = "100,100,100"
    one_hot: bool = False
    objective: str = "csm_exact"
    lr: float = 5e-4
    batch_size: int = 128
    iterations: int = 10_000
    seed: int = 0
    out: str = "out"
    noise_w: float = 0.9
    steps: int = 100_000
    burn_in: int = 10_000
    thin: int = 1
    init: str = ""

    def validate(self) -> "RunConfig":
        known_datasets = ("toy1d",) + data.TOY_2D_NAMES
        if self.dataset not in known_datasets and not self.dataset.startswith("csv:"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.structure.split(":", 1)[0] not in KINDS:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.model not in models._MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.objective not in objectives.OBJECTIVE_NAMES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.lr <= 0 or self.iterations < 1 or self.batch_size < 1 or self.n_samples < 1:
            raise ValueError("lr, iterations, batch_size and n_samples must be positive")
        if not (0.0 < self.noise_w < 1.0):
            raise ValueError("noise_w must lie in (0, 1)")
        if self.steps < 0 or self.burn_in < 0 or self.thin < 1:
            raise ValueError("steps/burn_in must be >= 0 and thin >= 1")
        return self

    def lines(self) -> str:
        return "\n".join(f"{f.name} = {getattr(self, f.name)}" for f in fields(self)) + "\n"


_PARSERS = {bool: _parse_bool, int: int, float: float, str: str}


def parse_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def build_config(file_values: dict[str, str] | None, overrides: dict[str, str]) -> RunConfig:
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(cfg)}
    type_map = {"int": int, "float": float, "str": str, "bool": bool}
    merged = dict(file_values or {})
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in merged.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        ftype = type_map.get(types[key], str) if isinstance(types[key], str) else types[key]
        setattr(cfg, key, _PARSERS[ftype](str(value)))
    return cfg.validate()


def _load_dataset(cfg: RunConfig) -> data.Dataset:
    if cfg.dataset == "toy1d":
        return data.gen_1d_toy(cfg.n_samples, seed=cfg.seed)
    if cfg.dataset in data.TOY_2D_NAMES:
        return data.gen_2d_toy(cfg.dataset, cfg.n_samples, bins=cfg.bins, seed=cfg.seed)
    return data.load_tabular_csv(cfg.dataset.split(":", 1)[1], header=cfg.header)


def _build_structure(cfg: RunConfig, space: DiscreteSpace):
    name = cfg.structure
    if name.startswith("explicit:"):
        edges = load_explicit_edges(name.split(":", 1)[1])
        return build_structure("explicit", space, explicit_edges=edges)
    return build_structure(name, space, boundary=cfg.boundary)


def _build_model(cfg: RunConfig, space: DiscreteSpace, structure):
    hidden = tuple(int(h) for h in cfg.hidden.split(",") if h.strip())
    if cfg.model == "logit_table":
        return models.LogitTableModel(space, seed=cfg.seed)
    if cfg.model == "masked_ar":
        if any(n != 2 for n in space.dims):
            raise ValueError("masked_ar requires binary data")
        return models.MaskedARModel(space.ndim, hidden=hidden, seed=cfg.seed)
    degree = structure.uniform_degree()
    if degree is None:
        raise ValueError("score_net requires a fixed-degree structure")
    return models.ScoreNetModel(space, degree=degree, hidden=hidden, seed=cfg.seed, one_hot=cfg.one_hot)


def _build_objective(cfg: RunConfig, structure, dataset: data.Dataset):
    build = {
        "structure": lambda: structure,
        "empirical": lambda: TabularDistribution.from_samples(dataset.space, dataset.samples),
        "reverse_index": lambda: build_reverse_index(structure),
        "kernel": lambda: objectives.NoiseKernel(space=dataset.space, w=cfg.noise_w),
    }
    needs, _ = objectives.OBJECTIVES[cfg.objective]
    return objectives.make_objective(cfg.objective, **{key: build[key]() for key in needs})


def _init_state(cfg: RunConfig, space: DiscreteSpace) -> tuple[int, ...]:
    if cfg.init:
        return space.validate_state([int(v) for v in cfg.init.split(",")])
    return (0,) * space.ndim


def cmd_train(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    dataset = _load_dataset(cfg)
    structure = _build_structure(cfg, dataset.space)
    model = _build_model(cfg, dataset.space, structure)
    objective = _build_objective(cfg, structure, dataset)

    rows = models.fit(
        model,
        objective,
        dataset.samples,
        iterations=cfg.iterations,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        seed=cfg.seed,
    )
    models.save_checkpoint(os.path.join(cfg.out, "checkpoint.bin"), model)
    write_csv(os.path.join(cfg.out, "train_log.csv"), ["iteration", "objective", "wall_time_s"], rows)
    atomic_write(os.path.join(cfg.out, "config_resolved.txt"), cfg.lines())
    if dataset.ground_truth is not None:
        dataset.ground_truth.to_csv(os.path.join(cfg.out, "ground_truth.csv"))

    summary: list[tuple[str, object]] = [("final_objective", rows[-1][1])]
    if dataset.ground_truth is not None and hasattr(model, "distribution"):
        _, tv = kl_and_tv(model.distribution(), dataset.ground_truth)
        summary.append(("final_tv", tv))
    write_csv(os.path.join(cfg.out, "summary.csv"), ["key", "value"], summary)
    print(f"trained {cfg.model} with {cfg.objective} for {cfg.iterations} iterations")
    for key, value in summary:
        print(f"  {key} = {value}")
    return 0


def cmd_sample(cfg: RunConfig, checkpoint: str) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    loaded = models.load_checkpoint(checkpoint)
    bundle = loaded if isinstance(loaded, list) else [loaded]
    space = bundle[0].space
    structure = _build_structure(cfg, space)
    init = _init_state(cfg, space)
    if len(bundle) == 1:
        samples, chain = samplers.run_chain(
            bundle[0], structure, init, cfg.steps, burn_in=cfg.burn_in, thin=cfg.thin, seed=cfg.seed
        )
    else:
        samples, chain = samplers.run_annealed(
            bundle, structure, init, cfg.steps, seed=cfg.seed, burn_in=cfg.burn_in, thin=cfg.thin
        )
    write_samples_csv(os.path.join(cfg.out, "samples.csv"), samples)
    if space.ndim == 2:
        write_histogram_pgm(os.path.join(cfg.out, "histogram.pgm"), samples, space.dims)
    print(f"wrote {samples.shape[0]} samples, acceptance {chain.acceptance_rate:.3f}")
    return 0


def cmd_eval(cfg: RunConfig, checkpoint: str) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    model = models.load_checkpoint(checkpoint)
    if isinstance(model, list):
        raise ValueError("cannot evaluate a bundle checkpoint")
    if not isinstance(model, models.DensityModel):
        raise ValueError(f"model kind {model.kind!r} is not normalizable")
    dataset = _load_dataset(cfg)
    if tuple(dataset.space.dims) != tuple(model.space.dims):
        raise ValueError("dataset and model live on different spaces")
    ll = model.log_mass_t(dataset.samples).data
    write_csv(
        os.path.join(cfg.out, "eval.csv"),
        ["sample", "log_likelihood"],
        [(i, float(v)) for i, v in enumerate(ll)],
    )
    mean = float(ll.mean())
    write_csv(os.path.join(cfg.out, "eval_summary.csv"), ["key", "value"], [("mean_log_likelihood", mean)])
    print(f"mean log-likelihood: {mean:.4f} nats over {ll.size} samples")
    return 0


def cmd_check(suite: str, seed: int, out: str | None) -> int:
    names = checks.SUITES if suite == "all" else (suite,)
    results = []
    for name in names:
        results.extend(checks.run_suite(name, seed=seed))
    for r in results:
        print(r.line())
    if out:
        os.makedirs(out, exist_ok=True)
        write_csv(
            os.path.join(out, "check_report.csv"),
            ["name", "passed", "measured", "tolerance"],
            [(r.name, r.passed, r.measured, r.tolerance) for r in results],
        )
    return 0 if all(r.passed for r in results) else 1


def _add_config_options(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value config file")
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name}", dest=f.name, default=None, metavar="V")


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return build_config(file_values, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="csm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model and write a checkpoint")
    _add_config_options(p_train)

    p_sample = sub.add_parser("sample", help="draw MH samples from a checkpoint")
    p_sample.add_argument("--checkpoint", required=True)
    _add_config_options(p_sample)

    p_eval = sub.add_parser("eval", help="per-sample log-likelihood of a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    _add_config_options(p_eval)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=checks.SUITES + ("all",))
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.suite, args.seed, args.out)
        cfg = _config_from_args(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "sample":
            return cmd_sample(cfg, args.checkpoint)
        return cmd_eval(cfg, args.checkpoint)
    except Exception as exc:  # CLI contract: non-zero on any error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
