"""Command line front end.

Subcommands: gen (synthesise a scene CSV), train (fit the transition network),
gradcheck (finite-difference audit of the backward pass), simulate (round-based
upload benchmark), eval-central (centralised ranking quality). All output
files are deterministic for a fixed config and seed: no timestamps, sorted
keys, full-precision floats.

--dry-run runs the run's own set-up (scene, serving rules, model checked
against the scene, frequency model) and stops before the first training
step, serving call or file write, so it exits 1 exactly when the run does;
gen's dry run only prints.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 gradient
check over tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import OutputSection, RunConfig, check_paths, load_config
from .errors import ConfigError, EdgeReidError
from .metrics import cmc_map, summarize
from .nn import cross_entropy, gradient_check
from .scene import export_csv, generate, ingest_csv, save_spec, split_identities
from .simulate import (Models, Strategy, build_transition_table, central_rankings,
                       check_scoring, check_strategies, run_benchmark)
from .strategy import fit_frequency
from .transition import (TransitionNet, check_scene_compatible,
                         load_checkpoint, save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_GRADCHECK = 3

GRADCHECK_TRIALS = 3
GRADCHECK_BATCH = 4


def _scrub(doc):
    """Replace non-finite floats with null so the JSON stays standard."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _scrub(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_scrub(v) for v in doc]
    return doc


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_scrub(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _ensure_out(config: RunConfig) -> str:
    out = config.output.dir
    os.makedirs(out, exist_ok=True)
    return out


# -- shared build steps -----------------------------------------------------


def _build_scene(config: RunConfig):
    """Generate or ingest the scene, then split identities. Deterministic in
    config.scene.seed; gen and train share the generation stream."""
    rng = np.random.default_rng(config.scene.seed)
    gen_rng, split_rng = rng.spawn(2)
    if config.scene.generator is not None:
        scene = generate(config.scene.generator, gen_rng)
    elif config.scene.ingest is not None:
        scene = ingest_csv(config.scene.ingest)
    else:
        raise ConfigError("scene: either generator or ingest is required")
    return split_identities(scene, config.scene.train_fraction, split_rng)


def _model_source(config: RunConfig, scene, checkpoint: str | None):
    """The network a run trains or serves, checked against the scene: the
    checkpoint, loaded, or else a new network of the configured shape."""
    if checkpoint is not None:
        model = load_checkpoint(checkpoint)
    else:
        model = TransitionNet(config.model.build_config(scene.num_cameras),
                              np.random.default_rng(config.model.seed))
    check_scene_compatible(model, scene)
    return model


def _serving_setup(config: RunConfig, scene):
    """A serving command's model (_model_source) and its frequency model,
    None when disabled."""
    model = _model_source(config, scene, config.simulate.checkpoint)
    freq = config.inference.frequency
    if not freq.enabled:
        return model, None
    return model, fit_frequency(scene, bin_width=freq.bin_width,
                                sigma_bins=freq.sigma_bins, floor=freq.floor)


def _serve(config: RunConfig, scene, model, frequency):
    """Train the model unless it came from a checkpoint, then serve it from a
    transition table that fills its cells on demand: (history, Models)."""
    history = []
    if config.simulate.checkpoint is None:
        history = train(model, scene, config.train.schedule(),
                        np.random.default_rng(config.train.seed))
    return history, Models(build_transition_table(model, scene.timestamps), frequency)


# -- subcommands --------------------------------------------------------------


def cmd_gen(config: RunConfig, dry_run: bool) -> int:
    if config.scene.generator is None:
        raise ConfigError("gen requires scene.generator")
    spec = config.scene.generator
    if dry_run:
        print(f"would generate {spec.num_identities} identities x "
              f"{spec.visits} visits over {spec.num_cameras} cameras "
              f"(seed {config.scene.seed})")
        return EXIT_OK
    rng = np.random.default_rng(config.scene.seed)
    gen_rng, _ = rng.spawn(2)
    scene = generate(spec, gen_rng)
    out = _ensure_out(config)
    export_csv(scene, os.path.join(out, "scene.csv"))
    save_spec(spec, os.path.join(out, "generator.json"))
    print(f"wrote {len(scene)} observations over "
          f"{scene.num_cameras} cameras to {os.path.join(out, 'scene.csv')}")
    return EXIT_OK


def cmd_train(config: RunConfig, dry_run: bool) -> int:
    scene = _build_scene(config)
    model = _model_source(config, scene, None)
    if dry_run:
        print(f"would train {config.train.epochs} epochs at base lr "
              f"{config.train.base_lr} (scene seed {config.scene.seed}, "
              f"model seed {config.model.seed}, train seed {config.train.seed})")
        return EXIT_OK
    history = train(model, scene, config.train.schedule(),
                    np.random.default_rng(config.train.seed))
    out = _ensure_out(config)
    final_acc = history[-1]["holdout_accuracy"] if history else None
    metadata = {"tool": "edgereid", "version": __version__,
                "epochs": config.train.epochs}
    if final_acc is not None and math.isfinite(final_acc):
        metadata["final_holdout_accuracy"] = final_acc
    save_checkpoint(model, os.path.join(out, "checkpoint.json"), metadata)
    _write_json(os.path.join(out, "history.json"), history)
    if final_acc is not None:
        print(f"trained {len(history)} epochs; hold-out accuracy {final_acc:.4f}")
    else:
        print("trained 0 epochs (untrained checkpoint written)")
    return EXIT_OK


def cmd_gradcheck(config: RunConfig, dry_run: bool, inject_fault: bool) -> int:
    if config.model.num_cameras is not None:
        cameras = config.model.num_cameras
    elif config.scene.generator is not None:
        cameras = config.scene.generator.num_cameras
    else:
        raise ConfigError("gradcheck requires model.num_cameras or "
                          "scene.generator")
    net_config = config.model.build_config(cameras)
    if dry_run:
        print(f"would gradient-check {GRADCHECK_TRIALS} seeds of a "
              f"{cameras}-camera model (embed {net_config.embed_dim}, "
              f"{net_config.num_blocks} blocks)")
        return EXIT_OK
    base = np.random.default_rng(config.model.seed)
    failed = False
    for trial in range(GRADCHECK_TRIALS):
        model_rng, data_rng = base.spawn(2)
        model = TransitionNet(net_config, model_rng)
        cams = data_rng.integers(0, cameras, size=GRADCHECK_BATCH)
        t_query = data_rng.integers(0, 100, size=GRADCHECK_BATCH).astype(float)
        t_target = t_query + data_rng.integers(-200, 201, size=GRADCHECK_BATCH)
        targets = data_rng.integers(0, cameras, size=GRADCHECK_BATCH)

        def loss_fn():
            logits = model.forward(cams, t_query, t_target, train=True)
            return cross_entropy(logits, targets)[0]

        model.zero_grads()
        logits = model.forward(cams, t_query, t_target, train=True)
        _, glogits = cross_entropy(logits, targets)
        model.backward(glogits)
        if inject_fault:
            model.spatial_bias.grad[0, 0] += 1.0
        report = gradient_check(loss_fn, model.named_params())
        worst_name, worst_err = report.worst()
        status = "pass" if report.passed else "FAIL"
        print(f"trial {trial}: max relative error {worst_err:.3e} "
              f"({worst_name}) {status}")
        failed = failed or not report.passed
    if failed:
        print("gradient check failed", file=sys.stderr)
        return EXIT_GRADCHECK
    print(f"gradient check passed ({GRADCHECK_TRIALS} trials, tolerance "
          f"{report.tolerance:g})")
    return EXIT_OK


def _report_table(summaries, ks) -> str:
    headers = ["strategy", "mtn"] + [f"pr@{k}" for k in ks] + ["mpr", "pairs"]
    rows = []
    for summary in summaries:
        rows.append([summary.strategy, f"{summary.mtn:.4f}"]
                    + [f"{summary.precise_rank[k]:.4f}" for k in ks]
                    + [f"{summary.mean_precise_rank:.4f}",
                       str(summary.num_pairs)])
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * w for w in widths)]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return "\n".join(lines) + "\n"


def cmd_simulate(config: RunConfig, dry_run: bool) -> int:
    scene = _build_scene(config)
    strategies = [Strategy.parse(s) for s in config.simulate.strategies]
    bandwidth = config.inference.bandwidth(scene.num_cameras)
    params = config.inference.params()
    check_strategies(strategies, scene.num_cameras, bandwidth, params,
                     has_features=scene.features is not None, has_transition=True,
                     has_frequency=config.inference.frequency.enabled)
    model, frequency = _serving_setup(config, scene)
    if dry_run:
        source = ("checkpoint " + config.simulate.checkpoint
                  if config.simulate.checkpoint else "inline training")
        print(f"would simulate strategies {list(config.simulate.strategies)} "
              f"with model from {source} (simulate seed {config.simulate.seed})")
        return EXIT_OK
    history, models = _serve(config, scene, model, frequency)
    reports = run_benchmark(scene, strategies, models, bandwidth, params,
                            config.simulate, np.random.default_rng(config.simulate.seed))

    out = _ensure_out(config)
    ks = config.simulate.rank_ks
    summaries = [summarize(reports[name], ks)
                 for name in config.simulate.strategies]
    echo = config.to_dict()
    echo.pop("output")
    doc = {
        "tool": "edgereid",
        "version": __version__,
        "config": echo,
        "total_bandwidth": bandwidth,
        "gallery_size": reports[config.simulate.strategies[0]].gallery_size,
        "num_queries": reports[config.simulate.strategies[0]].num_queries,
        "num_skipped": reports[config.simulate.strategies[0]].num_skipped,
        "strategies": {s.strategy: s.to_dict() for s in summaries},
    }
    _write_json(os.path.join(out, "report.json"), doc)

    header = (f"edgereid {__version__}  bandwidth {bandwidth}  "
              f"queries {doc['num_queries']}  gallery {doc['gallery_size']}\n\n")
    _write_text(os.path.join(out, "report.txt"),
                header + _report_table(summaries, ks))

    lines = ["strategy,query_index,target_index,device,rank,budget,tn"]
    for name in config.simulate.strategies:
        columns = reports[name].pair_columns
        lines.extend(f"{name}," + ",".join(map(str, row))
                     for row in zip(*(c.tolist() for c in columns)))
    _write_text(os.path.join(out, "pairs.csv"), "\n".join(lines) + "\n")

    _write_json(os.path.join(out, "history.json"), history)
    if history:
        save_checkpoint(model, os.path.join(out, "checkpoint.json"),
                        {"tool": "edgereid", "version": __version__,
                         "epochs": len(history)})
    for summary in summaries:
        print(f"{summary.strategy}: mtn {summary.mtn:.4f}  "
              f"pr@1 {summary.precise_rank[ks[0]]:.4f}  "
              f"mpr {summary.mean_precise_rank:.4f}")
    print(f"wrote report.json, report.txt, pairs.csv, history.json to {out}")
    return EXIT_OK


def cmd_eval_central(config: RunConfig, dry_run: bool) -> int:
    scene = _build_scene(config)
    # central_rankings' rules: it ranks visually and jointly, untargeted
    check_scoring("joint", time_targeted=False, has_features=scene.features is not None,
                  has_transition=True, has_frequency=config.inference.frequency.enabled)
    model, frequency = _serving_setup(config, scene)
    if dry_run:
        print(f"would rank the merged test gallery visually and jointly "
              f"(simulate seed {config.simulate.seed})")
        return EXIT_OK
    _, models = _serve(config, scene, model, frequency)
    visual, joint = central_rankings(
        scene, models, config.inference.params(), config.simulate.max_queries,
        np.random.default_rng(config.simulate.seed))
    out = _ensure_out(config)
    ks = config.simulate.rank_ks
    echo = config.to_dict()
    echo.pop("output")
    doc = {"tool": "edgereid", "version": __version__,
           "config": echo, "rankings": {}}
    lines = []
    for name, ranked in (("visual", visual), ("joint", joint)):
        cmc, mean_ap, evaluated, skipped = cmc_map(ranked, ks)
        doc["rankings"][name] = {
            "cmc": {str(k): v for k, v in sorted(cmc.items())},
            "mean_ap": mean_ap, "evaluated": evaluated, "skipped": skipped}
        ranks = "  ".join(f"r@{k} {cmc[k]:.4f}" for k in ks)
        lines.append(f"{name}: {ranks}  map {mean_ap:.4f}")
    _write_json(os.path.join(out, "central.json"), doc)
    _write_text(os.path.join(out, "central.txt"), "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="JSON run configuration")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override every section seed")
    common.add_argument("--out", default=None, metavar="DIR",
                        help="override output.dir")
    common.add_argument("--dry-run", action="store_true",
                        help="run the set-up and print the plan, without training, "
                        "serving or writing")
    parser = argparse.ArgumentParser(
        prog="edgereid",
        description="bandwidth-aware retrieval across edge cameras")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", parents=[common],
                   help="generate a synthetic scene CSV")
    sub.add_parser("train", parents=[common],
                   help="train the transition network and save a checkpoint")
    grad = sub.add_parser("gradcheck", parents=[common],
                          help="audit analytic gradients by finite differences")
    grad.add_argument("--inject-fault", action="store_true",
                      help="corrupt one analytic gradient as a negative control")
    sub.add_parser("simulate", parents=[common],
                   help="run the round-based upload benchmark")
    sub.add_parser("eval-central", parents=[common],
                   help="rank the merged gallery visually and jointly")
    return parser


COMMANDS = {"gen": cmd_gen, "train": cmd_train, "simulate": cmd_simulate,
            "eval-central": cmd_eval_central}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = config.override_seed(args.seed)
        if args.out is not None:
            config = dataclasses.replace(config, output=OutputSection(dir=args.out))
        check_paths(config)
        if args.command == "gradcheck":
            return cmd_gradcheck(config, args.dry_run, args.inject_fault)
        return COMMANDS[args.command](config, args.dry_run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EdgeReidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
