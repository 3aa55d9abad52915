"""The benchmark's three workloads, driven through the package's public calls.

Each workload has a set-up (inputs the package keeps across requests: scene,
model, transition table, frequency model), a repetition that the benchmark
times (the same work every time, so repetitions of one run must agree
exactly), and checks of the outputs. All three are one closed-loop caller
doing batch work with threads=1: the package has no request-arrival process.

train     fresh TransitionNet trained on the shipped benchmark scene; the seed
          picks the model initialisation and the pair-sampling stream.
serve     shipped scene, stored checkpoint, transition table, all five
          strategies, then the centralised rankings; the seed picks the
          queries.
longspan  same camera graph and checkpoint, but start times spread so wide
          that the transition table would exceed its cell limit and every
          score runs the network; time-targeted and frequency scoring on; the
          seed picks the scene and the queries.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import time

import numpy as np

# Package functions are called through their modules, so that the tracer's
# attribute replacement reaches these calls too.
from edgereid import metrics, simulate, strategy, transition
from edgereid import scene as sc
from edgereid.config import load_config
from edgereid.nn import cross_entropy, gradient_check
from edgereid.simulate import LEARNED_BUDGETS, Models, QuerySpec, Strategy
from edgereid.transition import TransitionNet, TransitionNetConfig

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "checkpoint.json")
REFERENCE = os.path.join(HERE, "reference.json")
CONFIG = os.path.join(os.path.dirname(HERE), "configs", "benchmark.json")

TRAIN_EPOCHS = 2          # per repetition; the shipped schedule runs 90
SERVE_QUERIES = 300       # per repetition, for run_benchmark and central_rankings
CANONICAL_QUERIES = 100   # digest slice at the shipped simulate seed
LONGSPAN_QUERIES = 6      # per repetition; every score runs the network
LONGSPAN_SCENE = {"num_identities": 2000, "visits": 3, "start_spread": 400_000}
REPLAY_EVERY = 25         # replay every 25th query record, as acceptance test 8


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclasses.dataclass
class Rep:
    """One timed repetition: its output, the operations it attempted, and
    (count, seconds) for each timed part. The runner keeps the output of the
    first repetition only and a digest of every one."""

    output: object
    ops: int
    parts: dict[str, tuple[int, float]]
    digest: str = ""


@dataclasses.dataclass
class Verdict:
    """Failed operations and the reason for each kind of failure."""

    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    # end-to-end quality numbers, reported as e2e.<name>
    quality: dict[str, float] = dataclasses.field(default_factory=dict)
    # exact counts and check results, reported under their own names
    counts: dict[str, float] = dataclasses.field(default_factory=dict)
    digest: str = ""

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def _shipped_scene(config) -> sc.Scene:
    """The scene `edgereid simulate` builds from the shipped config."""
    gen_rng, split_rng = np.random.default_rng(config.scene.seed).spawn(2)
    return sc.split_identities(sc.generate(config.scene.generator, gen_rng),
                               config.scene.train_fraction, split_rng)


def _timestamps(scene: sc.Scene) -> np.ndarray:
    return np.array([o.timestamp for o in scene.observations], dtype=np.int64)


# -- train ----------------------------------------------------------------------


@dataclasses.dataclass
class TrainState:
    scene: sc.Scene
    model: TransitionNet
    schedule: object
    seed: int
    steps: int
    pairs: int


def train_setup(seed: int) -> TrainState:
    config = load_config(CONFIG)
    scene = _shipped_scene(config)
    model = TransitionNet(config.model.build_config(scene.num_cameras),
                          derived_rng(seed, 1))
    schedule = dataclasses.replace(config.train.schedule(), epochs=TRAIN_EPOCHS)
    per_epoch = schedule.pairs_per_epoch or len(scene.train_observations())
    steps = TRAIN_EPOCHS * math.ceil(per_epoch / schedule.batch_size)
    return TrainState(scene=scene, model=model, schedule=schedule, seed=seed,
                      steps=steps, pairs=TRAIN_EPOCHS * per_epoch)


def train_rep(state: TrainState) -> Rep:
    model = copy.deepcopy(state.model)
    start = time.perf_counter()
    history = transition.train(model, state.scene, state.schedule,
                               derived_rng(state.seed, 2))
    parts = {"train_pairs": (state.pairs, time.perf_counter() - start)}
    return Rep(output=history, ops=state.steps, parts=parts)


def train_check(state: TrainState, reps: list[Rep]) -> Verdict:
    verdict = Verdict()
    first = reps[0].output
    losses = [row["loss"] for row in first]
    if len(first) != TRAIN_EPOCHS or not all(map(math.isfinite, losses)):
        verdict.fail(state.steps, f"training history {first} is incomplete "
                                  f"or has a non-finite loss")
    for k, rep in enumerate(reps[1:], 1):
        if rep.digest != reps[0].digest:
            verdict.fail(state.steps, f"repetition {k} trained differently")
    verdict.quality["holdout_accuracy"] = first[-1]["holdout_accuracy"]
    report = _gradcheck(state.seed)
    if not report.passed:
        name, err = report.worst()
        verdict.problems.append(f"gradient check failed: {name} {err:.3e}")
    verdict.counts["check.gradcheck_max_error"] = report.max_error
    return verdict


def _gradcheck(seed: int):
    """One finite-difference audit of a small model, as `edgereid gradcheck`
    runs per trial (batch of four random pairs)."""
    model_rng, data_rng = derived_rng(seed, 3).spawn(2)
    cameras = 4
    model = TransitionNet(TransitionNetConfig(num_cameras=cameras, embed_dim=8),
                          model_rng)
    cams = data_rng.integers(0, cameras, size=4)
    t_query = data_rng.integers(0, 100, size=4).astype(float)
    t_target = t_query + data_rng.integers(-200, 201, size=4)
    targets = data_rng.integers(0, cameras, size=4)

    def loss_fn():
        return cross_entropy(model.forward(cams, t_query, t_target, train=True),
                             targets)[0]

    model.zero_grads()
    _, glogits = cross_entropy(model.forward(cams, t_query, t_target, train=True),
                               targets)
    model.backward(glogits)
    return gradient_check(loss_fn, model.named_params())


# -- serve and longspan -----------------------------------------------------------


@dataclasses.dataclass
class ServeState:
    config: object
    scene: sc.Scene
    models: Models
    params: object
    bandwidth: int
    queries: int
    seed: int
    central: bool


def _serving_models(config, scene: sc.Scene) -> Models:
    model = transition.load_checkpoint(CHECKPOINT)
    transition.check_scene_compatible(model, scene)
    table = simulate.build_transition_table(model, _timestamps(scene))
    frequency = None
    freq = config.inference.frequency
    if freq.enabled:
        frequency = strategy.fit_frequency(scene, bin_width=freq.bin_width,
                                           sigma_bins=freq.sigma_bins,
                                           floor=freq.floor)
    return Models(transition=table, frequency=frequency)


def serve_setup(seed: int) -> ServeState:
    config = load_config(CONFIG)
    scene = _shipped_scene(config)
    return ServeState(config=config, scene=scene,
                      models=_serving_models(config, scene),
                      params=config.inference.params(),
                      bandwidth=config.inference.bandwidth(scene.num_cameras),
                      queries=SERVE_QUERIES, seed=seed, central=True)


def longspan_setup(seed: int) -> ServeState:
    config = load_config(CONFIG)
    inference = dataclasses.replace(
        config.inference, time_targeted=True,
        frequency=dataclasses.replace(config.inference.frequency, enabled=True))
    config = dataclasses.replace(config, inference=inference)
    spec = dataclasses.replace(config.scene.generator, **LONGSPAN_SCENE)
    gen_rng, split_rng = derived_rng(seed, 4).spawn(2)
    scene = sc.split_identities(sc.generate(spec, gen_rng),
                                config.scene.train_fraction, split_rng)
    return ServeState(config=config, scene=scene,
                      models=_serving_models(config, scene),
                      params=inference.params(),
                      bandwidth=inference.bandwidth(scene.num_cameras),
                      queries=LONGSPAN_QUERIES, seed=seed, central=False)


def _simulate(state: ServeState, rng: np.random.Generator, queries: int):
    return simulate.run_benchmark(state.scene, list(Strategy), state.models,
                                  state.bandwidth, state.params,
                                  QuerySpec(max_queries=queries), rng)


def serve_rep(state: ServeState) -> Rep:
    ks = state.config.simulate.rank_ks
    start = time.perf_counter()
    reports = _simulate(state, derived_rng(state.seed, 5), state.queries)
    plans = sum(r.num_queries for r in reports.values())
    parts = {"plans": (plans, time.perf_counter() - start)}
    summaries = {name: metrics.summarize(r, ks) for name, r in reports.items()}
    ops = plans
    central = None
    if state.central:
        start = time.perf_counter()
        visual, joint = simulate.central_rankings(
            state.scene, state.models, state.params, state.queries,
            derived_rng(state.seed, 6))
        central = {name: metrics.cmc_map(ranked, ks)
                   for name, ranked in (("visual", visual), ("joint", joint))}
        parts["central_queries"] = (len(visual), time.perf_counter() - start)
        ops += len(visual)
    return Rep(output=(reports, summaries, central), ops=ops, parts=parts)


def canonical_text(reports, summaries) -> str:
    """pairs.csv as `edgereid simulate` writes it, then each strategy's
    summary as sorted JSON."""
    lines = ["strategy,query_index,target_index,device,rank,budget,tn"]
    for name, report in reports.items():
        for p in report.pairs:
            lines.append(f"{name},{p.query_index},{p.target_index},{p.device},"
                         f"{p.rank},{p.budget},{p.tn}")
    for name in reports:
        lines.append(json.dumps(summaries[name].to_dict(), sort_keys=True))
    return "\n".join(lines) + "\n"


def history_digest(history) -> str:
    return hashlib.sha256(json.dumps(history).encode()).hexdigest()


def output_digest(output) -> str:
    reports, summaries, central = output
    text = canonical_text(reports, summaries)
    if central is not None:
        text += json.dumps({k: list(v) for k, v in central.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def serve_check(state: ServeState, reps: list[Rep]) -> Verdict:
    verdict = Verdict()
    reports, summaries, central = reps[0].output
    for k, rep in enumerate(reps[1:], 1):
        if rep.digest != reps[0].digest:
            verdict.fail(rep.ops, f"repetition {k} produced different output")
    gallery = simulate.build_gallery(state.scene.test_observations(),
                                     state.scene.num_cameras)
    for name, report in reports.items():
        _check_report(state, gallery, Strategy(name), report, verdict)
    combined = summaries[Strategy.COMBINED.value]
    verdict.quality["mtn_combined"] = combined.mtn
    verdict.quality["mpr_combined"] = combined.mean_precise_rank
    verdict.counts["simulate.queries"] = sum(r.num_queries for r in reports.values())
    verdict.counts["simulate.pairs_scored"] = sum(len(r.pairs) for r in reports.values())
    verdict.counts["simulate.skipped"] = next(iter(reports.values())).num_skipped
    if central is not None:
        _check_central(central, state.queries, verdict)
        verdict.quality["central_r1_joint"] = central["joint"][0][1]
        _canonical_digest(state, verdict)
    return verdict


def _check_report(state: ServeState, gallery, kind: Strategy, report,
                  verdict: Verdict) -> None:
    """Invariants on every record, pR-K monotone in K, and an independent
    replay of every REPLAY_EVERY-th query."""
    name = kind.value
    by_query: dict[int, list] = {}
    for p in report.pairs:
        by_query.setdefault(p.query_index, []).append(p)
    bad = {p.query_index for p in report.pairs
           if p.rank < 1 or p.budget < 1 or p.tn != -(-p.rank // p.budget)}
    bad |= {q.query_index for q in report.queries if q.position < 1 or q.round < 1}
    if bad:
        verdict.fail(len(bad), f"{name}: {len(bad)} queries break "
                               f"tn == ceil(rank / budget) or were not delivered")
        return
    top = max(q.position for q in report.queries)
    rates = [metrics.precise_rank_k(report, k) for k in range(1, top + 1)]
    if any(b < a for a, b in zip(rates, rates[1:])) or rates[-1] != 1.0:
        verdict.fail(report.num_queries, f"{name}: pR-K is not monotone in K")
    for record in report.queries[::REPLAY_EVERY]:
        if not _replay(state, gallery, kind, record,
                       by_query.get(record.query_index, [])):
            verdict.fail(1, f"{name}: replay of query {record.query_index} differs")


def _replay(state: ServeState, gallery, kind: Strategy, record, pairs) -> bool:
    task = simulate.make_task(gallery, record.query_index, record.target_time)
    plan_ = simulate.plan(task, kind, state.bandwidth, state.params, state.models)
    ok = int(plan_.budgets.sum()) == state.bandwidth
    log = simulate.run_rounds(plan_, gallery.size)
    ok &= (int(log.position_of[record.desired_index]) == record.position
           and int(log.round_of[record.desired_index]) == record.round)
    rank_of = np.full(gallery.size, -1, dtype=np.int64)
    for seq in plan_.sequences:
        rank_of[seq] = np.arange(1, seq.size + 1)
    sizes = np.array([len(seq) for seq in plan_.sequences], dtype=np.float64)
    for pair in pairs:
        budgets = plan_.budgets
        if kind in LEARNED_BUDGETS:
            logits = state.models.transition.forward(
                task.query_camera, float(task.query_time),
                float(gallery.timestamps[pair.target_index]), train=False)[0]
            budgets = strategy.allocate_bandwidth(logits, sizes, state.bandwidth,
                                         state.params.gamma0,
                                         state.params.gamma1).budgets
            ok &= int(budgets.sum()) == state.bandwidth
        budget = int(budgets[pair.device])
        rank = int(rank_of[pair.target_index])
        ok &= (pair.rank == rank and pair.budget == budget
               and pair.tn == -(-rank // budget))
    return bool(ok)


def _check_central(central, queries: int, verdict: Verdict) -> None:
    for name, (cmc, mean_ap, evaluated, skipped) in central.items():
        rates = [cmc[k] for k in sorted(cmc)]
        if (evaluated + skipped != queries or skipped
                or any(b < a for a, b in zip(rates, rates[1:]))
                or not 0.0 < mean_ap <= 1.0):
            verdict.fail(skipped or queries,
                         f"central {name}: cmc {cmc}, map {mean_ap}, "
                         f"{evaluated} evaluated, {skipped} skipped")


def _canonical_digest(state: ServeState, verdict: Verdict) -> None:
    """Digest of a fixed slice: the shipped simulate seed, CANONICAL_QUERIES
    queries. A mismatch with the stored digest is reported, not failed: the
    output bytes may change for an explained reason."""
    rng = np.random.default_rng(state.config.simulate.seed)
    reports = _simulate(state, rng, CANONICAL_QUERIES)
    ks = state.config.simulate.rank_ks
    summaries = {name: metrics.summarize(r, ks) for name, r in reports.items()}
    digest = hashlib.sha256(canonical_text(reports, summaries).encode()).hexdigest()
    with open(REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh)["serve_canonical_sha256"]
    verdict.digest = digest
    verdict.counts["check.digest_match"] = float(digest == expected)


@dataclasses.dataclass(frozen=True)
class Workload:
    setup: object
    rep: object
    digest: object
    check: object
    # parts of a repetition whose rates the run reports, with their names
    rates: tuple[tuple[str, str], ...]


WORKLOADS = {
    "train": Workload(train_setup, train_rep, history_digest, train_check,
                      (("train_pairs", "train_pairs_per_s"),)),
    "serve": Workload(serve_setup, serve_rep, output_digest, serve_check,
                      (("plans", "plans_per_s"),
                       ("central_queries", "central_queries_per_s"))),
    "longspan": Workload(longspan_setup, serve_rep, output_digest, serve_check,
                         (("plans", "plans_per_s"),)),
}
