"""Where one bench workload's set-up spends its time, stage by stage.

Runs `bench/workloads.py`'s set-up of one workload --setups times in this
process, as `python3 bench/run.py` does before its timed repetitions, and
prints for each stage the median over set-ups of its self time (its
duration minus the stages it called), with the set-up's median wall time:

    load_config         workloads.load_config
    generate            scene.generate
    split               scene.split_identities
    model               TransitionNet(...) (train)
    load_checkpoint     transition.load_checkpoint (serve, longspan)
    observations        reading Scene.observations (the record tuple)
    subset              Scene.subset (train_observations, test_observations)
    table               simulate.build_transition_table
    frequency fit       strategy.fit_frequency (longspan)
    other               the set-up's wall time minus every stage above

The stages are timed by replacing those attributes with timing wrappers and
restoring them afterwards; bench/run.py and bench/workloads.py are imported
unedited, so BLAS runs on one thread as in the bench. Stdlib only beyond
what the bench imports:

    python3 tools/setup_time.py --workload train --seed 1 --setups 40
"""

import argparse
import contextlib
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import run  # noqa: E402  (pins BLAS to one thread before numpy loads)


class StageTimer:
    """Self time per stage name within one set-up: a stage's wall time minus
    the wall time of the stages it called."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self._children = [0.0]  # per open stage, time of the stages it called

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                inner = self._children.pop()
                self._children[-1] += wall
                self.self_s[name] = self.self_s.get(name, 0.0) + wall - inner
        return timed


@contextlib.contextmanager
def stages_timed(timer: StageTimer, workloads):
    """Replace each stage's attribute with timer's wrapper; restore on exit."""
    from edgereid import scene, simulate, strategy, transition
    targets = [
        (workloads, "load_config", "load_config"),
        (scene, "generate", "generate"),
        (scene, "split_identities", "split"),
        (workloads, "TransitionNet", "model"),
        (transition, "load_checkpoint", "load_checkpoint"),
        (scene.Scene, "subset", "subset"),
        (simulate, "build_transition_table", "table"),
        (strategy, "fit_frequency", "frequency fit"),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    saved.append((scene.Scene, "observations", scene.Scene.__dict__["observations"]))
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, timer.wrap(name, getattr(owner, attr)))
        scene.Scene.observations = property(
            timer.wrap("observations", scene.Scene.observations.fget))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


STAGES = ("load_config", "generate", "split", "model", "load_checkpoint",
          "observations", "subset", "table", "frequency fit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--setups", type=int, default=40)
    args = parser.parse_args(argv)
    if args.setups < 1:
        parser.error("--setups must be at least 1")
    run.import_package(ROOT)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    run.check_checkpoint(workloads)
    setup = workloads.WORKLOADS[args.workload].setup
    samples = {name: [] for name in STAGES + ("other", "set-up")}
    for _ in range(args.setups):
        timer = StageTimer()
        with stages_timed(timer, workloads):
            start = time.perf_counter()
            setup(args.seed)
            wall = time.perf_counter() - start
        for name in STAGES:
            samples[name].append(timer.self_s.get(name, 0.0))
        samples["other"].append(wall - sum(timer.self_s.values()))
        samples["set-up"].append(wall)
    print(f"workload {args.workload}  seed {args.seed}  set-ups {args.setups}  "
          f"(median ms per set-up)")
    total = statistics.median(samples["set-up"])
    for name, values in samples.items():
        median = statistics.median(values)
        if median or name in ("other", "set-up"):
            print(f"  {name:<16} {median * 1e3:9.3f} ms  {median / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
