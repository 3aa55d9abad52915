"""A catalogue of mutants that the tier-1 tests must kill, and its runner.

Each entry names a file of the repo, a snippet that occurs in it exactly
once, the snippet's replacement, and the tests that must fail once the
replacement is made. The runner copies the repo to a temporary directory
and, one mutant at a time, applies it to the copy, runs its tests there
with `-x` (hypothesis on a fixed seed), and puts the file back. A mutant
whose tests all pass survives. Stdlib only; the tests need what tier-1
needs.

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py --list       # their names
    python3 tools/mutants.py NAME ...     # the named ones

Exits 0 when every mutant run was killed, 1 when one survived and 2 when an
entry is broken (its snippet is not in its file exactly once, or pytest
found none of its tests). A refactor that moves a snippet updates its entry;
a survivor is mended by a stronger test, never by dropping the mutant.
tests/test_mutants.py checks every entry against the tree on each tier-1 run.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what the copy leaves out: version control, caches and run outputs
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "out")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repo root
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repo root


NN, TRANSITION, CLI = ("src/edgereid/nn.py", "src/edgereid/transition.py",
                      "src/edgereid/cli.py")
STRATEGY, SIMULATE, SCENE = ("src/edgereid/strategy.py", "src/edgereid/simulate.py",
                             "src/edgereid/scene.py")
BATCH_NORM_TEST = ("tests/test_nn.py::"
                   "test_batch_norm_with_a_workspace_matches_the_allocating_kernel",)
TRAINING_TEST = ("tests/test_transition.py::"
                 "test_training_matches_the_allocating_layers[2]",)
EXTREME_TEST = ("tests/test_cli.py::"
                "test_an_extreme_generator_value_fails_cleanly_and_alike_with_and_"
                "without_dry_run")
PARITY_TEST = ("tests/test_cli.py::"
               "test_a_config_the_scene_rejects_exits_1_with_and_without_dry_run")

MUTANTS = (
    # the normalisation kernels layer norm and batch norm share
    Mutant("batch-norm-backward-axis", NN,
           '"batch_norm_backward", axis=0)', '"batch_norm_backward", axis=-1)',
           BATCH_NORM_TEST),
    Mutant("batch-norm-forward-axis", NN,
           "_standardize(x, x_hat, y, self.eps, axis=0)",
           "_standardize(x, x_hat, y, self.eps, axis=-1)", BATCH_NORM_TEST),
    Mutant("batch-norm-biased-running-variance", NN,
           "unbiased = var * n / (n - 1)", "unbiased = var", BATCH_NORM_TEST),
    Mutant("layer-norm-backward-axis", NN,
           '"layer_norm_backward", axis=-1)', '"layer_norm_backward", axis=0)',
           ("tests/test_nn.py::test_layer_norm_gradients_by_finite_difference",)),
    Mutant("phi-without-abs", NN,
           "np.abs(factor, out=phi.reshape(-1)[piece])",
           "np.copyto(phi.reshape(-1)[piece], factor)",
           ("tests/test_nn.py::test_normal_cdf_matches_scipy_in_both_tails",)),
    # the one head
    Mutant("head-gradient-camera-order", TRANSITION,
           "self.head.backward(glogits.reshape(n * c, 1)",
           "self.head.backward(glogits.T.reshape(n * c, 1)", TRAINING_TEST),
    Mutant("head-eval-camera-order", TRANSITION,
           "b).reshape(out.shape)", "b).reshape(out.shape[::-1]).T",
           ("tests/test_transition.py::test_forward_matches_loop_reimplementation",)),
    Mutant("live-step-buffer", TRANSITION,
           '"head_backward.ga": "grad",', '"head_backward.ga": "wide",',
           TRAINING_TEST),
    Mutant("per-node-heads-accepted", TRANSITION,
           "setting(False, operator.not_)", "setting(False)",
           ("tests/test_transition.py::"
            "test_a_checkpoint_storing_per_node_heads_is_refused",)),
    # the frequency model's bounds
    Mutant("sigma-bins-unbounded", STRATEGY,
           "return 0.0 <= sigma_bins <= MAX_SIGMA_BINS", "return 0.0 <= sigma_bins",
           (EXTREME_TEST + "[sigma_bins-1e+300-simulate]",)),
    Mutant("floor-unbounded", STRATEGY,
           "return 0.0 < floor <= MAX_FLOOR", "return 0.0 < floor < math.inf",
           (EXTREME_TEST + "[floor-1.7976931348623157e+308-simulate]",)),
    Mutant("kernel-overflow-warns", STRATEGY,
           'with np.errstate(over="ignore"):\n        kernel =',
           "with np.errstate():\n        kernel =",
           (EXTREME_TEST + "[sigma_bins-1e-300-simulate]",)),
    Mutant("unseen-pairs-divided", STRATEGY,
           "where=self.observed[source, dest])", "where=True)",
           (EXTREME_TEST + "[floor-5e-324-simulate]",)),
    Mutant("alpha-unbounded", STRATEGY,
           "return 0.0 < alpha <= MAX_ALPHA", "return 0.0 < alpha < math.inf",
           (EXTREME_TEST + "[alpha-1.7976931348623157e+308-simulate]",)),
    # one set-up for a dry run and the run, and one implementation of each rule
    Mutant("dry-run-before-set-up", CLI,
           "    scene = _build_scene(config)\n    strategies =",
           "    if dry_run:\n        return EXIT_OK\n"
           "    scene = _build_scene(config)\n    strategies =",
           (PARITY_TEST + "[ingested-featureless-simulate]",)),
    Mutant("serving-set-up-without-scene-check", SIMULATE,
           "        check_scene_compatible(models.transition, scene)\n    check(",
           "        pass\n    check(",
           ("tests/test_simulate.py::test_central_rankings_check_the_model_"
            "against_the_scene_as_run_benchmark_does",)),
    Mutant("features-rule-dropped", SIMULATE,
           'if kind != "time" and not has_features:', "if False:",
           ("tests/test_simulate.py::test_run_benchmark_raises_config_errors_"
            "before_the_first_query",)),
    # serving and the scene
    Mutant("find-without-empty-camera-guard", SIMULATE,
           "if sel.size:  # a camera with no items", "if True:  # a camera with no items",
           ("tests/test_simulate.py::test_engine_and_plan_match_the_reference_on_"
            "empty_and_own_only_cameras",)),
    Mutant("swapped-lexsort-keys", SCENE,
           "np.lexsort((ids, ts, cams))", "np.lexsort((ids, cams, ts))",
           ("tests/test_scene.py::test_observations_sorted_by_camera_then_time",)),
    Mutant("one-normal-too-many-at-the-walk-end", SCENE,
           "# the draws that no visit reads\n        normal(out=normals[drawn:owed])",
           "# the draws that no visit reads\n        normal(out=normals[drawn:owed])\n"
           "        normal()",
           ("tests/test_scene.py::"
            "test_the_last_visits_delay_is_drawn_but_never_applied",)),
)


def occurrences(mutant: Mutant, root: str = ROOT) -> int:
    """How many times the mutant's snippet occurs in its file under root."""
    with open(os.path.join(root, mutant.path), encoding="utf-8") as fh:
        return fh.read().count(mutant.snippet)


def run_mutant(mutant: Mutant, copy: str) -> str:
    """Apply the mutant to the copy, run its tests and restore the file:
    "killed", "survived", or "broken" when pytest found no test to run."""
    path = os.path.join(copy, mutant.path)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original.replace(mutant.snippet, mutant.replacement, 1))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
    # pytest exits 1 when a test failed and 2 when collection failed (a
    # mutant that breaks an import); 4 and 5 mean no test ran
    return {0: "survived", 1: "killed", 2: "killed"}.get(proc.returncode, "broken")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the names")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or list(MUTANTS)
    if args.list:
        print("\n".join(m.name for m in chosen))
        return 0
    misplaced = [m.name for m in chosen if occurrences(m) != 1]
    if misplaced:
        print(f"snippets not found exactly once: {', '.join(misplaced)}",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    outcomes = {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for mutant in chosen:
            began = time.perf_counter()
            outcomes[mutant.name] = run_mutant(mutant, copy)
            print(f"{outcomes[mutant.name]:8}  {mutant.name}  "
                  f"({time.perf_counter() - began:.1f} s)", flush=True)
    survivors = [n for n, o in outcomes.items() if o == "survived"]
    broken = [n for n, o in outcomes.items() if o == "broken"]
    print(f"{len(outcomes) - len(survivors) - len(broken)} of {len(outcomes)} "
          f"killed in {time.perf_counter() - start:.0f} s"
          + (f"; survivors: {', '.join(survivors)}" if survivors else "")
          + (f"; broken: {', '.join(broken)}" if broken else ""))
    return 2 if broken else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
