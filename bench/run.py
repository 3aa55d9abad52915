"""edgereid benchmark: one command for every workload, metric and check.

Run from anywhere in the repository, for example:

    python3 bench/run.py --workload serve --seed 1 --seconds 30 --trace 0

It sets the workload up several times (median reported as setup_s), then
repeats the workload's timed work until --seconds have passed, checks the
outputs, and prints one line per metric followed by a JSON result as the
last line. With --trace 0 the JSON holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, measured by
wrapping the package's functions from outside (bench/tracer.py) while
untraced repetitions alternate with traced ones to measure the overhead.
The package is imported from ./src, never from an installed copy, and BLAS
runs on one thread.
"""

import os

# Pin BLAS before numpy loads: on two cores one thread measured both faster
# and steadier than the default pool.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracer as tr  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# setup_s is the median of at least SETUP_REPEATS set-ups, repeated until
# SETUP_SECONDS have passed, so that cheap set-ups get more samples.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
EXIT_USAGE = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package(root: str):
    """Import edgereid from root/src; refuse any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "edgereid", "__init__.py")):
        raise SystemExit(f"error: no edgereid sources under {src}")
    if not os.path.isfile(os.path.join(root, "configs", "benchmark.json")):
        raise SystemExit("error: configs/benchmark.json is missing")
    sys.path.insert(0, src)
    import edgereid
    if not os.path.abspath(edgereid.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported edgereid from {edgereid.__file__}")


def environment(workloads) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "env": {k: os.environ.get(k) for k in THREAD_VARS},
            "checkpoint_sha256": workloads.sha256_file(workloads.CHECKPOINT)}


def check_checkpoint(workloads) -> None:
    with open(workloads.REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh)["checkpoint_sha256"]
    actual = workloads.sha256_file(workloads.CHECKPOINT)
    if actual != expected:
        raise SystemExit(f"error: {workloads.CHECKPOINT} has sha256 {actual}, "
                         f"bench/reference.json expects {expected}")


def median_rate(reps, part: str) -> float:
    """Median over repetitions of count / seconds for one timed part."""
    samples = [r.parts[part][0] / r.parts[part][1] for r in reps if part in r.parts]
    return statistics.median(samples) if samples else 0.0


class Runner:
    """Set-up, timed repetitions and failure accounting for one workload."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        # (Rep, wall seconds, traced, resource usage) per completed repetition
        self.done = []
        self.attempted = 0
        self.failed = 0

    def setup(self, tracer=None):
        start = time.perf_counter()
        if tracer is None:
            state = self.workload.setup(self.seed)
        else:
            with tracer.installed(), tracer.span("bench.setup"):
                state = self.workload.setup(self.seed)
        return state, time.perf_counter() - start

    def rep(self, state, tracer=None) -> float:
        """Run one repetition and return its wall time; an exception counts
        as one failed operation. Garbage left by the previous repetition is
        collected first, outside the timing."""
        gc.collect()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            if tracer is None:
                rep = self.workload.rep(state)
            else:
                with tracer.installed(), tracer.span("bench.rep"):
                    rep = self.workload.rep(state)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        usage = {"process.cpu_s": (after.ru_utime + after.ru_stime
                                   - before.ru_utime - before.ru_stime),
                 "process.sys_s": after.ru_stime - before.ru_stime,
                 "process.minor_faults": after.ru_minflt - before.ru_minflt}
        self.attempted += rep.ops
        rep.digest = self.workload.digest(rep.output)
        if self.done:
            rep.output = None
        self.done.append((rep, wall, tracer is not None, usage))
        return wall

    def untraced(self):
        return [(rep, wall, usage) for rep, wall, traced, usage in self.done
                if not traced]


def timed_phase(runner: Runner, state, seconds: float, tracers: list | None):
    """Repeat until the next round would end past `seconds`. Traced runs
    alternate an untraced and a traced repetition, each traced one with a
    tracer of its own appended to `tracers`."""
    start = time.perf_counter()
    while True:
        last = runner.rep(state)
        if tracers is not None:
            tracers.append(tr.Tracer())
            last += runner.rep(state, tracers[-1])
        if time.perf_counter() - start + last > seconds:
            break


def layer_metrics(runner: Runner, main_tracer, tracers) -> dict[str, float]:
    """Per-layer totals from the traced set-up and first traced repetition,
    percentiles from every traced repetition, and the tracing overhead."""
    samples: dict[str, list[float]] = {}
    for t in [main_tracer] + tracers:
        for name, start, end, _, _ in t.spans:
            samples.setdefault(name, []).append(end - start)
    out = tr.layer_stats(main_tracer, samples)
    roots = [i for i, s in enumerate(main_tracer.spans) if s[0] == "bench.rep"]
    out["trace.coverage_frac"] = main_tracer.coverage(roots[0]) if roots else 0.0
    out["trace.spans"] = len(main_tracer.spans)
    traced = [wall for _, wall, t, _ in runner.done if t]
    untraced = [wall for _, wall, _ in runner.untraced()]
    if untraced:
        for key in ("process.cpu_s", "process.sys_s", "process.minor_faults"):
            out[key] = statistics.median(u[key] for _, _, u in runner.untraced())
    if traced and untraced:
        out["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(HERE)
    import_package(root)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_USAGE
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_checkpoint(workloads)
    print("environment " + json.dumps(environment(workloads), sort_keys=True))

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    main_tracer = tr.Tracer() if args.trace else None
    tracers = [] if args.trace else None
    setup_times = []
    while not setup_times or not args.trace and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS):
        state, seconds = runner.setup(main_tracer)
        setup_times.append(seconds)
    if main_tracer is not None:
        runner.rep(state, main_tracer)
    timed_phase(runner, state, args.seconds, tracers)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reps = [rep for rep, _, _, _ in runner.done]
    if reps:
        verdict = workload.check(state, reps)
    else:
        verdict = workloads.Verdict(problems=["every repetition raised"])
    failed = runner.failed + verdict.failed
    attempted = max(runner.attempted, failed, 1)
    correct = failed == 0 and not verdict.problems

    untraced = runner.untraced()
    e2e = {name: median_rate([rep for rep, _, _ in untraced], part)
           for part, name in workload.rates}
    e2e.update(verdict.quality)
    e2e["failed_frac"] = failed / attempted
    if args.trace:
        values = layer_metrics(runner, main_tracer, tracers)
        values.update(verdict.counts)
        values.update({f"e2e.{k}": v for k, v in e2e.items()})
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        main_tracer.write(os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl"))
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "ops_per_s": statistics.median(
                      [rep.ops / wall for rep, wall, _ in untraced] or [0.0]),
                  "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  set-ups "
          f"{len(setup_times)}  repetitions {len(runner.done)} "
          f"({len(untraced)} untraced)  trace {args.trace}")
    if not args.trace:
        # the traced run reports these workload figures as e2e.<name>
        units = {e["name"][4:]: e["unit"] for e in spec["per_layer"]
                 if e["name"].startswith("e2e.")}
        for name, value in sorted(e2e.items()):
            print(f"  {name:<40} {value:.6g} {units[name]}")
        for name, value in sorted(verdict.counts.items()):
            print(f"  {name:<40} {value:.6g}")
    if verdict.digest:
        print(f"  canonical serve digest {verdict.digest}")
    for problem in verdict.problems:
        print(f"  CHECK FAILED: {problem}")
    metrics = {}
    for entry in wanted:
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<40} {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
