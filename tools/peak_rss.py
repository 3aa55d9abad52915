"""Peak resident memory of one bench workload, phase by phase.

Replays in this process what `python3 bench/run.py --trace 0` runs: the
workload's set-ups (at least run.SETUP_REPEATS, until run.SETUP_SECONDS have
passed), its repetitions until --seconds have passed, and its check. After
each set-up, each repetition and the check it prints the process's peak
resident set size so far (VmHWM in /proc/self/status, or ru_maxrss where that
file is missing) and its current one (VmRSS), so a change that moves bench
`peak_rss_mb` shows in which phase the peak was reached, without a tracer.

bench/run.py and bench/workloads.py are imported unedited, so BLAS runs on
one thread as in the bench. Stdlib only beyond what the bench imports:

    python3 tools/peak_rss.py --workload train --seed 1 --seconds 30
"""

import argparse
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import run  # noqa: E402  (pins BLAS to one thread before numpy loads)


def memory_mib() -> tuple[float, float | None]:
    """(peak, current) resident set size in MiB; current is None where
    /proc/self/status cannot be read."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
        return (int(fields["VmHWM"].split()[0]) / 1024.0,
                int(fields["VmRSS"].split()[0]) / 1024.0)
    except (OSError, KeyError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None


def report(phase: str, seconds: float) -> None:
    peak, current = memory_mib()
    now = "" if current is None else f"  rss {current:8.2f} MiB"
    print(f"{phase:<16} {seconds:8.3f} s  peak {peak:8.2f} MiB{now}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    run.import_package(ROOT)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    run.check_checkpoint(workloads)
    report("start", 0.0)

    runner = run.Runner(workloads.WORKLOADS[args.workload], args.seed)
    setup_times = []
    while (len(setup_times) < run.SETUP_REPEATS
           or sum(setup_times) < run.SETUP_SECONDS):
        state, seconds = runner.setup()
        setup_times.append(seconds)
        report(f"setup {len(setup_times)}", seconds)

    start = time.perf_counter()
    while True:
        last = runner.rep(state)
        report(f"rep {len(runner.done) + runner.failed}", last)
        if time.perf_counter() - start + last > args.seconds:
            break

    start = time.perf_counter()
    reps = [rep for rep, _, _, _ in runner.done]
    verdict = (runner.workload.check(state, reps) if reps
               else workloads.Verdict(problems=["every repetition raised"]))
    report("check", time.perf_counter() - start)
    for problem in verdict.problems:
        print(f"CHECK FAILED: {problem}")
    failed = runner.failed + verdict.failed
    print(f"workload {args.workload}  seed {args.seed}  set-ups "
          f"{len(setup_times)}  repetitions {len(runner.done)}  failed {failed}")
    return 0 if failed == 0 and not verdict.problems else 1


if __name__ == "__main__":
    sys.exit(main())
