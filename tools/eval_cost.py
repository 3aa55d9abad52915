"""Per-row cost of TransitionNet.eval_logits at a given width and worker count.

Times --calls eval_logits calls of --rows rows each, on --workers workers
forced whatever the batch size and the machine's CPUs (as the tests'
eval_workers fixture forces them), and prints the median per-row cost of a
call in microseconds, then the traced peak memory of one more call (the
pass's arrays, as tests/test_transition.py measures them). At --cameras 8
the model is the shipped checkpoint (bench/checkpoint.json, D=32);
otherwise it is a seeded random model of --dim features and --blocks graph
blocks. The batch is seeded random source cameras and target times up to
--span ticks either side of the query time. The package is imported from
this repository's src, and BLAS runs on one thread, as in the bench.
Stdlib and the package only:

    python3 tools/eval_cost.py --cameras 32 --dim 32 --rows 4096 --workers 2
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import numpy as np  # noqa: E402  (the package's one dependency)

from edgereid import transition as tr  # noqa: E402

CHECKPOINT = os.path.join(ROOT, "bench", "checkpoint.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cameras", type=int, default=8)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--blocks", type=int, default=2)
    parser.add_argument("--rows", type=int, default=4096)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--calls", type=int, default=30)
    parser.add_argument("--span", type=float, default=20_000.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if min(args.rows, args.workers, args.calls) < 1 or args.cameras < 2:
        parser.error("--rows, --workers and --calls must be >= 1, --cameras >= 2")
    return args


def build_model(args) -> tr.TransitionNet:
    if args.cameras == 8:
        model = tr.load_checkpoint(CHECKPOINT)
        if model.config.embed_dim != args.dim:
            sys.exit(f"the shipped checkpoint has D={model.config.embed_dim}, "
                     f"not --dim {args.dim}")
        return model
    config = tr.TransitionNetConfig(num_cameras=args.cameras, embed_dim=args.dim,
                                    num_blocks=args.blocks)
    return tr.TransitionNet(config, np.random.default_rng(args.seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    model = build_model(args)
    rng = np.random.default_rng(args.seed + 1)
    cams = rng.integers(0, args.cameras, args.rows)
    td = rng.uniform(-args.span, args.span, args.rows).round()
    tr._eval_workers = lambda n: args.workers
    model.eval_logits(cams, 0.0, td)  # warm-up
    per_row = []
    for _ in range(args.calls):
        start = time.perf_counter()
        model.eval_logits(cams, 0.0, td)
        per_row.append((time.perf_counter() - start) / args.rows * 1e6)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    model.eval_logits(cams, 0.0, td)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    print(f"C={args.cameras} D={model.config.embed_dim} rows={args.rows} "
          f"workers={args.workers}: median {statistics.median(per_row):.3f} us/row "
          f"over {args.calls} calls, traced peak {peak / 2**20:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
