"""Benchmark of csm's learn -> sample -> reconstruct -> denoise pipelines.

Usage, from the root of a checkout:

    python3 bench/run.py --workload checkerboard-grid --seed 1 --seconds 25 --trace 0

Workloads: checkerboard-grid, binary-tabular, denoise-1d (bench/README.md
says what each stresses). The run builds the inputs from ``--seed``, sets
up once (timed cold, from the start of this script) and runs the full
pipeline once, which warms every stage and produces the outputs it checks.
It then repeats timed rounds, each a seeded slice of every stage, until
``--seconds`` have passed (at least ``MIN_ROUNDS``), and reports each
stage's median over rounds. It prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics (no tracing code runs);
- ``--trace 1``: the per-layer metrics from spans around each ``csm``
  module's public functions, also written with every span to
  ``bench/out/trace-<workload>.json`` (one file per workload, replaced by
  the next traced run, so repeated runs do not fill the disk).

The program is imported from ``src/`` next to this directory; without it
the run exits with a non-zero code before any work.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one process, one thread: BLAS and OpenMP pools must be pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MIN_ROUNDS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import csm from it."""
    if not os.path.isfile(os.path.join(SRC, "csm", "__init__.py")):
        sys.exit(f"bench: no program at {SRC}/csm; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import csm

    if os.path.dirname(os.path.dirname(os.path.abspath(csm.__file__))) != SRC:
        sys.exit(f"bench: csm was imported from {csm.__file__}, not from {SRC}")


def end_to_end(setup_s, setup_ref, full, rounds):
    """Stage rates per calibrated second, medians over rounds; ``total_s`` is
    set-up plus one full pipeline pass, each stage at its median calibrated
    time per unit of work."""
    from reference import calibrated

    per_unit = {
        stage: statistics.median(calibrated(r[stage][1], r[stage][2]) / r[stage][0]
                                 for r in rounds)
        for stage in full
    }
    rate = {stage: 1.0 / t for stage, t in per_unit.items()}
    pipeline = sum(full[stage][0] * per_unit[stage] for stage in full)
    return {
        "setup_s": (setup_s, "s"),
        "train_samples_per_s": (rate["train"], "states/cal-s"),
        "mh_steps_per_s": (rate["mh"], "steps/cal-s"),
        "reconstruct_states_per_s": (rate["reconstruct"], "states/cal-s"),
        "langevin_particle_steps_per_s": (rate["langevin"], "psteps/cal-s"),
        "denoise_points_per_s": (rate["denoise"], "points/cal-s"),
        "total_s": (calibrated(setup_s, setup_ref) + pipeline, "cal-s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    from reference import reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    work = WORKLOADS[args.workload](args.seed, tracer, OUT_DIR)

    with tracer.span("setup"):
        work.setup()
    setup_s = time.perf_counter() - T_START
    setup_ref = statistics.median(reference() for _ in range(5))

    with tracer.span("full"):
        full = work.run_pass()
    rounds, round_spans, round_counts = [], [], []
    t_measure = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_measure < args.seconds:
        gc.collect()
        before = dict(tracer.counts) if args.trace else {}
        round_spans.append(len(tracer.spans) if args.trace else -1)
        with tracer.span("round"):
            rounds.append(work.round(len(rounds)))
        if args.trace:
            round_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})

    results = work.checks()
    for check in results:
        print(check.line(), file=sys.stderr)
    # one operation is one stage of the full pass or of a round
    attempted = (len(rounds) + 1) * len(full)

    if args.trace:
        import layers

        metrics = layers.per_layer(tracer, work, round_spans, round_counts)
        total_s = end_to_end(setup_s, setup_ref, full, rounds)["total_s"][0]
        tracer.uninstall()
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.json"),
                     {"workload": args.workload, "seed": args.seed, "traced_total_s": total_s,
                      "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"traced total_s {total_s:.4f}", file=sys.stderr)
    else:
        metrics = end_to_end(setup_s, setup_ref, full, rounds)
    print(f"{len(rounds)} timed rounds of {args.workload}, seed {args.seed}", file=sys.stderr)
    print(json.dumps({
        "correct": all(c.passed for c in results),
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
