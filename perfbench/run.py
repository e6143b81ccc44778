"""Benchmark of the wrightbound proof replays.

    python3 perfbench/run.py --workload <staircase|verify-all|curves>
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout that holds ``src/wrightbound``; the
package need not be installed.  Load is one client in a closed loop: the
commands of a round run one after another, each a fresh ``wrightbound``
process, and rounds repeat for about ``--seconds``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones (layers.py) with ``--trace 1``.
README.md says what each workload and metric means.

The inputs are the paper's and carry no randomness; the seed orders the
commands of a round and picks the points the mpmath checks sample.
"""

import argparse
import compileall
import json
import random
import statistics
import sys
import time

import layers
import micro
import rounds
import workloads

OUT = rounds.HERE / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def end_to_end(run, commands, seconds, setup_s):
    """Rounds out of process for about ``seconds``: the run stops at the
    round boundary nearest to it.  Reports medians over the rounds."""
    results = []
    start = time.perf_counter()
    while True:
        result = rounds.process_round(commands, run.fresh_dir())
        run.tally(result["codes"])
        results.append(result)
        typical = statistics.median(r["wall_s"] for r in results)
        if time.perf_counter() - start + typical / 2 >= seconds:
            break
    print("rounds (measured wall s, rescaled wall s): " + json.dumps(
        [[round(r["raw_wall_s"], 4), round(r["wall_s"], 4)]
         for r in results]))
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                          for r in results), "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (rounds.SRC / "wrightbound" / "cli.py").is_file():
        sys.exit(f"no wrightbound sources under {rounds.SRC}")
    # Compile first, so that setup_s never includes byte-compiling.
    if not compileall.compile_dir(rounds.SRC, quiet=1):
        sys.exit("byte-compiling the sources failed")

    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    commands = list(workload.commands)
    rng.shuffle(commands)
    run = rounds.Run(workload,
                     OUT / f"{workload.name}-{args.seed}-{args.trace}")
    if args.trace:
        metrics = layers.traced_run(run, commands)
    else:
        setup_s = rounds.time_setup()
        metrics = end_to_end(run, commands, args.seconds, setup_s)

    # Outside the timed rounds: the quadrature checks, then the per-call
    # costs and the host calibration, which every run measures.
    wb = rounds.import_wrightbound()
    if not run.problems:
        run.problems += workload.deep_check(run.outdir, rng,
                                            wb.separation.m_k)
    costs = {"host.calib_ms": micro.calibration_ms(),
             **micro.interval_costs(wb.interval.Interval),
             **micro.layer_costs(wb)}
    if args.trace:
        costs["verifiers.2.15b.s"] = micro.sliced_2_15b_s(wb)
        metrics.update(layers.cost_metrics(costs))
    else:
        print("per-call costs: " + json.dumps(costs))

    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
