"""One pass of one workload in a fresh interpreter: set-up, then the
measured phase, with every answer checked.  Started by ``run.py``; prints
one JSON object on its last line of standard output.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` counts interpreter start-up and imports too.
Times are reference seconds (see ``speedclock.py``); the plain wall times
are reported next to them.
"""
from __future__ import annotations

import sys
import time

import speedclock


def main(argv: list[str]) -> int:
    t0 = float(argv[argv.index("--t0") + 1])
    clock = speedclock.SpeedClock(t0)

    import argparse
    import json
    import statistics
    from pathlib import Path

    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--mode", choices=("pass", "setup", "warmup"), default="pass")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="where a traced pass writes its spans")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--freeze", action="store_true",
                   help="record the frozen values instead of checking them")
    args = p.parse_args(argv)

    import inputs
    from oracle import Oracle, load_expected
    from tracer import NullTracer, Tracer, instrument, percentile, rss_mb

    data = inputs.generate(args.workload, args.seed)
    oracle = Oracle(None if args.freeze else load_expected())
    tracer = Tracer(f"{args.workload}:{args.seed}:{t0}", clock.now) if args.trace \
        else NullTracer()

    import workloads  # imports the package under test

    if args.mode == "warmup":
        clock.stop()
        print(json.dumps({"warm": True}))
        return 0
    if args.trace:
        instrument(tracer)
    setup, measure = workloads.WORKLOADS[args.workload]
    state = setup(data, oracle, Path(args.work_dir))
    result = {"digest": inputs.digest(data), "setup_s": clock.now(),
              "wall_setup_s": time.monotonic() - t0}
    if args.mode == "pass":
        run_s, wall_s = [], []
        cpu0 = time.process_time()
        # a traced pass times one measured phase, so that its per-layer
        # totals hold set-up plus exactly the work its run_s timed
        for _ in range(1 if args.trace else data.get("repeats", 1)):
            ref, wall = clock.now(), time.monotonic()
            measure(state, data, oracle, tracer)
            run_s.append(clock.now() - ref)
            wall_s.append(time.monotonic() - wall)
        cpu = time.process_time() - cpu0
        result.update(run_s=run_s, wall_run_s=wall_s, rss_mb=rss_mb(),
                      slowdown=statistics.median(clock.probes) / speedclock.K0,
                      attempted=oracle.attempted, failed=oracle.failed,
                      messages=oracle.messages, known=oracle.known_defects)
        if args.freeze:
            result["recorded"] = oracle.recorded
        if args.trace:
            layers = tracer.summary()
            commands = tracer.durations("cli.command")
            if commands:
                layers["cli.cmd_p50_ms"] = 1000 * percentile(commands, 50)
                layers["cli.cmd_p90_ms"] = 1000 * percentile(commands, 90)
            layers["process.cpu_s"] = cpu
            layers["process.wait_ratio"] = 1 - cpu / sum(wall_s)
            result["layers"] = layers
            if args.spans:
                tracer.write(args.spans)
    clock.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
