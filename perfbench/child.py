"""One benchmark repetition in a fresh interpreter.

usage: child.py MODE T0 [WORKLOAD SEED SCALE]

MODE is ``setup`` (import and build the parser, nothing else), ``run``
(untraced repetition) or ``trace`` (repetition with the span tracer).
T0 is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is system-wide, so the difference to this
process's own reading is the interpreter start-up plus import time.
That set-up time is corrected for host speed by one calibration right
after it (see workloads.calibrate).
The child runs in the directory it should write its outputs to and
writes its record to ``record.json`` in the parent of that directory.
"""

import sys
import time

import spinreset.cli  # the import is what setup_s measures

spinreset.cli.build_parser()
SETUP_S = time.monotonic() - float(sys.argv[2])

import json  # noqa: E402
import os  # noqa: E402


def main():
    mode = sys.argv[1]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    workloads.calibrate()  # first call pays one-off numpy set-up
    record = {"setup_s": SETUP_S * workloads.REFERENCE_CALIBRATION_S / workloads.calibrate(),
              "raw_setup_s": SETUP_S, "spinreset_file": spinreset.cli.__file__}
    if mode != "setup":
        workload, seed, scale = sys.argv[3], int(sys.argv[4]), sys.argv[5]
        tracer = None
        if mode == "trace":
            import layers

            tracer = layers.make_tracer()
        rep = workloads.run(workload, seed, scale, tracer)
        out = rep["outcome"]
        record.update(
            wall_s=rep["wall_s"], raw_wall_s=rep["raw_wall_s"], attempted=out.attempted, failures=out.failures,
            rows=out.rows, trajectories=out.trajectories, window_stderrs=out.window_stderrs,
            hashes=rep["hashes"], peak_rss_mb=rep["peak_rss_mb"],
        )
        if tracer is not None:
            record["layers"] = layers.layer_metrics(tracer, rep)
            record["leftover_wrappers"] = tracer.leftovers()
    with open(os.path.join("..", "record.json"), "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
