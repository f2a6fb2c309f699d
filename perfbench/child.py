"""Child process of the benchmark: a cold set-up, or one CLI op.

    child.py setup KIND WORKDIR
        Imports srqkd, makes the first warm-up call of a workload kind
        (``protocol`` or ``oracle``) and prints, as JSON, the seconds both
        took and the mean reference-task time (see calibrate.py).
    child.py op TRACE FILE -- ARGV...
        Runs ``srqkd.cli.main(ARGV)`` and exits with its code.  With TRACE 0
        the reference-task samples taken during the op (see calibrate.py)
        are saved to FILE as JSON.  With TRACE 1 the srqkd layers are
        wrapped in spans, which are saved to FILE; the seconds spent saving
        them go to FILE + ".dump_s".
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup(kind: str, work_dir: str) -> None:
    cal = Calibrator()
    cal.sample()
    before = cal.total
    start = time.perf_counter()
    with cal:
        import srqkd
        import srqkd.cli

        if kind == "oracle":
            srqkd.s_with_eve(srqkd.IDENTITY_STRATEGY, 0.5, math.sqrt(3.0) / 2.0)
            arm = srqkd.StateVector(1, 2, {(0,): 0.6, (1,): 0.8})
            srqkd.measure_device(arm, 0, srqkd.ProbeState(0.8, 0.6), srqkd.make_generator(0, 1))
        else:
            code = srqkd.cli.main(["run-protocol", "--rounds", "200", "--out", work_dir])
            if code not in (0, 2, 3):
                sys.exit(f"warm-up run-protocol exited {code}")
    seconds = time.perf_counter() - start - (cal.total - before)
    cal.sample()
    print(json.dumps({"seconds": seconds, "ref_s": cal.mean()}))


def op(trace: bool, path: str, argv) -> int:
    import srqkd.cli

    if not trace:
        cal = Calibrator()
        with cal:
            code = srqkd.cli.main(argv)
        Path(path).write_text(json.dumps({"total": cal.total, "slices": cal.slices}))
        return code
    import numpy as np
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = srqkd.cli.main(argv)
    finally:
        tracer.active = False
    start = time.perf_counter()
    np.savez(path, **tracer.arrays())
    Path(path + ".dump_s").write_text(repr(time.perf_counter() - start))
    return code


def main() -> int:
    sys.path.insert(0, str(SRC))
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3])
        return 0
    if mode == "op" and sys.argv[4] == "--":
        return op(sys.argv[2] == "1", sys.argv[3], sys.argv[5:])
    sys.exit(f"usage: {__doc__}")


if __name__ == "__main__":
    sys.exit(main())
