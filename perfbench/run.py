"""The repo benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload ingest-rsrch --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a separate traced run.  The last line of standard output is
the result object; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    PROBE_NOMINAL_S, CheckFailed, HostProbe, Ops, emit_result, fmt_table,
    host_fingerprint, log, require_source,
)
from config import WORKLOADS  # noqa: E402


def prepare_inputs(workload: str, seed: int) -> None:
    """Generate the seeded inputs in a child process (untimed)."""
    subprocess.run([sys.executable, str(Path(__file__).with_name("prep.py")),
                    workload, str(seed)], check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    ops = Ops()
    probe = HostProbe()
    try:
        with ops.op():
            prepare_inputs(args.workload, args.seed)
        if args.trace:
            import traced as workload_module
        elif args.workload == "serve-hm":
            import serve as workload_module
        else:
            import inproc as workload_module
        metrics, figures = workload_module.run(
            args.workload, args.seed, args.seconds, probe, ops)
    except Exception as failure:  # every failure still ends in a result
        if isinstance(failure, CheckFailed):
            log(f"CHECK FAILED: {failure}")
        else:
            traceback.print_exc(file=sys.stdout)
        log(f"operations: {ops.attempted} attempted, {ops.failed} failed")
        emit_result(False, ops.attempted, ops.failed, {})
        return 1
    log(f"host: {host_fingerprint()}")
    log(f"host probe: median {probe.seconds * 1e3:.4f} ms over "
        f"{len(probe.samples)} samples (nominal {PROBE_NOMINAL_S * 1e3:.1f} "
        f"ms); every ref.* figure is rescaled by the probes around it")
    log(fmt_table([("figure", "value")] + sorted(
        (key, value) for key, value in figures.items())))
    log(fmt_table([("metric", "rescaled", "unit", "raw")] + [
        (name, f"{value:.6g}", unit, f"{raw:.6g}")
        for name, (value, unit, raw) in metrics.items()]))
    if args.workload != "prefetch-wdev" and not args.trace:
        log("demand_misses, device_reads: this workload has no cache; both "
            "are a fixed 1.0, not measured")
    log(f"operations: {ops.attempted} attempted, {ops.failed} failed")
    emit_result(True, ops.attempted, ops.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
