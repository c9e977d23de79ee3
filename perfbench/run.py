"""The tangleforge benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload blocks-grid --seed 1 --seconds 28 --trace 0

Runs from the root of a checkout and imports `tangleforge` from its `src/`.
A run repeats whole rounds of queries, one at a time in a closed loop, for
about ``--seconds`` seconds.  A round constructs a fresh system and family
for every query and runs, for each instance of the workload, the library
calls behind `tangleforge build`, `tangleforge tangles` and `tangleforge
certify`.  Every output is checked apart from the tree machinery (see
checks.py).  Times are rescaled to a reference pace of the host, which a
probe measures every tenth of a second (see pace.py).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced rounds
run alternately with untraced ones.  See README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# The benchmark's other modules import tangleforge, so functions here import
# them only after import_library() has put this checkout's src/ on the path.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("blocks-grid", "cluster-levels", "profile-lattice", "small-sweep")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import tangleforge from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "tangleforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tangleforge package under {src}")
    sys.path.insert(0, str(src))
    import tangleforge
    if Path(tangleforge.__file__).resolve().parent != (src / "tangleforge").resolve():
        raise SystemExit(f"perfbench: imported tangleforge from "
                         f"{tangleforge.__file__}, not from {src}")


def import_seconds(repeats: int = 3) -> float:
    """Median of a few imports of tangleforge in a fresh interpreter, as each
    CLI call makes one, in reference seconds; this process imported it
    already."""
    from pace import REFERENCE_S, probe

    code = ("import time; t = time.perf_counter(); import tangleforge; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(repeats):
        before = probe()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout) * 2 * REFERENCE_S / (before + probe()))
    return statistics.median(samples)


@dataclass
class Round:
    """Reference seconds of each op's set-up and query in one round."""

    setup: list[float] = field(default_factory=list)
    query: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)  # of each query
    layers: dict[str, float] | None = None  # per-layer metrics, traced rounds


class Workload:
    """The instances of one workload, their oracle answers and their queries."""

    def __init__(self, name: str, seed: int):
        import checks
        import workloads

        self.instances = workloads.WORKLOADS[name](seed)
        self.expected = [checks.expect(inst) for inst in self.instances]
        self.ops = []  # (instance index, command, certify threshold)
        for i, exp in enumerate(self.expected):
            self.ops += [(i, "build", None), (i, "tangles", None)]
            self.ops += [(i, "certify", k) for k in exp.certify_ks]
        self.reference: list[tuple | None] = []  # first round's (code, text)
        self.errors: dict[int, list[str]] = {}  # op -> check failures
        self.failed = 0

    def run_round(self, traced: bool = False) -> Round:
        """One query per op, each on a freshly constructed system; a traced
        round records spans and reports per-layer metrics."""
        import queries
        import tangleforge as tf
        from pace import Pacer
        from tracing import NullTracer, Tracer, layer_metrics

        first = not self.reference
        times = []  # clock readings around each op's set-up and query
        gc.collect()
        with Pacer() as pacer:
            tr = Tracer(pacer.clock) if traced else NullTracer()
            for n, (i, cmd, k) in enumerate(self.ops):
                t0 = pacer.clock()
                system, family = tr.call("grounds.construct",
                                         self.instances[i].make)
                t1 = pacer.clock()
                if traced:
                    tr.add("grounds.separations", system.count)
                    tr.call("system.validate", tf.validate, system)
                report = None
                t2 = pacer.clock()
                try:
                    if cmd == "build":
                        query = (queries.traced_build_query if traced
                                 else queries.build_query)
                        report, text = tr.call("query.build", query, tr,
                                               system, family)
                        out = (0, text)
                    elif cmd == "tangles":
                        out = (0, tr.call("query.tangles", queries.tangles_query,
                                          tr, system, family))
                    else:
                        out = tr.call("query.certify", queries.certify_query,
                                      tr, system, family, k)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    out = None
                times.append((t0, t1, t2, pacer.clock()))
                if first:
                    self.reference.append(out)
                    if out is not None:
                        self.errors[n] = self._check(n, report, out)
                self._count(n, out)
        rnd = Round()
        for t0, t1, t2, t3 in times:
            rnd.setup.append((t1 - t0) * pacer.scale(t0, t1))
            rnd.scales.append(pacer.scale(t2, t3))
            rnd.query.append((t3 - t2) * rnd.scales[-1])
        if traced:
            rnd.layers = layer_metrics(tr, statistics.median(rnd.scales))
        return rnd

    def total(self, rounds: list[Round], cmd=None) -> float:
        """Sum over ops (of one command, or all) of each op's median over
        rounds; ``cmd="setup"`` sums set-up instead of query seconds."""
        return sum(statistics.median((r.setup if cmd == "setup" else r.query)[n]
                                     for r in rounds)
                   for n, (_, c, _) in enumerate(self.ops)
                   if cmd in (None, "setup", c))

    def _check(self, n, report, out) -> list[str]:
        import checks

        i, cmd, k = self.ops[n]
        exp = self.expected[i]
        code, text = out
        if cmd == "build":
            return checks.check_build(exp, report, text)
        if cmd == "tangles":
            return checks.check_tangles(exp, text)
        return checks.check_certify(exp, k, code, text)

    def _count(self, n, out):
        if out is None or out != self.reference[n] or self.errors.get(n):
            self.failed += 1

    def check_blocks(self) -> list[str]:
        """networkx k-blocks against the first round's tangle outputs; runs
        after timing because networkx is not part of the measured process."""
        import checks

        errors = []
        for n, (i, cmd, _) in enumerate(self.ops):
            inst = self.instances[i]
            if cmd == "tangles" and inst.graph is not None and self.reference[n]:
                errs = checks.check_blocks(inst, self.expected[i],
                                           self.reference[n][1])
                errors += [f"{inst.name}: {e}" for e in errs]
        return errors

    def report_errors(self):
        for n, errs in self.errors.items():
            i, cmd, k = self.ops[n]
            for e in errs:
                print(f"perfbench: {self.instances[i].name} {cmd}"
                      f"{'' if k is None else f' k={k}'}: {e}", file=sys.stderr)


def measure(work: Workload, seconds: float, traced: bool):
    """Whole rounds while another one is expected to end within ``seconds``,
    and at least one; traced runs alternate untraced and traced rounds.
    Returns the untraced and the traced rounds."""
    plain, layered = [], []
    spent = 0.0
    while True:
        start = time.perf_counter()
        if traced and len(layered) < len(plain):
            layered.append(work.run_round(traced=True))
        else:
            plain.append(work.run_round())
        spent += time.perf_counter() - start
        rounds = len(plain) + len(layered)
        if (layered if traced else plain) and spent * (rounds + 1) / rounds > seconds:
            return plain, layered


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_library()
    import checks

    work = Workload(args.workload, args.seed)
    plain, layered = measure(work, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = work.check_blocks()
    if args.workload == "blocks-grid":
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
            errors += checks.check_cli_certify(BENCH_DIR / "fixtures", Path(tmp))
    work.report_errors()
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": statistics.median(r.layers[name]
                                                     for r in layered),
                          "unit": unit_of(name)}
                   for name in layered[0].layers}
        overhead = work.total(layered) / work.total(plain)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": import_seconds() + work.total(plain, "setup"),
                        "unit": "s"},
            "pipeline_s": {"value": work.total(plain, "build"), "unit": "s"},
            "tangles_s": {"value": work.total(plain, "tangles"), "unit": "s"},
            "certify_s": {"value": work.total(plain, "certify"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    rounds = plain + layered
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(layered)} traced) of {len(work.ops)} queries on "
          f"{len(work.instances)} instances; reference query seconds per "
          f"round {[round(sum(r.query), 3) for r in rounds]}; median pace "
          f"{[round(statistics.median(r.scales), 3) for r in rounds]}",
          file=sys.stderr)
    print(json.dumps({"correct": not errors,
                      "attempted": len(rounds) * len(work.ops),
                      "failed": work.failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_rate"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
