#!/usr/bin/env python3
"""qdq benchmark: one closed-loop client per workload, exact checks on every op.

    python3 perfbench/run.py --workload battery-gl4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; qdq is imported from ``src/``.
The workload's inputs come from ``--seed`` alone.  After an untimed
warm-up, ops run back to back in this one process, without threads, for
``--seconds`` of wall time; their outputs are checked afterwards, outside
the timed window.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then under the span tracer (``tracer.py``), checks
that both give the same verdict, and prints the per-layer metrics with
the tracing overhead; the spans go to ``.perfbench-out/`` at the end.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run's environment (Python, rational backend, commit, nproc, seed, op
count) and the metrics that are not reported on every workload.  The
exit code is 0 only when every output was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# metric names and units, in the order they are printed
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# setup_s is the median of this many cold starts in fresh interpreters,
# plus the run's own start; one start alone varies by a factor of two.
SETUP_PROBES = 14
# a percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


def use_source():
    """Put the checkout's src/ first on sys.path, or stop."""
    if not (SRC / "qdq" / "__init__.py").is_file():
        raise SystemExit(f"error: no qdq sources at {SRC}")
    sys.path.insert(0, str(SRC))


def load(workload, seed):
    """Import qdq, build the workload's inputs; return (workload, specs, seconds)."""
    t0 = time.perf_counter()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]()
    specs = wl.inputs(seed)
    setup = time.perf_counter() - t0
    import qdq

    if not Path(qdq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: qdq was imported from {qdq.__file__}, not {SRC}")
    return wl, specs, setup


def digest(specs):
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


def probe_setup(workload, seed):
    """Cold starts in fresh interpreters, one after the other."""
    samples, digests = [], set()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        res = json.loads(proc.stdout.splitlines()[-1])
        samples.append(res["setup_s"])
        digests.add(res["digest"])
    return samples, digests


def timed_op(wl, spec):
    """Run one op; return (output, error, seconds)."""
    t0 = time.perf_counter()
    try:
        out, err = wl.run(spec), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


class Checker:
    """Checks op outputs; the first correct output of a spec is its reference.

    Ops are deterministic, so an output whose verdict equals one already
    checked for the same spec is right without running the oracle again.
    """

    def __init__(self, wl):
        self.wl = wl
        self.refs = {}  # id(spec) -> first correct output
        self.verdicts = {}  # id(spec) -> its verdict

    def __call__(self, spec, out, err):
        """Return None when the output is right, else the reason."""
        if err:
            return err
        key = id(spec)
        verdict = self.wl.verdict(out)
        if key in self.verdicts and self.verdicts[key] == verdict:
            return None
        err = self.wl.check(spec, out, self.refs.get(key))
        if not err and key not in self.refs:
            self.refs[key] = out
            self.verdicts[key] = verdict
        return err


def warm_up(wl, specs, check):
    """Run the warm-up specs untimed; their outputs become the references."""
    errors = []
    for spec in wl.warmup(specs):
        out, err, _ = timed_op(wl, spec)
        err = check(spec, out, err)
        if err:
            errors.append(f"warm-up: {err}")
    return errors


def quantile(values, q):
    """The q-quantile when at least TAIL_SAMPLES values lie beyond it."""
    if len(values) * (1 - q) < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_untraced(wl, specs, seconds, check):
    durations, errors = [], []
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        spec = specs[i % len(specs)]
        out, err, dt = timed_op(wl, spec)
        durations.append(dt)
        results.append((spec, out, err))
        i += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    for spec, out, err in results:
        err = check(spec, out, err)
        if err:
            errors.append(err)
    return durations, wall, errors


def run_traced(wl, specs, seconds, check):
    tracer = Tracer()
    plain, traced, errors, out_bytes = [], [], [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        spec = specs[i % len(specs)]
        out, err, dt = timed_op(wl, spec)
        with tracer:
            t0 = time.perf_counter()
            try:
                tout, terr = tracer.op(i, wl.run, spec), None
            except Exception as exc:
                tout, terr = None, f"{type(exc).__name__}: {exc}"
            tdt = time.perf_counter() - t0
        plain.append(dt)
        traced.append(tdt)
        err = check(spec, out, err) or terr
        if not err and wl.verdict(out) != wl.verdict(tout):
            err = "traced run gave another verdict than the untraced run"
        if err:
            errors.append(err)
        else:
            out_bytes += wl.out_bytes(out)
        i += 1
        if time.perf_counter() >= deadline:
            break
    return tracer, plain, traced, out_bytes, errors


def commit_id():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata)"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "qdq").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args):
    import qdq.scalars

    backend = type(qdq.scalars.Q(1))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "rational_backend": f"{backend.__module__}.{backend.__name__}",
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "clients": 1,
        "loop": "closed",
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    use_source()
    wl, specs, own_setup = load(args.workload, args.seed)
    if args.probe_setup:
        print(json.dumps({"setup_s": own_setup, "digest": digest(specs)}))
        return 0

    errors = []
    info = environment(args)
    if not args.trace:
        samples, digests = probe_setup(args.workload, args.seed)
        samples.append(own_setup)
        if digests != {digest(specs)}:
            errors.append("the same seed gave different inputs in another process")
        info["setup_samples"] = len(samples)
    wl.prepare(specs, OUT / f"inputs-{args.workload}-{args.seed}")
    check = Checker(wl)
    errors += warm_up(wl, specs, check)
    warm_ops = len(wl.warmup(specs))

    if args.trace:
        tracer, plain, traced, out_bytes, op_errors = run_traced(
            wl, specs, args.seconds, check
        )
        ops = len(plain)
        metrics = layer_metrics(tracer, plain, traced, out_bytes)
        write_spans(tracer, OUT / f"spans-{args.workload}-{args.seed}.tsv")
    else:
        durations, wall, op_errors = run_untraced(wl, specs, args.seconds, check)
        ops = len(durations)
        info["op_s_p90"] = quantile(durations, 0.9)
        metrics = {
            "setup_s": statistics.median(samples),
            "op_s_p50": statistics.median(durations),
            "ops_per_s": ops / wall,
            "peak_rss_mb": peak_rss_mb(),
        }
    errors += op_errors
    attempted = warm_ops + ops
    info["ops"] = ops
    info["warmup_ops"] = warm_ops
    info["fail_share"] = len(errors) / attempted
    info["errors"] = errors[:5]
    print(json.dumps({"info": info}, sort_keys=True))
    listed = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
