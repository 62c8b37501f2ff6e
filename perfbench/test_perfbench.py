"""Self-tests of the benchmark: inputs, checks, tracing and the output line.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_source()

import qdq.frt  # noqa: E402
import qdq.linalg  # noqa: E402
import qdq.rmatrix  # noqa: E402
import qdq.scalars  # noqa: E402
import qdq.twist  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert run.digest(wl.inputs(7)) == run.digest(wl.inputs(7))
    assert run.digest(wl.inputs(7)) != run.digest(wl.inputs(8))


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def _some_ops(name, count):
    wl = workloads.WORKLOADS[name]()
    specs = wl.inputs(3)
    if name == "sweep-cli":
        # cheap specs that still reach frt, twist, rmatrix, io_json and cli
        specs = [s for s in specs if "--n" in s["argv"] and s["argv"][s["argv"].index("--n") + 1] in ("2", "3")]
        specs = [s for s in specs if "--theta" not in s["argv"]]
    return wl, specs[:count]


@pytest.mark.parametrize("name", ["generic-qs", "sweep-cli"])
def test_traced_verdicts_equal_untraced(name):
    wl, specs = _some_ops(name, 8)
    t = tr.Tracer()
    for i, spec in enumerate(specs):
        plain = wl.run(spec)
        with t:
            traced = t.op(i, wl.run, spec)
        assert wl.check(spec, plain, None) is None
        assert wl.verdict(traced) == wl.verdict(plain)


@pytest.mark.parametrize("name", ["generic-qs", "sweep-cli"])
def test_self_times_are_nonnegative_and_sum_to_the_root(name):
    wl, specs = _some_ops(name, 8)
    t = tr.Tracer()
    with t:
        for i, spec in enumerate(specs):
            t.op(i, wl.run, spec)
    root = t.names.index("op")
    for i in range(len(specs)):
        idxs = t.op_spans(i)
        assert len(idxs) > 1
        selfs = t.self_ns(idxs)
        assert all(v >= 0 for v in selfs.values())
        (r,) = [j for j in idxs if t.span_name[j] == root]
        leaf = sum(t.span_leaf_ns[j] + t.span_book_ns[j] for j in idxs)
        assert sum(selfs.values()) + leaf == t.span_end[r] - t.span_start[r]


def test_every_binding_is_wrapped_and_restored():
    kron, leg_embed = qdq.linalg.kron, qdq.linalg.leg_embed
    add, radd = vars(qdq.scalars.RatFunc)["__add__"], vars(qdq.scalars.RatFunc)["__radd__"]
    mul, rmul = vars(qdq.scalars.RatFunc)["__mul__"], vars(qdq.scalars.RatFunc)["__rmul__"]
    assert radd is add and rmul is mul
    with tr.Tracer():
        for mod in (qdq.frt, qdq.rmatrix, qdq.twist):
            assert mod.leg_embed is not leg_embed
        for mod in (qdq.frt, qdq.linalg):
            assert mod.kron is not kron
        ratfunc = vars(qdq.scalars.RatFunc)
        assert ratfunc["__radd__"] not in (add, radd)
        assert ratfunc["__rmul__"] not in (mul, rmul)
    assert qdq.frt.kron is kron and qdq.twist.leg_embed is leg_embed
    assert vars(qdq.scalars.RatFunc)["__radd__"] is add


def test_scalar_calls_are_counted_per_alias():
    f = qdq.scalars.ScalarField(1)
    x = f.from_coeffs([1, 1], [1, 2])
    t = tr.Tracer()
    with t:
        t.op(0, lambda: (2 + x, 3 * x, x - 1, x / x))
    calls = {k: c for (op, k), c in t.leaf_calls.items() if op == 0}
    assert calls["add"] >= 1 and calls["mul"] >= 1
    assert calls["sub"] == 1 and calls["div"] == 1


def test_wrong_outputs_are_rejected():
    gqs, specs = _some_ops("generic-qs", 4)
    for spec in specs:
        out = gqs.run(spec)
        if spec["op"] == "quasideterminant":
            assert gqs.check(spec, out + 1, None)
        elif spec["op"] == "det_sigma":
            assert gqs.check(spec, [v + 1 for v in out], None)
        else:
            out.entries[0][0] = out.entries[0][0] + 1
            assert gqs.check(spec, out, None)
    cli = workloads.SweepCli()
    spec = {"argv": ["std-r", "--n", "2"], "exit": 0}
    code, text = cli.run(spec)
    assert cli.check(spec, (code, text), None) is None
    assert cli.check(spec, (code, text + " "), (code, text))
    assert cli.check(dict(spec, exit=1), (code, text), None)


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run_cli(
        run.ROOT, "--workload", "generic-qs", "--seed", "1", "--seconds", "0.5", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in BENCHMARK[key]]
    for m in BENCHMARK[key]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    info = json.loads(lines[-2])["info"]
    for field in ("python", "rational_backend", "commit", "nproc", "seed", "ops"):
        assert field in info


def test_every_layer_metric_is_listed_in_benchmark_json():
    wl, specs = _some_ops("sweep-cli", 2)
    t = tr.Tracer()
    with t:
        for i, spec in enumerate(specs):
            t.op(i, wl.run, spec)
    values = tr.layer_metrics(t, [1.0, 1.0], [1.1, 1.1], 0)
    assert sorted(values) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "sweep-cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
