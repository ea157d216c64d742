"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import importlib
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from padicdyn.dynamics import CanonicalMap  # noqa: E402
from tracer import FUNCTIONS, METHODS, MODULES, Tracer  # noqa: E402
from worker import run_op, tail  # noqa: E402


def _fingerprint(ops):
    """What an op list would do, without running it: kinds and closure inputs."""
    out = []
    for op in ops:
        cells = op.run.__closure__ or ()
        out.append((op.kind, tuple(repr(c.cell_contents) for c in cells)))
    return out


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_generators_are_deterministic_per_seed(name):
    build = workloads.BUILDERS[name]
    assert _fingerprint(build(7, 1)) == _fingerprint(build(7, 1))
    assert _fingerprint(build(7, 1)) != _fingerprint(build(8, 1))


@pytest.mark.parametrize("p,kind", [(2, "ergodic"), (2, "x1"), (2, "x2"), (3, "x1"),
                                    (3, "x2"), (5, "x2"), (7, "x1"), (7, "x2")])
def test_generated_spheres_are_invariant(p, kind):
    rng = random.Random(f"spheres:{p}:{kind}")
    for _ in range(40):
        m, sphere = workloads.invariant_sphere(rng, p, kind)
        assert CanonicalMap(m.p, m.a, m.c).sphere_is_invariant(sphere)


def _all_bindings():
    bindings = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for _, func, _ in FUNCTIONS:
            if func in module.__dict__:
                bindings[(name, func)] = module.__dict__[func]
    for module_name, cls_name, attr, _ in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        bindings[(cls_name, attr)] = cls.__dict__[attr]
    return bindings


def test_tracer_restores_every_patched_name():
    before = _all_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in tracer.patched}
        assert ("padicdyn.cli", "main") in patched
        assert ("padicdyn.dynamics", "_fraction_valuation") in patched
        assert ("padicdyn.ergodicity", "_unit_residue") in patched
        assert ("TruncatedPadic", "__radd__") in patched
        during = _all_bindings()
        assert all(during[key] is not before[key] for key in before)
    finally:
        tracer.uninstall()
    after = _all_bindings()
    assert all(after[key] is before[key] for key in before)


def test_traced_spans_nest_and_count():
    op = workloads.oracle_warmup()
    tracer = Tracer()
    tracer.install()
    try:
        _, _, failure = run_op(op)
    finally:
        tracer.uninstall()
    assert failure is None
    layers = tracer.layer_metrics()
    assert layers["ergodicity.oracle.evals_per_ball"] == 2.0
    assert layers["padic.trunc_arith.calls"] == 0
    assert layers["ergodicity.ball_level.calls"] == 5


@pytest.mark.parametrize("name,pick", [
    ("oracle_deep", lambda ops: ops + workloads.oracle_flagships()[1:]),
    ("orbit_long", lambda ops: ops),
    ("request_mix", lambda ops: ops),
])
def test_tiny_run_passes_its_gates(name, pick):
    ops = pick(workloads.BUILDERS[name](3, 1))
    assert ops
    for op in ops + [workloads.WARMUPS[name]()]:
        _, _, failure = run_op(op)
        assert failure is None, (op.kind, failure)


def test_defect_probes_report_the_known_failures():
    for defect, argv in workloads.DEFECT_PROBES:
        assert workloads.run_defect_probe(defect, argv) == "defect", argv


@pytest.mark.parametrize("n,percentile", [(20, 50), (36, 72), (100, 90), (1500, 99)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, percentile):
    q, value = tail(list(range(n)))
    assert q == percentile
    assert sum(1 for x in range(n) if x > value) >= 10
