"""The names and arguments bench/tracing.py wraps and reads stay in place.

The benchmark's tracer replaces module attributes of `qgs` by name and
reads counts off the calls' arguments: `run_scan`'s worker count, the
path `emit` wrote and `moment_ladder`'s order.  A rename or a moved
argument would crash only a traced benchmark run; these tests run the
tracer on two small CLI calls instead.
"""

import importlib
import importlib.util
from pathlib import Path

from qgs.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_every_wrapped_call(tmp_path, monkeypatch):
    tracing = load_tracing()
    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after the test
    tracer = tracing.Tracer(tmp_path)
    tracer.install()

    out = tmp_path / "scan.csv"
    assert main(["scan", "--steps", "2", "--workers", "1", "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    argv = ["validate", "--samples", "20000", "--workers", "1", "--report", str(report)]
    assert main(argv) == 0

    spans = tracer.spans
    names = {s["name"] for s in spans}
    assert names == {name for _, _, name, _ in tracing.TARGETS}
    assert [s["workers"] for s in spans if s["name"] == "scan.run_scan"] == [1]
    assert [s["bytes"] for s in spans if s["name"] == "scan.emit"] == [out.stat().st_size]
    orders = [s["order"] for s in spans if s["name"] == "specfun.moment_ladder"]
    n_effs = [s["n_eff"] for s in spans if s["name"] == "fock_stats.joint_pnd"]
    assert orders == n_effs and len(orders) == 2 + 3

    metrics = tracing.per_layer(spans)
    assert metrics["scan.emit.bytes"]["value"] == out.stat().st_size
    assert metrics["specfun.moment_ladder.max_order"]["value"] == max(n_effs)
    assert metrics["mc_oracle.empirical_pnd.samples_per_s"]["value"] > 0
