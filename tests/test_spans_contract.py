"""The names and parameters the benchmark's span tracer binds.

``benches/spans.py`` wraps package functions from outside by name and reads
some of their arguments by parameter name; a rename breaks only a traced
benchmark run.  This loads the tracer from its path and checks every binding.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from admiss import criteria, halfplane, report
from admiss.system_model import AtomicMeasure
from admiss.zen_weight import hardy

SPANS_PATH = Path(__file__).resolve().parent.parent / "benches" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve_with_the_parameters_the_tracer_reads():
    spans = _load_spans()
    for owner_path, attr, _, recorder in spans.SPAN_TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        target = getattr(owner, attr)
        parameters = inspect.signature(target).parameters
        if recorder == "square_atoms":
            assert {"m", "n_range"} <= set(parameters), (owner_path, attr)
        elif recorder == "pairs":
            assert "points" in parameters, (owner_path, attr)
    assert callable(halfplane.quad)
    assert callable(report.ladder_verdict)


def test_tracer_counts_one_ladder_verdict_per_report():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        m = AtomicMeasure(np.array([1 + 0j]), np.array([1.0]))
        criteria.c1_zen_carleson(m, hardy())
        criteria.c2_power_square(m, 1.5, 3.0, symmetric_only=False)
    finally:
        tracer.uninstall()
    assert tracer.counters["report.ladder_verdict.calls"] == 2
    assert {"c1_zen_carleson", "c2_power_square"} <= {span[3] for span in tracer.spans}
