"""The benchmark's tracer looks engine names up with getattr; each must exist."""

import importlib
import importlib.util
from pathlib import Path

from jstretch.ideals import IdealHandle

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = _tracer()
    missing = [
        f"{name}.{attr}"
        for name, attr in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"jstretch.{name}"), attr, None))
    ]
    missing += [f"IdealHandle.{m}" for m in tracer.METHODS if not callable(getattr(IdealHandle, m, None))]
    assert missing == []
