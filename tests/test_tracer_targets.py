"""Every callable the benchmark tracer wraps exists under the name it wraps.

``perfbench/tracer.py``'s ``Tracer.install()`` looks each target up in its
owner's ``__dict__`` and fails on a missing one, so a renamed or deleted target
would otherwise show only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module_name, path", [t[1:] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} is not defined where the tracer wraps it"
