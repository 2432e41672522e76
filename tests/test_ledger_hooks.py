"""The benchmark's per-layer hooks must name callables that still exist.

``ledgerbench/tracer.py`` wraps the ``repro`` callables listed in its
``HOOKS`` and ``COUNTERS``.  A hook whose target was renamed or deleted is
reported absent and its layer reads 0 s, which looks like a speedup; this
test catches the rename at tier-1 instead of at the next benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "ledgerbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ledgerbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # Leave no bytecode cache inside the benchmark's directory.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


TRACER = load_tracer()
TARGETS = [(module, qualname) for _, _, module, qualname, _ in TRACER.HOOKS] + [
    (module, qualname) for _, module, qualname in TRACER.COUNTERS
]


def test_hook_lists_are_not_empty():
    assert TRACER.HOOKS and TRACER.COUNTERS


@pytest.mark.parametrize(
    "module_name, qualname", TARGETS, ids=[f"{m}.{q}" for m, q in TARGETS]
)
def test_hook_target_resolves_to_a_callable(module_name, qualname):
    # The tracer's own resolution rule: a class attribute must be defined
    # on that class itself, since that is where the wrapper is installed.
    resolved = TRACER.Tracer()._resolve(module_name, qualname)
    assert resolved is not None, f"ledger hook target {module_name}.{qualname} is gone"
    owner, name = resolved
    target = getattr(owner, name)
    assert callable(target)
