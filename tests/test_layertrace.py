"""The benchmark's per-layer tracer (benchmarks/layertrace.py) wraps package
functions and methods it looks up by name, so a renamed or deleted name
would end a traced benchmark run in a KeyError. Installing it here fails
the test suite instead."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import layertrace  # noqa: E402


def test_tracer_finds_every_name_it_patches():
    tracer = layertrace.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert not tracer._undo
