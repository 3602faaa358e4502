"""Every fast path keeps a call-compatible, tested ``*_reference`` twin.

The repo's bit-exactness convention: a vectorized hot path ``foo``
keeps its original scalar implementation as ``foo_reference``, and a
parity test drives both with one argument list.  This walks every
``repro`` module and checks each public ``foo_reference`` function or
method against that convention.
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
SUFFIX = "_reference"


def _module_names():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(("repro",) + parts)


def _parity_pairs():
    """``(qualified name, namespace, fast name, reference name)`` rows."""
    pairs = []
    for module_name in _module_names():
        module = importlib.import_module(module_name)
        namespaces = [(module_name, module)] + [
            (f"{module_name}.{name}", value)
            for name, value in vars(module).items()
            if inspect.isclass(value) and value.__module__ == module_name]
        for prefix, namespace in namespaces:
            for name, value in vars(namespace).items():
                if (name.endswith(SUFFIX) and not name.startswith("_")
                        and inspect.isroutine(value)
                        and inspect.unwrap(value).__module__ == module_name):
                    pairs.append((f"{prefix}.{name}", namespace,
                                  name[:-len(SUFFIX)], name))
    return pairs


PAIRS = _parity_pairs()

#: Every test module's source, except this one (it names no pair).
TEST_SOURCES = [path.read_text(encoding="utf-8")
                for path in sorted(TESTS.glob("test_*.py"))
                if path.name != Path(__file__).name]


def _names(source: str, name: str) -> bool:
    return re.search(rf"\b{name}\b", source) is not None


def test_the_walk_finds_the_parity_pairs():
    assert len(PAIRS) >= 20


@pytest.mark.parametrize("qualname, namespace, fast, reference", PAIRS,
                         ids=[row[0] for row in PAIRS])
def test_reference_twin_is_call_compatible_and_tested(
        qualname, namespace, fast, reference):
    assert fast in vars(namespace), (
        f"{qualname} has no fast twin {fast!r} in the same namespace")
    ref_params = list(inspect.signature(
        getattr(namespace, reference)).parameters.values())
    fast_params = list(inspect.signature(
        getattr(namespace, fast)).parameters.values())
    # One argument list must drive both: the fast twin may only append
    # defaulted parameters (plan-cache or output-buffer injection).
    shared = [(p.name, p.kind, p.default) for p in ref_params]
    assert [(p.name, p.kind, p.default)
            for p in fast_params[:len(ref_params)]] == shared
    assert all(p.default is not p.empty
               for p in fast_params[len(ref_params):])
    assert any(_names(source, fast) and _names(source, reference)
               for source in TEST_SOURCES), (
        f"no test module names both {fast!r} and {reference!r}")
