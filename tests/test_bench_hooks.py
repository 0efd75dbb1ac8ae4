"""Names reached from outside the package must exist.

`perfbench/instrument.py` replaces every name in WRAPPED and COUNTED when a
run is traced (`perfbench/run.py --trace 1`).  A renamed or deleted function
would crash that run, so this test resolves each name the way `install`
does: a dotted attribute is a method, looked up in the class `__dict__`.
Every name in `pncalc.__all__` must resolve too, so that a deleted function
leaves no dangling export.
"""
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return cls is not None and meth in vars(cls)
    return hasattr(owner, attr)


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    instrument = importlib.import_module("instrument")
    names = ([(m, a) for m, a, _, _ in instrument.WRAPPED]
             + [(m, a) for m, a, _ in instrument.COUNTED])
    assert names
    assert [n for n in names if not _resolves(*n)] == []


def test_every_export_resolves():
    pncalc = importlib.import_module("pncalc")
    assert len(set(pncalc.__all__)) == len(pncalc.__all__)
    assert [name for name in pncalc.__all__ if not hasattr(pncalc, name)] == []
