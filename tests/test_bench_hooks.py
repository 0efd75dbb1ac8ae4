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


def test_hooks_run_over_real_jobs(monkeypatch, tmp_path, capsys):
    # a traced run installs every hook, runs jobs through cli.main and puts
    # every original back; a hook that misreads its call's arguments would
    # crash the job here
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    instrument = importlib.import_module("instrument")
    spans = importlib.import_module("spans")
    from pncalc import cli, linalg

    modules = [importlib.import_module(m) for m in instrument.MODULES]
    before = [dict(vars(m)) for m in modules]
    methods = {}
    for module_name, attr, *_ in instrument.WRAPPED + instrument.COUNTED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            methods[cls, meth] = vars(cls)[meth]

    linalg.write_cmat(tmp_path / "x.cmat", [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    (tmp_path / "dec.ini").write_text(f"[input]\nmatrix = {tmp_path / 'x.cmat'}\n")
    (tmp_path / "oc.ini").write_text(
        "[function]\nspec = exp(z1+z2)\n\n[random]\ncount = 1\ndim = 3\nseed = 5\n")
    rec = spans.Recorder()
    uninstall = instrument.install(rec)
    try:
        codes = [cli.main([command, "--config", str(tmp_path / cfg),
                           "--out", str(tmp_path / command)])
                 for command, cfg in (("decompose", "dec.ini"), ("oracle-check", "oc.ini"))]
    finally:
        uninstall()
    assert codes == [0, 0]
    assert rec.counts["spectra.decompose.calls"] >= 1
    assert rec.counts["linalg.resolvent_at_nodes.calls"] >= 1
    assert rec._stack == [] and all(s.end >= s.start for s in rec.spans)
    for module, saved in zip(modules, before):
        assert [k for k, v in saved.items() if callable(v) and vars(module)[k] is not v] == []
    assert [m for (cls, m), fn in methods.items() if vars(cls)[m] is not fn] == []
