"""Wrap pncalc's public functions with spans, from outside the library.

Each wrapped function is replaced in every pncalc module namespace that
holds it: the defining module (so calls inside that module are seen) and
every module that imported it by name (`spectra.eig`, `calculus.decompose`,
`approx.dunford`, ...).  Modules that call through a module attribute
(`cli` calls `spectra.decompose`) see the replacement on that module.
`install` returns a function that puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import os

import numpy as np

from spans import Recorder

MODULES = ("pncalc", "pncalc.linalg", "pncalc.spectra", "pncalc.functions",
           "pncalc.calculus", "pncalc.approx", "pncalc.synth", "pncalc.cli")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Every wrapped call counts `<span>.calls`, and `<span>.failed` when it raises;
# after(rec, args, kwargs, result) hooks record further counts at the boundary

def _op_norm(rec, args, kwargs, result):
    rec.maximum("linalg.op_norm.dim_max", max(np.shape(args[0]), default=0))


def _resolvent_at_nodes(rec, args, kwargs, result):
    nodes = int(np.size(args[1]))
    n = int(np.shape(args[0])[0])
    rec.count("linalg.resolvent_at_nodes.node_solves", nodes)
    # computed from array sizes: the nodes x n x n complex128 solution stack
    rec.maximum("linalg.resolvent_at_nodes.stack_bytes_max", 16 * nodes * n * n)


def _write_cmat(rec, args, kwargs, result):
    rec.count("linalg.cmat.bytes_written", _size(args[0]))


def _decompose(rec, args, kwargs, result):
    rec.count("spectra.decompose.components", len(result.components))


def _verify(rec, args, kwargs, result):
    for measured, bound in result.values():
        if bound > 0:
            rec.maximum("spectra.verify.worst_ratio", measured / bound)


def _write_pndec(rec, args, kwargs, result):
    rec.count("spectra.pndec.bytes_written", _size(args[0]))


def _lift(rec, args, kwargs, result):
    rec.maximum("calculus.lift.tensor_dim_max", result.tensor_dim)


def _ledger(rec, args, kwargs, result):
    rec.count("calculus.ledger_terms", len(result.term_ledger))


def _node_tuples(rec, args, kwargs, result):
    contours = args[2] if len(args) > 2 else kwargs["contours"]
    verify = args[4] if len(args) > 4 else kwargs.get("verify", False)
    tuples = 1
    for c in contours:
        tuples *= c.nodes
    rec.count("calculus.dunford_multivariate.node_tuples",
              tuples * (1 + 2 ** len(contours) if verify else 1))


def _emitted(rec, args, kwargs, result):
    rec.count("cli.artifacts.bytes", _size(result))


# (module, attribute, span name, after hook); a dotted attribute is a method
WRAPPED = (
    ("pncalc.linalg", "eig", "linalg.eig", None),
    ("pncalc.linalg", "op_norm", "linalg.op_norm", _op_norm),
    ("pncalc.linalg", "resolvent_at_nodes", "linalg.resolvent_at_nodes",
     _resolvent_at_nodes),
    ("pncalc.linalg", "resolvent", "linalg.resolvent", None),
    ("pncalc.linalg", "write_cmat", "linalg.cmat.write", _write_cmat),
    ("pncalc.linalg", "read_cmat", "linalg.cmat.read", None),
    ("pncalc.spectra", "cluster_eigenvalues", "spectra.cluster_eigenvalues", None),
    ("pncalc.spectra", "decompose", "spectra.decompose", _decompose),
    ("pncalc.spectra", "riesz_projector", "spectra.riesz_projector", None),
    ("pncalc.spectra", "verify_decomposition", "spectra.verify_decomposition", _verify),
    ("pncalc.spectra", "nilpotency_index", "spectra.nilpotency_index", None),
    ("pncalc.spectra", "write_decomposition", "spectra.pndec.write", _write_pndec),
    ("pncalc.functions", "AnalyticFunction.__call__", "functions.eval", None),
    ("pncalc.functions", "taylor_coefficients", "functions.taylor_coefficients", None),
    ("pncalc.functions", "parse_function", "functions.parse_function", None),
    ("pncalc.calculus", "lift", "calculus.lift", _lift),
    ("pncalc.calculus", "func_multivariate", "calculus.func_multivariate", _ledger),
    ("pncalc.calculus", "write_term_ledger", "calculus.write_term_ledger", None),
    ("pncalc.calculus", "dunford", "calculus.dunford", None),
    ("pncalc.calculus", "dunford_multivariate", "calculus.dunford_multivariate",
     _node_tuples),
    ("pncalc.calculus", "power_series_apply", "calculus.power_series_apply", None),
    ("pncalc.approx", "build_model", "approx.build_model", None),
    ("pncalc.approx", "lowest_cluster_contour", "approx.lowest_cluster_contour", None),
    ("pncalc.approx", "level_experiment", "approx.level_experiment", None),
    ("pncalc.approx", "multivariate_experiment", "approx.multivariate_experiment", None),
    ("pncalc.approx", "error_constant", "approx.error_constant", None),
    ("pncalc.approx", "error_constant_multi", "approx.error_constant", None),
    ("pncalc.approx", "resolvent_error", "approx.resolvent_error", None),
    ("pncalc.approx", "regularization_sweep", "approx.regularization_sweep", None),
    ("pncalc.approx", "write_convergence_csv", "approx.write_csv", None),
    ("pncalc.approx", "write_regularization_csv", "approx.write_csv", None),
    ("pncalc.cli", "load_config", "cli.load_config", None),
    ("pncalc.cli", "ArtifactWriter.emit", "cli.artifacts", _emitted),
    ("pncalc.cli", "ArtifactWriter.finalize", "cli.artifacts", _emitted),
)

# counted, not timed: partial() runs inside every derivative-tree step, and
# the per-layer table needs only how often
COUNTED = (("pncalc.functions", "AnalyticFunction.partial", "functions.partial.calls"),)


def _timed(rec: Recorder, fn, name: str, after):
    calls = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(calls)
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            rec.count(name + ".failed")
            raise
        finally:
            rec.exit(idx)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapper


def _counted(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder):
    """Replace every WRAPPED and COUNTED name; returns the undo function."""
    modules = [importlib.import_module(m) for m in MODULES]
    undo: list[tuple[object, str, object]] = []

    def replace(module_name, attr, make):
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    for module_name, attr, name, after in WRAPPED:
        replace(module_name, attr, lambda fn: _timed(rec, fn, name, after))
    for module_name, attr, name in COUNTED:
        replace(module_name, attr, lambda fn: _counted(rec, fn, name))

    def uninstall():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return uninstall
