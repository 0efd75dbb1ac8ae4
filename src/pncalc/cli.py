"""Batch front door: config-driven runs emitting cmat/CSV artifacts.

Every run reads one INI-style config (strict: unknown sections or keys are
rejected), writes its artifacts atomically into --out, and finishes with a
manifest.csv listing each emitted file and its sha256.  No timestamps or
environment data are written, so identical config + seed reproduces the
manifest byte for byte.

Exit codes: 0 success, 2 config/parse error, 3 numeric precondition
violation, 4 tolerance failure.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import re
import shutil
import sys

import numpy as np

from . import approx, calculus, functions, linalg, spectra, synth
from .errors import ConfigError, PreconditionError, ToleranceError

_REQUIRED = object()

# schema entry: (type, default); _REQUIRED default means the key must appear.
SCHEMAS: dict[str, dict[str, dict[str, tuple]]] = {
    "decompose": {
        "input": {"matrix": ("path", _REQUIRED)},
        "params": {
            "cluster_tol": ("float", -1.0),
            "tol_dec": ("float", 1e-8),
            "tol_nil": ("float", 1e-8),
        },
    },
    "funcalc": {
        "input": {"matrix": ("path", _REQUIRED)},
        "function": {"spec": ("str", _REQUIRED)},
        "contour": {
            "center": ("str", "auto"),
            "radius": ("float", -1.0),
            "nodes": ("int", 128),
        },
        "params": {
            "cluster_tol": ("float", -1.0),
            "tol_dec": ("float", 1e-8),
            "tol_nil": ("float", 1e-8),
            "tol": ("float", 1e-8),
        },
    },
    "lift-calc": {
        "input": {
            "matrix_1": ("path", _REQUIRED),
            "matrix_2": ("path", ""),
            "matrix_3": ("path", ""),
        },
        "function": {"spec": ("str", _REQUIRED)},
        "params": {
            "cap": ("int", linalg.KRON_CAP),
            "cluster_tol": ("float", -1.0),
            "tol_dec": ("float", 1e-8),
            "tol_nil": ("float", 1e-8),
        },
    },
    "oracle-check": {
        "input": {
            "matrix_1": ("path", ""),
            "matrix_2": ("path", ""),
            "matrix_3": ("path", ""),
        },
        "function": {"spec": ("str", _REQUIRED)},
        "random": {
            "count": ("int", 20),
            "dim": ("int", 4),
            "max_index": ("int", 3),
            "cond": ("float", 6.0),
            "seed": ("int", 0),
        },
        "params": {
            "nodes": ("int", 64),
            "tol": ("float", 1e-8),
            "cluster_tol": ("float", -1.0),
        },
    },
    "converge": {
        "model": {
            "kind": ("choice:" + "|".join(approx.MODEL_KINDS), _REQUIRED),
            "ref_dim": ("int", 64),
            "guard": ("int", -1),
            "path": ("path", ""),
        },
        "function": {"spec": ("str", _REQUIRED)},
        "experiment": {
            "z0": ("complex", complex(-1.0)),
            "cluster_size": ("int", 3),
            "n_list": ("ints", _REQUIRED),
            "probes": ("int", 4),
            "nodes": ("int", 64),
            "stability": ("bool", True),
        },
    },
    "converge-multi": {
        "model_1": {
            "kind": ("choice:" + "|".join(approx.MODEL_KINDS), _REQUIRED),
            "ref_dim": ("int", 32),
            "guard": ("int", -1),
            "path": ("path", ""),
        },
        "model_2": {
            "kind": ("choice:" + "|".join(approx.MODEL_KINDS), _REQUIRED),
            "ref_dim": ("int", 32),
            "guard": ("int", -1),
            "path": ("path", ""),
        },
        "function": {"spec": ("str", _REQUIRED)},
        "experiment": {
            "z0_1": ("complex", complex(-1.0)),
            "z0_2": ("complex", complex(-1.0)),
            "cluster_size_1": ("int", 3),
            "cluster_size_2": ("int", 3),
            "n_list": ("ints", _REQUIRED),
            "probes": ("int", 4),
            "nodes": ("int", 64),
        },
    },
    "regularize": {
        "model": {
            "kind": ("choice:" + "|".join(approx.MODEL_KINDS), _REQUIRED),
            "ref_dim": ("int", 64),
            "guard": ("int", -1),
            "path": ("path", ""),
        },
        "perturbation": {
            "kind": ("choice:decaying_diag|file", "decaying_diag"),
            "path": ("path", ""),
            "scale": ("float", 1.0),
        },
        "experiment": {
            "z0": ("complex", complex(-1.0)),
            "eps_list": ("floats", [1e-1, 1e-2, 1e-3, 1e-4]),
            "probes": ("int", 4),
        },
    },
}


def _parse_value(kind: str, raw: str, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "complex":
            return complex(raw.replace(" ", ""))
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "ints":
            return [int(t) for t in raw.split(",") if t.strip()]
        if kind == "floats":
            return [float(t) for t in raw.split(",") if t.strip()]
        if kind in ("str", "path"):
            return raw.strip()
        if kind.startswith("choice:"):
            allowed = kind.split(":", 1)[1].split("|")
            val = raw.strip()
            if val not in allowed:
                raise ValueError(f"{val!r} not one of {allowed}")
            return val
    except ValueError as exc:
        raise ConfigError(f"cli: bad value for {where}: {exc}") from None
    raise ConfigError(f"cli: unknown schema type {kind!r}")


def load_config(path: str, schema: dict) -> dict:
    """Parse + validate an INI config against a command schema.

    Unknown sections/keys exit 2 (strict).  Environment variables named
    PNCALC_<SECTION>__<KEY> override file values for known keys.
    """
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cli: config file not readable: {path}")
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"cli: unknown config section [{section}]")
        for key in parser[section]:
            if key not in schema[section]:
                raise ConfigError(f"cli: unknown key {key!r} in section [{section}]")
    out: dict[str, dict] = {}
    for section, keys in schema.items():
        out[section] = {}
        for key, (kind, default) in keys.items():
            raw = None
            if parser.has_option(section, key):
                raw = parser.get(section, key)
            env = os.environ.get(f"PNCALC_{section.upper()}__{key.upper()}")
            if env is not None:
                raw = env
            if raw is None:
                if default is _REQUIRED:
                    raise ConfigError(f"cli: missing required key {key!r} in [{section}]")
                out[section][key] = default
            else:
                out[section][key] = _parse_value(kind, raw, f"[{section}] {key}")
    return out


class ArtifactWriter:
    """Atomic artifact emission plus the closing checksum manifest.

    Each artifact is hashed while its writer streams it, so `finalize` reads
    nothing back from disk.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.digests: list[tuple[str, str]] = []
        # (64-bit words, path, digest) of each cmat written
        self._cmats: list[tuple[np.ndarray, str, str]] = []

    def emit(self, name: str, write_fn) -> str:
        """write_fn(path, sha) writes the artifact to path and feeds each of
        its bytes to the sha256 object sha, or returns their hex digest."""
        final = os.path.join(self.out_dir, name)
        tmp = final + ".tmp"
        sha = hashlib.sha256()
        digest = write_fn(tmp, sha) or sha.hexdigest()
        os.replace(tmp, final)
        self.digests.append((name, digest))
        return final

    def emit_cmat(self, name: str, m) -> str:
        """Emit the matrix m as a cmat.  A matrix with the shape and bytes of
        one this writer emitted before is written as a byte copy of that
        file, with its digest, so it is formatted once."""
        m = np.ascontiguousarray(linalg.as_matrix(m))
        words = m.view(np.uint64)
        for seen, path, digest in self._cmats:
            if seen.shape == words.shape and np.array_equal(seen, words):
                return self.emit(name, lambda p, sha: shutil.copyfile(path, p) and digest)
        final = self.emit(name, lambda p, sha: linalg.write_cmat(p, m, sha))
        self._cmats.append((words, final, self.digests[-1][1]))
        return final

    def finalize(self) -> str:
        final = os.path.join(self.out_dir, "manifest.csv")
        tmp = final + ".tmp"
        linalg._write_csv(tmp, [("filename", "sha256"), *sorted(self.digests)])
        os.replace(tmp, final)
        return final


def _slug(text: str) -> str:
    out = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return out or "f"


def _maybe(value: float) -> float | None:
    return None if value < 0 else value


def _read_matrix(path: str) -> np.ndarray:
    if not path:
        raise ConfigError("cli: missing input matrix path")
    try:
        return linalg.read_cmat(path)
    except OSError as exc:
        raise ConfigError(f"cli: cannot read matrix file {path}: {exc}") from None


def _enclosing_contour(factored: linalg.NodeResolvents, nodes: int) -> spectra.Contour:
    """A circle around the spectrum of a matrix's factorization."""
    lams = factored.eigenvalues
    center = complex(lams.mean())
    rmax = float(np.max(np.abs(lams - center))) if lams.size else 0.0
    return spectra.Contour(center=center, radius=1.5 * rmax + 0.5, nodes=nodes)


def _build_model(section: dict) -> approx.OperatorModel:
    guard = section["guard"] if section["guard"] >= 0 else None
    path = section["path"] or None
    return approx.build_model(section["kind"], section["ref_dim"], guard=guard,
                              path=path)


# ---------------------------------------------------------------- commands

def cmd_decompose(cfg: dict, out_dir: str, seed: int | None) -> int:
    x = _read_matrix(cfg["input"]["matrix"])
    dec = spectra.decompose(
        x,
        cluster_tol=_maybe(cfg["params"]["cluster_tol"]),
        tol_dec=cfg["params"]["tol_dec"],
        tol_nil=cfg["params"]["tol_nil"],
    )
    writer = ArtifactWriter(out_dir)
    writer.emit("decomposition.txt", lambda p, sha: spectra.write_decomposition(p, dec, sha))
    rows = [["invariant", "measured", "bound", "ok"]] + [
        [name, repr(measured), repr(bound), str(measured <= bound).lower()]
        for name, (measured, bound) in sorted(dec.report.items())]
    writer.emit("residuals.csv", lambda p, sha: linalg._write_csv(p, rows, sha))
    writer.finalize()
    lams = ", ".join(repr(c.eigenvalue) for c in dec.components)
    print(f"decompose: {len(dec.components)} component(s); eigenvalues {lams}")
    return 0


def cmd_funcalc(cfg: dict, out_dir: str, seed: int | None) -> int:
    x = _read_matrix(cfg["input"]["matrix"])
    f = functions.parse_function(cfg["function"]["spec"])
    if f.arity != 1:
        raise ConfigError("cli: funcalc needs an arity-1 function")
    # the one factorization of x: the decomposition and the quadrature read it
    factored = linalg.resolvent_at_nodes(x, ())
    dec = spectra.decompose(
        x,
        cluster_tol=_maybe(cfg["params"]["cluster_tol"]),
        tol_dec=cfg["params"]["tol_dec"],
        tol_nil=cfg["params"]["tol_nil"],
        factored=factored,
    )
    spectral = calculus.func_univariate(f, dec)
    nodes = cfg["contour"]["nodes"]
    if cfg["contour"]["center"] == "auto" or cfg["contour"]["radius"] < 0:
        contour = _enclosing_contour(factored, nodes)
    else:
        center = _parse_value("complex", cfg["contour"]["center"], "[contour] center")
        contour = spectra.Contour(center=center, radius=cfg["contour"]["radius"],
                                  nodes=nodes)
    quadrature = calculus.dunford(f, factored, contour)
    diff = linalg.op_norm(spectral.value - quadrature)
    threshold = cfg["params"]["tol"] * (1.0 + linalg.op_norm(spectral.value))
    ok = diff <= threshold
    writer = ArtifactWriter(out_dir)
    writer.emit_cmat("value_spectral.cmat", spectral.value)
    writer.emit_cmat("value_contour.cmat", quadrature)
    rows = [["method_a", "method_b", "difference_norm", "threshold", "ok"],
            ["spectral", "contour", repr(diff), repr(threshold), str(ok).lower()]]
    writer.emit("crosscheck.csv", lambda p, sha: linalg._write_csv(p, rows, sha))
    writer.finalize()
    print(f"funcalc: |spectral - contour| = {diff:.3e} (threshold {threshold:.3e})")
    if not ok:
        raise ToleranceError(
            f"cli: spectral/contour cross-check failed: {diff:.3e} > {threshold:.3e}")
    return 0


def cmd_lift_calc(cfg: dict, out_dir: str, seed: int | None) -> int:
    paths = [cfg["input"][k] for k in ("matrix_1", "matrix_2", "matrix_3")
             if cfg["input"][k]]
    factors = [_read_matrix(p) for p in paths]
    f = functions.parse_function(cfg["function"]["spec"])
    if f.arity != len(factors):
        raise ConfigError(
            f"cli: function arity {f.arity} != {len(factors)} input matrices")
    system = calculus.lift(
        factors,
        cap=cfg["params"]["cap"],
        cluster_tol=_maybe(cfg["params"]["cluster_tol"]),
        tol_dec=cfg["params"]["tol_dec"],
        tol_nil=cfg["params"]["tol_nil"],
    )
    result = calculus.func_multivariate(f, system)
    writer = ArtifactWriter(out_dir)
    for name, m in (("value", result.value), ("s0", result.s0),
                    ("s_mixed", result.s_mixed), ("s_full", result.s_full)):
        writer.emit_cmat(f"{name}.cmat", m)
    writer.emit("term_ledger.csv",
                lambda p, sha: calculus.write_term_ledger(p, result, sha))
    writer.finalize()
    print(f"lift-calc: tensor dim {system.tensor_dim}, "
          f"{len(result.term_ledger)} ledger terms, "
          f"|value|_F = {np.linalg.norm(result.value):.6e}")
    return 0


def _oracle_case(f, factors: list[np.ndarray], nodes: int, tol: float,
                 cluster_tol: float | None):
    system = calculus.lift(factors, cluster_tol=cluster_tol)
    if cluster_tol is None:
        # random Jordan structures scatter eigenvalues by (eps*cond)^(1/nu),
        # far beyond the 1e-6 default; widen relative to the largest factor,
        # whose norm its factorization's certificate took
        system.cluster_tol = 1e-3 * max(1.0, max(fac.scale for fac in system.factorizations))
    spectral = calculus.func_multivariate(f, system).value
    contours = [_enclosing_contour(fac, nodes) for fac in system.factorizations]
    quad = calculus.dunford_multivariate(f, system, contours)
    series = calculus.power_series_apply(f, system)
    d_sd = linalg.op_norm(spectral - quad)
    d_ss = linalg.op_norm(spectral - series)
    d_ds = linalg.op_norm(quad - series)
    norm = linalg.op_norm(spectral)
    threshold = tol * (1.0 + norm)
    ok = max(d_sd, d_ss, d_ds) <= threshold
    return norm, d_sd, d_ss, d_ds, threshold, ok


def cmd_oracle_check(cfg: dict, out_dir: str, seed: int | None) -> int:
    f = functions.parse_function(cfg["function"]["spec"])
    nodes = cfg["params"]["nodes"]
    tol = cfg["params"]["tol"]
    paths = [cfg["input"][k] for k in ("matrix_1", "matrix_2", "matrix_3")
             if cfg["input"][k]]
    cases: list[tuple[str, list[np.ndarray]]] = []
    if paths:
        if len(paths) != f.arity:
            raise ConfigError(
                f"cli: function arity {f.arity} != {len(paths)} input matrices")
        cases.append(("input", [_read_matrix(p) for p in paths]))
    else:
        rng_seed = seed if seed is not None else cfg["random"]["seed"]
        rng = np.random.default_rng(rng_seed)
        for i in range(cfg["random"]["count"]):
            factors = []
            for _ in range(f.arity):
                dim = int(rng.integers(2, cfg["random"]["dim"] + 1))
                factors.append(synth.random_factor(rng, dim,
                                                   cfg["random"]["max_index"],
                                                   cfg["random"]["cond"]))
            cases.append((f"random_{i}", factors))
    rows = [["case", "dims", "value_norm", "diff_spectral_contour",
             "diff_spectral_series", "diff_contour_series", "threshold", "ok"]]
    worst = 0.0
    all_ok = True
    cluster_tol = _maybe(cfg["params"]["cluster_tol"])
    for name, factors in cases:
        norm, d_sd, d_ss, d_ds, threshold, ok = _oracle_case(
            f, factors, nodes, tol, cluster_tol)
        dims = "x".join(str(x.shape[0]) for x in factors)
        rows.append([name, dims, *map(repr, (norm, d_sd, d_ss, d_ds, threshold)),
                     str(ok).lower()])
        worst = max(worst, d_sd, d_ss, d_ds)
        all_ok = all_ok and ok
    writer = ArtifactWriter(out_dir)
    writer.emit("oracle_report.csv", lambda p, sha: linalg._write_csv(p, rows, sha))
    writer.finalize()
    print(f"oracle-check: {len(cases)} case(s), max discrepancy {worst:.3e}")
    if not all_ok:
        raise ToleranceError("cli: oracle routes disagree beyond tolerance")
    return 0


def cmd_converge(cfg: dict, out_dir: str, seed: int | None) -> int:
    model = _build_model(cfg["model"])
    f = functions.parse_function(cfg["function"]["spec"])
    if f.arity != 1:
        raise ConfigError("cli: converge needs an arity-1 function")
    exp = cfg["experiment"]
    contour = approx.lowest_cluster_contour(model, exp["cluster_size"],
                                            nodes=exp["nodes"])
    probes = approx.default_probes(model.ref_dim, exp["probes"])
    report = approx.level_experiment(model, f, exp["z0"], contour, exp["n_list"],
                                     probes=probes,
                                     stability_check=exp["stability"])
    name = f"{cfg['model']['kind']}_{_slug(cfg['function']['spec'])}_level.csv"
    writer = ArtifactWriter(out_dir)
    writer.emit(name, lambda p, sha: approx.write_convergence_csv(p, report, sha))
    writer.finalize()
    print(f"converge: {len(report.rows)} truncation(s), level1 pass "
          f"{str(report.level1_pass).lower()}, level2 pass "
          f"{str(report.level2_pass).lower()}, "
          f"stability {repr(report.reference_stability)}")
    return 0


def cmd_converge_multi(cfg: dict, out_dir: str, seed: int | None) -> int:
    models = [_build_model(cfg["model_1"]), _build_model(cfg["model_2"])]
    f = functions.parse_function(cfg["function"]["spec"])
    if f.arity != 2:
        raise ConfigError("cli: converge-multi needs an arity-2 function")
    exp = cfg["experiment"]
    contours = [
        approx.lowest_cluster_contour(models[0], exp["cluster_size_1"],
                                      nodes=exp["nodes"]),
        approx.lowest_cluster_contour(models[1], exp["cluster_size_2"],
                                      nodes=exp["nodes"]),
    ]
    probes = approx.default_probes(models[0].ref_dim * models[1].ref_dim,
                                   exp["probes"])
    report = approx.multivariate_experiment(models, f, [exp["z0_1"], exp["z0_2"]],
                                            contours, exp["n_list"], probes=probes)
    name = (f"{cfg['model_1']['kind']}+{cfg['model_2']['kind']}_"
            f"{_slug(cfg['function']['spec'])}_multi.csv")
    writer = ArtifactWriter(out_dir)
    writer.emit(name, lambda p, sha: approx.write_convergence_csv(p, report, sha))
    writer.finalize()
    print(f"converge-multi: {len(report.rows)} pair(s), level1 pass "
          f"{str(report.level1_pass).lower()}, level2 pass "
          f"{str(report.level2_pass).lower()}")
    return 0


def cmd_regularize(cfg: dict, out_dir: str, seed: int | None) -> int:
    model = _build_model(cfg["model"])
    x = model.matrix_ref
    pert = cfg["perturbation"]
    if pert["kind"] == "decaying_diag":
        k_mat = np.diag(pert["scale"] / np.arange(1.0, x.shape[0] + 1.0)).astype(complex)
    else:
        k_mat = pert["scale"] * _read_matrix(pert["path"])
        if k_mat.shape != x.shape:
            raise ConfigError("cli: perturbation matrix shape mismatch")
    exp = cfg["experiment"]
    probes = approx.default_probes(x.shape[0], exp["probes"])
    report = approx.regularization_sweep(x, k_mat, exp["eps_list"], exp["z0"],
                                         probes=probes)
    name = f"{cfg['model']['kind']}_regularize.csv"
    writer = ArtifactWriter(out_dir)
    writer.emit(name, lambda p, sha: approx.write_regularization_csv(p, report, sha))
    writer.finalize()
    print(f"regularize: {len(report.rows)} epsilon value(s), strictly decreasing "
          f"{str(report.strictly_decreasing).lower()}, bound pass "
          f"{str(report.bound_pass).lower()}")
    if not (report.strictly_decreasing and report.bound_pass):
        raise ToleranceError(
            "cli: regularization sweep violated monotone decrease or probe bound")
    return 0


HANDLERS = {
    "decompose": cmd_decompose,
    "funcalc": cmd_funcalc,
    "lift-calc": cmd_lift_calc,
    "oracle-check": cmd_oracle_check,
    "converge": cmd_converge,
    "converge-multi": cmd_converge_multi,
    "regularize": cmd_regularize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pncalc",
        description="Projector-nilpotent operator calculus batch runner.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in HANDLERS:
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", required=True, help="artifact output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed for randomized suites")
    return parser


# built once: parsing leaves the parser unchanged
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("error [cli]: seed must be nonnegative", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, SCHEMAS[args.command])
        return HANDLERS[args.command](cfg, args.out, args.seed)
    except (ConfigError, configparser.Error) as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error [precondition]: {exc}", file=sys.stderr)
        return 3
    except ToleranceError as exc:
        print(f"error [tolerance]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
