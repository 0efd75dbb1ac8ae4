"""Seeded job lists for the three workloads, and each job's output check.

Inputs come only from the seed, through the benchmark's own generators and
cmat writer, so a change to the library cannot change what it is fed.  A
workload is a fixed template of job shapes (one block); the seed draws the
matrices and parameters of every job, and a run executes `blocks` blocks,
each drawn afresh.  Every check compares against a reference the job did
not compute: the generator's own truth, scipy.linalg.expm of the factors, or
a direct numpy solve.
"""
from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

# nominal seconds of one block and of the once-per-run jobs on a 2-vCPU x86
# box with one OpenBLAS 0.3.31 thread; only used to turn --seconds into a
# whole number of blocks, so a run's job list is fixed by (workload, seed,
# seconds) and never by the speed of the machine
BLOCK_SECONDS = {"decompose": 13.5, "oracle": 4.0, "converge": 14.0}
ONCE_SECONDS = {"decompose": 0.0, "oracle": 5.0, "converge": 0.0}
SALT = {"decompose": 101, "oracle": 202, "converge": 303}


@dataclass
class Job:
    label: str                      # job shape, the same for every seed
    command: str
    config: str                     # INI path
    check: Callable[[str], str | None] = field(repr=False)


def blocks_for(workload: str, seconds: int) -> int:
    return max(1, round((seconds - ONCE_SECONDS[workload]) / BLOCK_SECONDS[workload]))


# ---------------------------------------------------------------- file output

def write_cmat(path: str, m: np.ndarray) -> None:
    """cmat v1: `rows cols`, then one `re im` line per entry, row major."""
    m = np.asarray(m, dtype=complex)
    body = "\n".join(f"{v.real:.16e} {v.imag:.16e}" for v in m.ravel())
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n{body}\n")


def read_cmat(path: str) -> np.ndarray:
    with open(path) as fh:
        rows, cols = (int(t) for t in fh.readline().split())
        vals = np.array(fh.read().split(), dtype=float)
    return (vals[0::2] + 1j * vals[1::2]).reshape(rows, cols)


def write_ini(path: str, sections: dict[str, dict[str, object]]) -> None:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))


def inputs_digest(directory: str) -> str:
    """sha256 over every input file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _csv_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _output(out_dir: str, suffix: str) -> str:
    names = [n for n in os.listdir(out_dir) if n.endswith(suffix)]
    if len(names) != 1:
        raise FileNotFoundError(f"expected one *{suffix} in the output, got {names}")
    return os.path.join(out_dir, names[0])


def _all_true(rows, column: str) -> str | None:
    if not rows:
        return "empty report"
    bad = [i for i, r in enumerate(rows) if r[column] != "true"]
    return f"{column} false on rows {bad}" if bad else None


# ---------------------------------------------------------------- generators

def _similarity(rng, dim: int, cond: float) -> np.ndarray:
    """Random matrix with 2-norm condition number exactly `cond`."""
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    s = cond ** np.linspace(0.5, -0.5, dim) if dim > 1 else np.ones(1)
    return (q1 * s) @ q2


def _separated(rng, count: int, min_sep: float = 0.3) -> np.ndarray:
    """`count` points in a square sized for them, pairwise >= min_sep apart."""
    half = 0.25 * np.sqrt(count) + 0.35
    out: list[complex] = []
    while len(out) < count:
        z = complex(rng.uniform(-half, half), rng.uniform(-half, half))
        if all(abs(z - w) >= min_sep for w in out):
            out.append(z)
    return np.array(out)


def _jordan(rng, sizes: list[int], cond: float, nil: float = 0.3):
    """S J S^-1 with one Jordan block per distinct eigenvalue; returns truth."""
    lams = _separated(rng, len(sizes))
    dim = sum(sizes)
    j = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for lam, k in zip(lams, sizes):
        j[pos:pos + k, pos:pos + k] = lam * np.eye(k) + nil * np.eye(k, k=1)
        pos += k
    s = _similarity(rng, dim, cond)
    return s @ j @ np.linalg.inv(s), list(zip(lams.tolist(), sizes))


def _block_sizes(rng, dim: int, max_index: int) -> list[int]:
    sizes, left = [], dim
    while left:
        sizes.append(int(rng.integers(1, min(max_index, left) + 1)))
        left -= sizes[-1]
    return sizes


def _hermitian(rng, dim: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


# ---------------------------------------------------------------- decompose

TOL_DEC = 1e-8
# (family, n): k = n separated clusters, Hermitian, Jordan-similar nu <= 4.
# By cost a block is 4 cheap jobs, 7 jobs near 0.5 s, 5 near 1 s and 2 near
# 1.7 s, so that with two blocks the median and the tail percentile of a run
# fall inside a group of similar jobs rather than on the edge between groups
DECOMPOSE_BLOCK = [
    ("jordan", 24), ("diagonalizable", 24), ("hermitian", 24), ("jordan", 32),
    ("diagonalizable", 32), ("hermitian", 32), ("jordan", 48), ("diagonalizable", 32),
    ("hermitian", 32), ("jordan", 48), ("jordan", 40),
    ("diagonalizable", 40), ("hermitian", 40), ("jordan", 56), ("diagonalizable", 40),
    ("hermitian", 40),
    ("diagonalizable", 48), ("hermitian", 48),
]


def _check_decompose(x, truth, out_dir):
    from pncalc.spectra import read_decomposition

    err = _all_true(_csv_rows(os.path.join(out_dir, "residuals.csv")), "ok")
    if err:
        return err
    dec = read_decomposition(os.path.join(out_dir, "decomposition.txt"))
    recon = sum(c.eigenvalue * c.projector + c.nilpotent for c in dec.components)
    scale = np.linalg.norm(x, 2)
    rel = np.linalg.norm(recon - x, 2) / scale
    if not rel <= TOL_DEC:
        return f"reconstruction {rel:.3e} > tol_dec {TOL_DEC:g}"
    if len(dec.components) != len(truth):
        return f"{len(dec.components)} components, generator made {len(truth)}"
    for lam, size in truth:
        c = min(dec.components, key=lambda c: abs(c.eigenvalue - lam))
        if abs(c.eigenvalue - lam) > 1e-6 * max(1.0, scale) or \
                (c.multiplicity, c.index) != (size, size):
            return (f"eigenvalue {lam:.6g}: got {c.eigenvalue:.6g} mult "
                    f"{c.multiplicity} index {c.index}, expected {size}")
    return None


def _decompose_job(rng, tag, family, n, inputs) -> Job:
    if family == "diagonalizable":
        lams = _separated(rng, n)
        s = _similarity(rng, n, 6.0)
        x = s @ np.diag(lams) @ np.linalg.inv(s)
        truth = [(lam, 1) for lam in lams.tolist()]
        cluster_tol = -1.0
    elif family == "hermitian":
        x = _hermitian(rng, n, 1.0 / np.sqrt(n))
        truth = [(lam, 1) for lam in np.linalg.eigvalsh(x).tolist()]
        cluster_tol = -1.0
    else:
        x, truth = _jordan(rng, _block_sizes(rng, n, 4), 6.0)
        cluster_tol = 1e-3 * max(1.0, float(np.linalg.norm(x, 2)))
    write_cmat(os.path.join(inputs, f"{tag}.cmat"), x)
    config = os.path.join(inputs, f"{tag}.ini")
    write_ini(config, {"input": {"matrix": f"{tag}.cmat"},
                       "params": {"cluster_tol": repr(cluster_tol),
                                  "tol_dec": repr(TOL_DEC)}})
    return Job(f"decompose/{family}/n{n}", "decompose", config,
               lambda out, x=x, truth=truth: _check_decompose(x, truth, out))


# ---------------------------------------------------------------- oracle

def _lifts(factors):
    dims = [f.shape[0] for f in factors]
    out = []
    for j, f in enumerate(factors):
        left = int(np.prod(dims[:j])) if j else 1
        right = int(np.prod(dims[j + 1:])) if j + 1 < len(dims) else 1
        out.append(np.kron(np.kron(np.eye(left), f), np.eye(right)))
    return out


def _expm_sin(a):
    return (scipy.linalg.expm(1j * a) - scipy.linalg.expm(-1j * a)) / 2j


# criterion-02-style specs with a reference built from explicit lifts
ORACLE_SPECS = {
    2: [("exp(z1+z2)", lambda l: scipy.linalg.expm(l[0] + l[1])),
        ("sin(z1+0.5*z2)", lambda l: _expm_sin(l[0] + 0.5 * l[1])),
        ("poly{(1,1): 1, (2,0): 0.25}", lambda l: l[0] @ l[1] + 0.25 * l[0] @ l[0]),
        ("prod(exp(z1), poly{(0,0): 1, (0,1): 1})",
         lambda l: scipy.linalg.expm(l[0]) @ (np.eye(len(l[0])) + l[1]))],
    3: [("exp(z1+z2+z3)", lambda l: scipy.linalg.expm(l[0] + l[1] + l[2])),
        ("sin(z1+z2-z3)", lambda l: _expm_sin(l[0] + l[1] - l[2])),
        ("poly{(1,1,1): 1, (0,0,2): 0.5}", lambda l: l[0] @ l[1] @ l[2] + 0.5 * l[2] @ l[2]),
        ("prod(exp(z1), poly{(0,0,0): 1, (0,1,1): 1})",
         lambda l: scipy.linalg.expm(l[0]) @ (np.eye(len(l[0])) + l[1] @ l[2]))],
}
FACTOR_KINDS = ("diagonal", "hermitian", "jordan", "diagonalizable")
# One block: 31 explicit systems whose dims (2..6), factor families and spec
# are fixed by the slot, so the seed moves values and not the amount of work,
# then two deep Jordan-chain pairs with nu = 5.  By cost: 12 cheap 2-factor
# cases, 16 3-factor exp/sin/poly cases in which the median falls, the nu = 5
# pairs, and 3 3-factor prod cases that mostly end in the slow TailBoundError
# path and form the group in which the tail percentile falls
ORACLE_BLOCK = ([("system", dims, i % 4)
                 for i, dims in enumerate([(2, 3), (3, 4), (4, 5), (5, 6), (6, 2),
                                           (3, 3), (4, 4), (5, 5), (2, 6), (6, 4),
                                           (4, 2), (3, 5)])]
                + [("system", dims, i % 3)
                   for i, dims in enumerate([(2, 3, 4), (3, 3, 3), (4, 3, 2), (2, 2, 5),
                                             (3, 4, 5), (5, 4, 3), (4, 4, 4), (2, 5, 3),
                                             (3, 2, 6), (6, 2, 3), (4, 5, 2), (5, 3, 3),
                                             (3, 5, 4), (4, 2, 4), (2, 6, 2), (5, 5, 2)])]
                + [("deep", (5, 5), 0), ("deep", (5, 5), 0)]
                + [("system", dims, 3) for dims in [(3, 2, 4), (2, 2, 5), (4, 3, 2)]])
# once per run, after the blocks: the nu = 6 pair, which alone takes as long
# as a few blocks
ORACLE_ONCE = [("deep", (6, 6), 0)]


def _oracle_factor(rng, dim, kind):
    if kind == "diagonal":
        return np.diag(_separated(rng, dim))
    if kind == "hermitian":
        return _hermitian(rng, dim, 0.5)
    if kind == "jordan":
        return _jordan(rng, _block_sizes(rng, dim, 3), 6.0)[0]
    s = _similarity(rng, dim, 6.0)
    return s @ np.diag(_separated(rng, dim)) @ np.linalg.inv(s)


def _check_oracle(factors, reference, out_dir):
    rows = _csv_rows(os.path.join(out_dir, "oracle_report.csv"))
    err = _all_true(rows, "ok")
    if err:
        return err
    want = np.linalg.norm(reference(_lifts(factors)), 2)
    got = float(rows[0]["value_norm"])
    if abs(got - want) > 1e-8 * (1.0 + want):
        return f"value norm {got!r} != reference {want!r}"
    return None


def _oracle_job(rng, tag, shape, dims, which, inputs) -> Job:
    if shape == "deep":
        factors = []
        for nu in dims:
            lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            s = _similarity(rng, nu, 3.0)
            j = lam * np.eye(nu) + 0.3 * np.eye(nu, k=1)
            factors.append(s @ j @ np.linalg.inv(s))
        spec, reference = ORACLE_SPECS[2][0]
        label = f"oracle/deep/nu{dims[0]}"
    else:
        factors = [_oracle_factor(rng, d, FACTOR_KINDS[(which + j) % 4])
                   for j, d in enumerate(dims)]
        spec, reference = ORACLE_SPECS[len(dims)][which]
        label = f"oracle/r{len(dims)}/{spec.split('(')[0].split('{')[0]}"
    paths = {}
    for j, f in enumerate(factors):
        paths[f"matrix_{j + 1}"] = f"{tag}_{j + 1}.cmat"
        write_cmat(os.path.join(inputs, paths[f"matrix_{j + 1}"]), f)
    config = os.path.join(inputs, f"{tag}.ini")
    write_ini(config, {"input": paths, "function": {"spec": spec}})
    return Job(label, "oracle-check", config,
               lambda out, fs=factors, ref=reference: _check_oracle(fs, ref, out))


# ---------------------------------------------------------------- converge

# (command, model kind, ref_dim).  Per block: 5 short regularize jobs, 4
# converge jobs and 2 heavy ones, so the median and the tail percentile of a
# run fall inside the converge group rather than on a boundary between groups
CONVERGE_BLOCK = [
    ("converge-multi", "harmonic", 32),     # tensor dim 1024, criterion-07 shape
    ("converge", "harmonic", 64),
    ("regularize", "complex_harmonic", 64),
    ("converge", "anharmonic_x4", 64),
    ("regularize", "harmonic", 64),
    ("lift-calc", "", 24),                  # tensor dim 576
    ("regularize", "complex_harmonic", 96),
    ("converge", "complex_harmonic", 64),
    ("regularize", "anharmonic_x4", 64),
    ("converge", "complex_harmonic", 128),
    ("regularize", "complex_harmonic", 128),
]
N_LISTS = {32: "4, 8, 16", 64: "3, 4, 6, 8, 16, 32", 128: "8, 16, 32"}


def _check_level(out_dir, suffix):
    return _all_true(_csv_rows(_output(out_dir, suffix)), "level2_ok")


def _oscillator(kind: str, dim: int) -> np.ndarray:
    """Reference oscillator in the ladder basis, built here for the check."""
    guard = 4 if kind == "anharmonic_x4" else 2
    n = dim + guard
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    full = {"harmonic": p @ p + x @ x, "anharmonic_x4": p @ p + x @ x @ x @ x,
            "complex_harmonic": p @ p + 1j * (x @ x)}[kind]
    return full[:dim, :dim]


def _check_regularize(kind, dim, k_mat, z0, eps_max, out_dir):
    rows = _csv_rows(_output(out_dir, "_regularize.csv"))
    err = _all_true(rows, "ok")
    if err:
        return err
    x = _oscillator(kind, dim)
    ident = np.eye(dim)
    r0 = np.linalg.solve(z0 * ident - x, ident[:, 0])
    r_eps = np.linalg.solve(z0 * ident - x - eps_max * k_mat, ident[:, 0])
    want = np.linalg.norm(r_eps - r0)
    got = float(rows[0]["probe_err_0"])
    if abs(got - want) > 1e-8 * want:
        return f"probe error {got!r} != direct solve {want!r}"
    return None


def _check_lift(a, b, ca, cb, out_dir):
    got = read_cmat(os.path.join(out_dir, "value.cmat"))
    want = np.kron(scipy.linalg.expm(ca * a), scipy.linalg.expm(cb * b))
    rel = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
    return None if rel <= 1e-8 else f"value differs from expm kron by {rel:.3e}"


def _converge_job(rng, tag, command, kind, dim, inputs) -> Job:
    config = os.path.join(inputs, f"{tag}.ini")
    label = f"{command}/{kind}/{dim}" if kind else f"{command}/{dim}x{dim}"
    z0 = -float(rng.uniform(1.0, 1.5))
    if command == "converge":
        a = float(rng.uniform(0.8, 1.2))
        write_ini(config, {
            "model": {"kind": kind, "ref_dim": dim},
            "function": {"spec": f"exp(-{a!r}*z1)"},
            "experiment": {"z0": repr(z0), "n_list": N_LISTS[dim],
                           "probes": 4, "stability": "true"}})
        return Job(label, command, config,
                   lambda out: _check_level(out, "_level.csv"))
    if command == "converge-multi":
        a, b = (float(v) for v in rng.uniform(0.8, 1.2, size=2))
        write_ini(config, {
            "model_1": {"kind": kind, "ref_dim": dim},
            "model_2": {"kind": kind, "ref_dim": dim},
            "function": {"spec": f"exp(-{a!r}*z1-{b!r}*z2)"},
            "experiment": {"z0_1": repr(z0), "z0_2": repr(z0),
                           "n_list": N_LISTS[dim]}})
        return Job(label, command, config,
                   lambda out: _check_level(out, "_multi.csv"))
    if command == "regularize":
        # K = D G: seeded, decaying rows, modestly bounded next to X
        g = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(dim)
        k_mat = (1.0 / np.arange(1.0, dim + 1.0))[:, None] * g
        path = f"{tag}_k.cmat"
        write_cmat(os.path.join(inputs, path), k_mat)
        eps = "1e-1, 1e-2, 1e-3, 1e-4"
        write_ini(config, {
            "model": {"kind": kind, "ref_dim": dim},
            "perturbation": {"kind": "file", "path": path, "scale": 1.0},
            "experiment": {"z0": repr(z0), "eps_list": eps, "probes": 4}})
        return Job(label, command, config,
                   lambda out, k=k_mat, z=z0: _check_regularize(kind, dim, k, z, 0.1, out))
    # lift-calc: a Hermitian and a separated diagonalizable factor
    a_mat = _hermitian(rng, dim, 0.3 / np.sqrt(dim))
    s = _similarity(rng, dim, 4.0)
    b_mat = s @ np.diag(_separated(rng, dim)) @ np.linalg.inv(s)
    ca, cb = (float(v) for v in rng.uniform(0.5, 1.0, size=2))
    paths = {"matrix_1": f"{tag}_1.cmat", "matrix_2": f"{tag}_2.cmat"}
    write_cmat(os.path.join(inputs, paths["matrix_1"]), a_mat)
    write_cmat(os.path.join(inputs, paths["matrix_2"]), b_mat)
    write_ini(config, {"input": paths,
                       "function": {"spec": f"exp({ca!r}*z1+{cb!r}*z2)"}})
    return Job(label, command, config,
               lambda out: _check_lift(a_mat, b_mat, ca, cb, out))


# ---------------------------------------------------------------- entry

def generate(workload: str, seed: int, blocks: int, inputs: str) -> list[Job]:
    """Write every input of the run into `inputs` and return the job list:
    `blocks` blocks, then the once-per-run jobs, each drawn from the seed.

    INI files name their matrices relative to `inputs`, so jobs run with
    `inputs` as the working directory, and the files do not depend on where
    the directory is."""
    make, block, once = TEMPLATES[workload]
    rng = np.random.default_rng([seed, SALT[workload]])
    os.makedirs(inputs, exist_ok=True)
    return [make(rng, f"j{i:03d}", *shape, inputs)
            for i, shape in enumerate(block * blocks + once)]


TEMPLATES = {"decompose": (_decompose_job, DECOMPOSE_BLOCK, []),
             "oracle": (_oracle_job, ORACLE_BLOCK, ORACLE_ONCE),
             "converge": (_converge_job, CONVERGE_BLOCK, [])}
WORKLOADS = tuple(TEMPLATES)
