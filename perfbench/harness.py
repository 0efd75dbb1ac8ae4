"""Set-up, the closed job loop, output checks and the metric summary."""
from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import scipy

import instrument
import spans
import workloads
from pncalc import cli

SETUP_REPEATS = 3
TAIL_BEYOND = 10
EXIT_NAMES = {2: "config", 3: "precondition", 4: "tolerance"}
# span names whose metric is not "<name>.self_s"
SELF_METRIC = {"linalg.cmat.write": "linalg.cmat.write_s",
               "linalg.cmat.read": "linalg.cmat.read_s",
               "spectra.pndec.write": "spectra.pndec.write_s"}
# every per-layer metric of the traced run, printed even when a workload
# leaves the layer idle (value 0)
LAYER_METRICS = (
    "linalg.eig.calls", "linalg.eig.self_s",
    "linalg.op_norm.calls", "linalg.op_norm.self_s", "linalg.op_norm.dim_max",
    "linalg.resolvent_at_nodes.calls", "linalg.resolvent_at_nodes.node_solves",
    "linalg.resolvent_at_nodes.self_s", "linalg.resolvent_at_nodes.stack_bytes_max",
    "linalg.resolvent.calls", "linalg.resolvent.self_s",
    "linalg.cmat.write_s", "linalg.cmat.read_s", "linalg.cmat.bytes_written",
    "spectra.decompose.calls", "spectra.decompose.self_s",
    "spectra.decompose.components",
    "spectra.riesz_projector.calls", "spectra.riesz_projector.self_s",
    "spectra.verify_decomposition.self_s", "spectra.verify.worst_ratio",
    "spectra.nilpotency_index.self_s",
    "spectra.pndec.write_s", "spectra.pndec.bytes_written",
    "functions.eval.calls", "functions.eval.self_s", "functions.partial.calls",
    "functions.taylor_coefficients.calls", "functions.taylor_coefficients.self_s",
    "calculus.lift.calls", "calculus.lift.self_s", "calculus.lift.tensor_dim_max",
    "calculus.func_multivariate.self_s", "calculus.ledger_terms",
    "calculus.dunford.self_s",
    "calculus.dunford_multivariate.self_s", "calculus.dunford_multivariate.node_tuples",
    "calculus.power_series_apply.self_s", "calculus.power_series_apply.failed",
    "approx.level_experiment.self_s", "approx.multivariate_experiment.self_s",
    "approx.error_constant.self_s", "approx.resolvent_error.self_s",
    "approx.regularization_sweep.self_s",
    "cli.main.self_s", "cli.load_config.self_s",
    "cli.artifacts.self_s", "cli.artifacts.bytes",
    "cli.exit.config", "cli.exit.precondition", "cli.exit.tolerance",
)


def environment(cpu: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "cpus": os.cpu_count(), "pinned_cpu": cpu, "machine": platform.machine()}


def _warm_blas() -> None:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    np.linalg.eig(a[:64, :64])
    np.linalg.solve(a, a)
    np.linalg.norm(a, 2)
    (a @ a).sum()


def _set_up(workload, seed, blocks, inputs, root):
    """One timed set-up: a fresh interpreter importing the package (the
    import a CLI user pays), seeded input generation, and BLAS warm-up."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pncalc.cli"], env=env, cwd=root,
                   check=True, timeout=120)
    jobs = workloads.generate(workload, seed, blocks, inputs)
    _warm_blas()
    return time.perf_counter() - t0, jobs


def _run_job(job, out_dir, rec=None):
    """One closed-loop job; returns (exit code or None on a crash, wall, log)."""
    argv = [job.command, "--config", job.config, "--out", out_dir]
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = time.perf_counter()
        root = rec.enter("cli.main") if rec is not None else None
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed, incorrect job, not a harness error
            rc = None
            sink.write(traceback.format_exc())
        finally:
            if rec is not None:
                rec.exit(root)
        wall = time.perf_counter() - t0
    return rc, wall, sink.getvalue()


def _judge(job, rc, out_dir, log):
    """(ok, wrong, message): wrong marks a crash or a checked output that is
    not correct; a typed refusal (exit 2/3/4) is a failure, not wrong."""
    if rc is None:
        return False, True, "crash: " + log.strip().splitlines()[-1]
    if rc != 0:
        return False, False, f"exit {rc}: " + (log.strip().splitlines() or [""])[-1]
    try:
        err = job.check(out_dir)
    except (OSError, KeyError, ValueError) as exc:
        err = f"output unreadable: {exc!r}"
    return err is None, err is not None, err or ""


def tail(walls: list[float]) -> tuple[float, int]:
    """Wall time at the highest integer percentile (nearest rank) that has at
    least TAIL_BEYOND jobs beyond it, and that percentile; the median when
    there are too few jobs."""
    w = sorted(walls)
    n = len(w)
    best = None
    for p in range(1, 100):
        rank = math.ceil(p * n / 100) - 1
        if n - 1 - rank >= TAIL_BEYOND:
            best = p
    if best is None:
        return statistics.median(w), 50
    return w[math.ceil(best * n / 100) - 1], best


def _layer_metrics(rec: spans.Recorder, blocks: int) -> dict[str, float]:
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    layers: dict[str, float] = {}
    for name, t in spans.self_by_name(rec.spans).items():
        out[SELF_METRIC.get(name, name + ".self_s")] = t / blocks
        layer = "layer." + name.split(".")[0] + ".self_s"
        layers[layer] = layers.get(layer, 0.0) + t / blocks
    for name, v in rec.counts.items():
        out[name] = v / blocks
    out.update(rec.maxima)
    out.update(sorted(layers.items()))
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if "bytes" in name else "count"


def run(workload: str, seed: int, seconds: int, trace: bool, root: str,
        cpu: int) -> dict:
    blocks = workloads.blocks_for(workload, seconds)
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, root, blocks, work, cpu)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def _run(workload, seed, seconds, trace, root, blocks, work, cpu):
    setups, digests = [], []
    for i in range(SETUP_REPEATS):
        inputs = os.path.join(work, f"inputs{i}")
        elapsed, jobs = _set_up(workload, seed, blocks, inputs, root)
        setups.append(elapsed)
        digests.append(workloads.inputs_digest(inputs))
    if len(set(digests)) != 1:
        raise RuntimeError(f"seed {seed} generated different inputs: {digests}")

    os.chdir(inputs)
    rec = spans.Recorder()
    walls, traced, untraced, records = [], [], [], []
    attempted = failed = 0
    correct = True
    for i, job in enumerate(jobs):
        modes = [False] if not trace else ([False, True] if i % 2 == 0 else [True, False])
        for mode in modes:
            out_dir = os.path.join(work, "out", f"{i}{'t' if mode else ''}")
            if mode:
                rec.job = i
                uninstall = instrument.install(rec)
                try:
                    rc, wall, log = _run_job(job, out_dir, rec)
                finally:
                    uninstall()
                traced.append(wall)
                if rc in EXIT_NAMES:
                    rec.count("cli.exit." + EXIT_NAMES[rc])
            else:
                rc, wall, log = _run_job(job, out_dir)
                (untraced if trace else walls).append(wall)
            ok, wrong, msg = _judge(job, rc, out_dir, log)
            shutil.rmtree(out_dir, ignore_errors=True)
            attempted += 1
            failed += not ok
            correct = correct and not wrong
            records.append({"job": i, "label": job.label, "traced": mode,
                            "wall_s": wall, "exit": rc, "ok": ok, "message": msg})

    env = environment(cpu)
    print(f"pncalc benchmark: workload {workload}, seed {seed}, {blocks} block(s), "
          f"{len(jobs)} jobs, trace {int(trace)}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"inputs sha256: {digests[0]}")
    for r in records:
        if not r["ok"]:
            print(f"  failed job {r['job']} {r['label']}: {r['message']}")

    setup_s = statistics.median(setups)
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "blocks": blocks, "trace": int(trace), "env": env,
               "inputs_sha256": digests[0], "setup_runs_s": setups, "jobs": records}
    if not trace:
        tail_s, pct = tail(walls)
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (len(walls) / sum(walls), "1/s"),
            "job_p50_s": (statistics.median(walls), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        notes = {"setup_s": f"median of {len(setups)} set-ups",
                 "job_p50_s": f"n={len(walls)}",
                 "job_tail_s": f"p{pct}, n={len(walls)}, "
                               f"{len(walls) - math.ceil(pct * len(walls) / 100)} beyond",
                 "ok_ratio": f"fail_ratio {failed / attempted:.4f}: "
                             f"{failed} of {attempted} failed"}
        summary["tail_percentile"] = pct
    else:
        layer = _layer_metrics(rec, blocks)
        by_job = spans.self_by_job(rec.spans)
        traced_jobs = [r for r in records if r["traced"]]
        unattributed = sum(r["wall_s"] - by_job.get(r["job"], 0.0) for r in traced_jobs)
        overhead = sum(traced) - sum(untraced)
        layer["trace.overhead_ratio"] = sum(traced) / sum(untraced) - 1.0
        layer["trace.unattributed_s"] = unattributed / blocks
        metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}
        metrics["setup_s"] = (setup_s, "s")
        notes = {"trace.overhead_ratio":
                 f"traced {sum(traced):.4f} s vs untraced {sum(untraced):.4f} s",
                 "trace.unattributed_s":
                 f"job walls minus summed self times, "
                 f"{'within' if unattributed <= abs(overhead) else 'beyond'} "
                 f"the overhead {overhead:.4f} s"}
        print(f"per-layer values are summed over the {len(jobs)} traced jobs and "
              f"divided by the {blocks} block(s); maxima are over the run")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<{width}}  {value:.6g} {unit}{note}")

    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results = os.path.join(root, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}_seed{seed}_trace{int(trace)}.json"),
              "w") as fh:
        json.dump(summary, fh, indent=1, default=str)

    declared = _declared(root, "per_layer" if trace else "end_to_end")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: summary["metrics"][k] for k in declared}}


def _declared(root: str, key: str) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]
