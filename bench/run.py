"""ued-forge benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload dr --seed 1 --seconds 20 --trace 0

Workloads: dr, accel, paired, eval (see README.md beside this file). With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
runs the timed phase twice, untraced and then traced, and prints the
per-layer metrics with the tracing overhead. Every metric is printed as a
``metric`` line with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` beside this directory, never from an
installed copy. The run writes only to a scratch directory in the checkout,
which it removes on exit.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before numpy is imported

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# (name, unit, better, bound): the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("env_steps_per_s", "steps/s", "higher", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.tail", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SETUP_PROBES = 2  # fresh processes that repeat the warm-up, besides this one

# Per-layer metrics besides the spans: (name, unit, better).
LAYER_EXTRAS = (
    ("env_core.auto_resets", "count", "lower"),
    ("rl_core.forward.rows_per_call", "rows", "higher"),
    ("level_sampler.insert_batch.offered", "count", "lower"),
    ("level_sampler.insert_batch.kept", "count", "higher"),
    ("level_sampler.insert_batch.kept_ratio", "ratio", "higher"),
    ("level_sampler.buffer_to_text.bytes", "bytes", "lower"),
    ("level_sampler.buffer_from_text.bytes", "bytes", "lower"),
    ("ued.cycles.new", "count", "higher"),
    ("ued.cycles.replay", "count", "higher"),
    ("ued.cycles.mutate", "count", "higher"),
    ("ued.cycles.paired", "count", "higher"),
    ("trace.ops", "count", "higher"),
    ("trace.env_steps_per_s", "steps/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("finish.checkpoint_s", "s", "lower"),
    ("finish.resume_s", "s", "lower"),
)


def _import_package():
    """Put ``src/`` first on the path and import the package from there."""
    if not os.path.isfile(os.path.join(SRC, "ued_forge", "__init__.py")):
        sys.exit(f"bench: no package source at {os.path.join(SRC, 'ued_forge')}")
    sys.path.insert(0, SRC)
    import ued_forge

    if os.path.dirname(os.path.dirname(os.path.abspath(ued_forge.__file__))) != SRC:
        sys.exit(f"bench: imported ued_forge from {ued_forge.__file__}, not {SRC}")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    import tracer

    spec = []
    for span in tracer.span_names():
        spec += [
            (f"{span}.calls", "count", "lower"),
            (f"{span}.us_per_call", "us", "lower"),
            (f"{span}.self_ms", "ms", "lower"),
        ]
    return spec + list(LAYER_EXTRAS)


# ---------------------------------------------------------------------------
# Header
# ---------------------------------------------------------------------------

def _blas():
    """BLAS library and its thread count, as far as numpy reveals them."""
    import numpy as np

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{dep['name']} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    threads = "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """SHA-256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ued_forge", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def header_lines(args, threads_env, workload) -> list:
    import numpy as np

    blas, blas_threads = _blas()
    return [
        f"header workload {args.workload} ({workload.describe()})",
        f"header seed {args.seed} (used only to generate inputs)",
        f"header seconds {args.seconds} trace {args.trace} size {args.size}",
        f"header nproc {os.cpu_count()}",
        f"header python {platform.python_version()}",
        f"header numpy {np.__version__}",
        f"header blas {blas} threads {blas_threads}",
        f"header UED_FORGE_THREADS {threads_env}",
        "header load one process, one caller (closed loop), single-threaded stepping",
        f"header commit {_git_commit()}",
        f"header source_sha256 {_source_digest()}",
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples):
    """The highest percentile with at least ten samples beyond it, by
    nearest rank: (percentile, value). Needs more than ten samples."""
    n = len(samples)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


def _probe_setup(args) -> list:
    """``setup_s`` samples from fresh processes running the same warm-up."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def end_to_end(workload, timed, setup_samples):
    """{name: (value, note)} for every end-to-end metric."""
    op = workload.op_name
    n = len(timed.op_s)
    pct, tail_s = tail(timed.op_s)
    what = "training env steps (package accounting)" if op == "cycle" else "evaluation env steps"
    return {
        "env_steps_per_s": (timed.env_steps / timed.window_s,
                            f"{what}: {timed.env_steps} in {timed.window_s:.2f} s"),
        "op_ms.p50": (1000 * statistics.median(timed.op_s), f"median of {n} {op}s"),
        "op_ms.tail": (1000 * tail_s, f"p{pct} of {n} {op}s, the highest percentile "
                                      "with at least ten beyond it"),
        "setup_s": (statistics.median(setup_samples),
                    f"median of {len(setup_samples)} processes: "
                    + ", ".join(f"{s:.3f}" for s in setup_samples)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "maximum resident set of this process"),
    }


def finish_metrics(finish):
    """Checkpoint and resume timings. They vary by about 20% from run to
    run on a shared machine, even as the best of many repeats, so they are
    reported but carry no bound: per-layer in a traced run, information
    lines in an untraced one."""
    return {
        "finish.checkpoint_s": (finish.checkpoint_s, f"checkpoint write, {finish.note}"),
        "finish.resume_s": (finish.resume_s, f"resume read, {finish.note}"),
    }


def per_layer(tr, traced, untraced_rate):
    """{name: (value, note)} for every per-layer metric."""
    out = {}
    for name, (calls, total, self_s) in tr.spans.items():
        out[f"{name}.calls"] = (calls, f"total {1000 * total:.3f} ms")
        out[f"{name}.us_per_call"] = (1e6 * total / calls if calls else 0.0, "")
        out[f"{name}.self_ms"] = (1000 * self_s, "wall time minus enclosed spans")
    c = tr.counters
    forward_calls = tr.spans["rl_core.forward"][0]
    offered = c["level_sampler.insert_batch.offered"]
    traced_rate = traced.env_steps / traced.window_s
    out.update({
        "env_core.auto_resets": (c["env_core.auto_resets"], "episode ends inside wrappers"),
        "rl_core.forward.rows_per_call": (
            c["rl_core.forward.rows"] / forward_calls if forward_calls else 0.0, "batch rows"),
        "level_sampler.insert_batch.offered": (offered, "levels offered"),
        "level_sampler.insert_batch.kept": (c["level_sampler.insert_batch.kept"],
                                            "levels that became new entries"),
        "level_sampler.insert_batch.kept_ratio": (
            c["level_sampler.insert_batch.kept"] / offered if offered else 0.0, "kept / offered"),
        "level_sampler.buffer_to_text.bytes": (c["level_sampler.buffer_to_text.bytes"], ""),
        "level_sampler.buffer_from_text.bytes": (c["level_sampler.buffer_from_text.bytes"], ""),
        "trace.ops": (len(traced.op_s), "timed operations in the traced phase"),
        "trace.env_steps_per_s": (traced_rate, "env steps per second while traced"),
        "trace.overhead_pct": (100 * (untraced_rate / traced_rate - 1),
                               f"untraced {untraced_rate:.1f} steps/s against traced"),
    })
    for kind in ("new", "replay", "mutate", "paired"):
        out[f"ued.cycles.{kind}"] = (c[f"ued.cycles.{kind}"], "cycles of this type, traced phase")
    return out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("paper", "tiny"), default="paper",
                   help="tiny shrinks every workload for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    threads_env = os.environ.pop("UED_FORGE_THREADS", None)
    threads_env = "unset" if threads_env is None else f"unset (was {threads_env!r})"
    _import_package()
    import workloads
    from tracer import Tracer

    args = _parse(argv)
    workdir = tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT)
    try:
        checks = workloads.Checks()
        w = workloads.make_workload(args.workload, args.seed, workdir, checks,
                                    tiny=args.size == "tiny")
        if args.setup_probe:
            print(f"setup_s {w.setup(T0)!r}")
            return 0
        for line in header_lines(args, threads_env, w):
            print(line)
        setup_s = w.setup(T0)
        if args.trace == 0:
            timed = w.timed(args.seconds)
            info = finish_metrics(w.finish())
            metrics = end_to_end(w, timed, [setup_s] + _probe_setup(args))
            spec = [(name, unit) for name, unit, _, _ in END_TO_END]
        else:
            untraced = w.timed(args.seconds / 2)
            tr = Tracer()
            with tr.installed():
                traced = w.timed(args.seconds / 2, tr)
                finish = w.finish()
            info = {}
            metrics = per_layer(tr, traced, untraced.env_steps / untraced.window_s)
            metrics.update(finish_metrics(finish))
            spec = [(name, unit) for name, unit, _ in per_layer_spec()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, digest in sorted(w.digests.items()):
        print(f"digest {name} {digest}")
    for problem in checks.failures:
        print(f"failed {problem}")
    print(f"check failed_frac {checks.failed / checks.attempted} "
          f"({checks.failed} of {checks.attempted} operations failed)")
    for name, (value, note) in info.items():
        print(f"info {name} {value} s  # {note}")
    for name, unit in spec:
        value, note = metrics[name]
        print(f"metric {name} {value} {unit}" + (f"  # {note}" if note else ""))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
