"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-c3 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Writes the seeded configs into a work
directory under ``.bench_work/``, times set-up in fresh interpreters
(``--trace 0`` only; CPU time, like the commands), then starts ``worker.py``
as the workload process with
``PYTHONPATH`` on ``src``, the output redirected through ``CQED_SCOPE_OUT`` and
the BLAS thread count fixed at 1, so ``workers`` x BLAS threads <= nproc.  The
last line of stdout is the JSON result; ``--trace 1`` reports per-layer
metrics instead of end-to-end ones.  Exits non-zero, printing no result, when
the package cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Fresh interpreters timed per run for ``setup_s`` (after one untimed start).
SETUP_REPEATS = 11
#: The whole run must end within 180 s.
DEADLINE_S = 170.0
#: BLAS threads per worker thread.  Two threads made single scans a few percent
#: faster on a shared 2-CPU VM but made their times spread about twice as much.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SCRIPT = (
    "import sys\n"
    "import cqed_scope.cli\n"
    "from cqed_scope.config import parse_config\n"
    "for path in sys.argv[1:]:\n"
    "    parse_config(path)\n"
)


def workload_env(out_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["CQED_SCOPE_OUT"] = str(out_dir)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(BLAS_THREADS)))
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(env: dict[str, str], configs: list[Path], deadline: float) -> float:
    """Median CPU time of a fresh interpreter importing the CLI and parsing the configs."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        start = _children_cpu()
        subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, *map(str, configs)],
            env=env,
            cwd=ROOT,
            check=True,
            capture_output=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        samples.append(_children_cpu() - start)
    return statistics.median(samples[1:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "cqed_scope").is_dir():
        print(f"bench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    plan = make_plan(args.workload, args.seed)
    if plan.workers * BLAS_THREADS > len(os.sched_getaffinity(0)):
        print(f"bench: {args.workload} needs {plan.workers} CPUs", file=sys.stderr)
        return 1
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        configs = []
        for relpath in plan.configs:
            path = workdir / "configs" / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(plan.ini(relpath), encoding="utf-8")
            configs.append(path)
        (workdir / "out").mkdir()
        env = workload_env(workdir / "out")

        setup_s = None if args.trace else setup_seconds(env, configs, deadline)
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", str(workdir),
            ],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        stderr = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr
        print(f"bench: {exc}\n{stderr or ''}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
