"""Workload process: runs one workload's CLI commands in-process and checks them.

``run.py`` starts this with the BLAS thread count fixed in the environment,
``PYTHONPATH`` on the package sources and ``CQED_SCOPE_OUT`` inside the run's
work directory.  One op is one ``cqed_scope.cli.main`` command; it passes when
it exits 0, its report passes the workload's checks and the CSVs it writes
are byte-identical to those of the warm-up pass.  After the timed ops, an
untimed gate checks the outputs against ``oracle``; if the gate fails, every
op counts as failed.  Prints an ``env`` line and, last, one JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from calibrate import HostSpeed
from spans import Tracer
from workloads import EXAMPLE_SYSTEM, make_plan

from cqed_scope import cli, hilbert, lindblad
from cqed_scope.analytic import LinewidthModelParams, polariton_frequencies
from cqed_scope.dataset import ScanKind, SpectrumDataset, read_csv
from cqed_scope.fit import fit_lorentzian
from cqed_scope.model import (
    SPEED_OF_LIGHT_NM_GHZ,
    DriveSpec,
    DriveTarget,
    SystemParams,
    angular_frequency_to_wavelength,
)
from cqed_scope.scan import wavelength_window

#: Steady-state values may differ from the oracle by this share of themselves.
POINT_RTOL = 1e-9
#: Fitted linewidths of an oracle spectrum may differ by this share (the fit
#: stops at a gradient tolerance, so it amplifies input round-off).
LINEWIDTH_RTOL = 1e-6
#: Fitted parameters must land within this many reported sigmas of the truth.
FIT_SIGMAS = 5.0
#: Grid points checked against the oracle per scan.
SAMPLED_POINTS = 5


@dataclass
class Command:
    argv: list[str]
    writes: tuple[str, ...] = ()
    check: Callable[[dict[str, str]], str | None] = lambda report: None
    points: int = 0


@dataclass
class Outcome:
    seconds: float
    cpu: float
    points: int
    failure: str | None


def report_of(text: str) -> dict[str, str]:
    """The CLI's flat ``key = value`` report as a dict."""
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {key: value for key, value in pairs}


def parse_csv(data: bytes) -> tuple[str, np.ndarray, np.ndarray]:
    """Header and columns of a two-column CSV, parsed without the package."""
    lines = data.decode("utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:] if line]
    return lines[0], np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def rows_of(data: bytes) -> int:
    return data.count(b"\n") - 1


class Workload:
    """Commands of one workload plus the determinism bookkeeping they share."""

    #: Cycles that make every traced block identical work.
    block = 1
    #: Scale command times by the host speed ``calibrate`` measures.
    host_speed = False

    def __init__(self, plan, workdir: Path) -> None:
        self.plan = plan
        self.configs = workdir / "configs"
        self.out = Path(os.environ["CQED_SCOPE_OUT"])
        self.reference: dict[str, bytes] = {}
        self.failures: list[str] = []
        self.gate_metrics = dict.fromkeys(
            (
                "check.oracle_rel_err",
                "check.linewidth_rel_err",
                "check.cutoff_margin",
                "check.fit_max_sigmas",
            ),
            0.0,
        )

    def cycle(self, index: int) -> list[Command]:
        raise NotImplementedError

    def gate(self) -> str | None:
        raise NotImplementedError

    def run(self, command: Command) -> Outcome:
        stdout, stderr = io.StringIO(), io.StringIO()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(command.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            stderr.write(traceback.format_exc())
        cpu = time.process_time() - cpu_start
        seconds = time.perf_counter() - start

        failure = None
        if code != 0:
            failure = f"exit {code}: {stderr.getvalue().strip()[-400:]}"
        else:
            try:
                failure = command.check(report_of(stdout.getvalue()))
            except (KeyError, ValueError) as exc:
                failure = f"report lacks or garbles {exc}"
        for name in command.writes if failure is None else ():
            path = self.out / name
            data = path.read_bytes() if path.is_file() else None
            if data is None:
                failure = f"{name} was not written"
            elif self.reference.setdefault(name, data) != data:
                failure = f"{name} differs from the first pass"
        if failure is not None:
            self.failures.append(f"{' '.join(command.argv[:3])}: {failure}")
            return Outcome(seconds, cpu, 0, failure)
        return Outcome(seconds, cpu, command.points, None)

    def run_cycle(self, index: int) -> list[Outcome]:
        return [self.run(command) for command in self.cycle(index)]

    def _config(self, relpath: str) -> dict:
        return self.plan.configs[relpath]

    def _sampled(self, size: int, always: int) -> list[int]:
        rng = random.Random(f"gate:{self.plan.name}:{self.plan.seed}")
        others = [i for i in range(size) if i != always]
        return sorted([always, *rng.sample(others, SAMPLED_POINTS - 1)])


def _system(section: dict) -> tuple[oracle.System, SystemParams]:
    keys = {k: float(section[k]) for k in EXAMPLE_SYSTEM}
    return oracle.System(**keys), SystemParams.from_ghz_and_nm(**keys)


def _worst_rel_err(values: np.ndarray, expected: list[float]) -> float:
    return max(abs(value - want) / abs(want) for value, want in zip(values, expected))


def _cutoff_verdict(change: float, gate_metrics: dict) -> str | None:
    gate_metrics["check.cutoff_margin"] = change / oracle.TRUNCATION_RTOL
    if change >= oracle.TRUNCATION_RTOL:
        return f"cutoff not converged at the strongest drive (change {change:.2e})"
    return None


class PowerSweep(Workload):
    """``power-sweep`` on the seeded example system (cutoff 3, 12 powers x 201 points)."""

    def __init__(self, plan, workdir: Path) -> None:
        super().__init__(plan, workdir)
        cfg = self._config("sweep.ini")
        self.n_max = int(cfg["numerics"]["fock_cutoff"])
        self.grid_points = int(cfg["numerics"]["scan_points"])
        self.span_fwhm = float(cfg["numerics"]["scan_span_fwhm"])
        self.command = Command(
            argv=["power-sweep", "--config", str(self.configs / "sweep.ini")],
            writes=("sweep_saturation.csv", "sweep_linewidths.csv"),
            check=self._check,
            points=int(cfg["drive"]["power_points"]) * self.grid_points,
        )

    def cycle(self, index: int) -> list[Command]:
        return [self.command]

    @staticmethod
    def _check(report: dict[str, str]) -> str | None:
        if "skipped_powers" in report:
            return f"powers skipped: {report['skipped_powers']}"
        for key, want in (
            ("saturation.converged", "True"),
            ("alpha_reliable", "yes"),
            ("linewidth.converged", "True"),
        ):
            if report.get(key) != want:
                return f"{key} = {report.get(key)}"
        return None

    def gate(self) -> str | None:
        cfg = self._config("sweep.ini")
        system, params = _system(cfg["system"])
        alpha = float(cfg["drive"]["alpha_per_uw"])
        centre = polariton_frequencies(params).branch_near(params.omega_d).real
        centre_nm = angular_frequency_to_wavelength(centre)
        _, powers, intensity = parse_csv(self.reference["sweep_saturation.csv"])
        _, lw_powers, fwhm_ghz = parse_csv(self.reference["sweep_linewidths.csv"])

        def drive(power: float) -> oracle.Drive:
            return oracle.Drive("qd", alpha_per_uw=alpha, power_uw=float(power))

        picks = self._sampled(powers.size, powers.size - 1)
        expected = [oracle.emission(system, drive(powers[i]), centre_nm, self.n_max) for i in picks]
        worst = _worst_rel_err(intensity[picks], expected)
        self.gate_metrics["check.oracle_rel_err"] = worst
        if worst > POINT_RTOL:
            return f"saturation differs from the oracle by {worst:.2e}"

        # Linewidths come from fits of scans the CLI does not write: rebuild the
        # scan grid, fill it from the oracle and fit it with the package's fit.
        model = LinewidthModelParams.from_system(params, alpha=1.0)
        picks = [0, lw_powers.size - 1]
        expected = []
        for power in lw_powers[picks]:
            width = model.delta_omega_c + model.delta_omega_0 * math.sqrt(1.0 + alpha * power)
            grid = wavelength_window(centre, width, self.span_fwhm, self.grid_points)
            spectrum = [oracle.emission(system, drive(power), lam, self.n_max) for lam in grid]
            scan = SpectrumDataset(
                ScanKind.LASER_WAVELENGTH, grid, np.array(spectrum), "nm", "intensity"
            )
            fit = fit_lorentzian(scan)
            expected.append(fit.params["fwhm"] * SPEED_OF_LIGHT_NM_GHZ / fit.params["center"] ** 2)
        worst_lw = _worst_rel_err(fwhm_ghz[picks], expected)
        self.gate_metrics["check.linewidth_rel_err"] = worst_lw
        if worst_lw > LINEWIDTH_RTOL:
            return f"linewidths differ from fits of oracle spectra by {worst_lw:.2e}"

        change = oracle.truncation_change(system, drive(powers[-1]), centre_nm, self.n_max)
        return _cutoff_verdict(change, self.gate_metrics)


class StrongScan(Workload):
    """``scan`` of the seeded example system driven hard at the cavity (cutoff 13)."""

    def __init__(self, plan, workdir: Path) -> None:
        super().__init__(plan, workdir)
        cfg = self._config("strong.ini")
        self.n_max = int(cfg["numerics"]["fock_cutoff"])
        self.points = int(cfg["numerics"]["scan_points"])
        self.command = Command(
            argv=["scan", "--config", str(self.configs / "strong.ini")],
            writes=("strong_scan.csv",),
            check=self._check,
            points=self.points,
        )

    def cycle(self, index: int) -> list[Command]:
        return [self.command]

    def _check(self, report: dict[str, str]) -> str | None:
        if report.get("converged") != "True":
            return f"lorentzian fit converged = {report.get('converged')}"
        if report.get("points") != str(self.points):
            return f"{report.get('points')} points written, expected {self.points}"
        return None

    def gate(self) -> str | None:
        cfg = self._config("strong.ini")
        system, _ = _system(cfg["system"])
        drive = oracle.Drive("cavity", rabi_ghz=float(cfg["drive"]["rabi_ghz"]))
        _, grid, intensity = parse_csv(self.reference["strong_scan.csv"])
        peak = int(np.argmax(intensity))
        picks = self._sampled(grid.size, peak)
        expected = [oracle.emission(system, drive, float(grid[i]), self.n_max) for i in picks]
        worst = _worst_rel_err(intensity[picks], expected)
        self.gate_metrics["check.oracle_rel_err"] = worst
        if worst > POINT_RTOL:
            return f"spectrum differs from the oracle by {worst:.2e}"
        change = oracle.truncation_change(system, drive, float(grid[peak]), self.n_max)
        return _cutoff_verdict(change, self.gate_metrics)


class RoundTrip(Workload):
    """Closed-form series written by ``reproduce`` and fitted back by ``fit``."""

    block = 6  # fits rotate over 3 table1 and 2 table2 systems
    host_speed = True

    def __init__(self, plan, workdir: Path) -> None:
        super().__init__(plan, workdir)
        self.table1 = sorted(p.split("/")[1][:-4] for p in plan.configs if p.startswith("table1/"))
        self.table2 = sorted(p.split("/")[1][:-4] for p in plan.configs if p.startswith("table2/"))
        self.max_sigmas = 0.0
        self.reproduce = [
            Command(
                argv=["reproduce", "--table", "table1", "--config-dir", f"{self.configs}/table1"],
                writes=tuple(
                    f"table1_{label}_{kind}.csv"
                    for label in self.table1
                    for kind in ("saturation", "linewidths")
                ),
                check=self._check_table1,
            ),
            Command(
                argv=["reproduce", "--table", "table2", "--config-dir", f"{self.configs}/table2"],
                writes=tuple(f"table2_{label}_linewidths.csv" for label in self.table2),
                check=self._check_table2,
            ),
        ]

    def cycle(self, index: int) -> list[Command]:
        one = self.table1[index % len(self.table1)]
        two = self.table2[index % len(self.table2)]
        cfg1 = self._config(f"table1/{one}.ini")
        cfg2 = self._config(f"table2/{two}.ini")
        alpha = float(cfg1["drive"]["alpha_per_uw"])
        rep1, rep2 = cfg1["reproduce"], cfg2["reproduce"]
        return [
            *self.reproduce,
            Command(
                argv=["fit", "saturation", str(self.out / f"table1_{one}_saturation.csv")],
                check=self._fit_check(i_sat=rep1["i_sat_counts"], alpha_per_uw=alpha),
            ),
            Command(
                argv=[
                    "fit",
                    "power-broadening",
                    str(self.out / f"table1_{one}_linewidths.csv"),
                    "--alpha",
                    repr(alpha),
                ],
                check=self._fit_check(
                    delta_omega_c_ghz=rep1["delta_omega_c_ghz"],
                    delta_omega_0_ghz=rep1["delta_omega_0_ghz"],
                ),
            ),
            Command(
                argv=["fit", "linear", str(self.out / f"table2_{two}_linewidths.csv")],
                check=self._fit_check(
                    slope=rep2["excess_slope_ghz_per_uw"], intercept=rep2["intrinsic_fwhm_ghz"]
                ),
            ),
        ]

    def run_cycle(self, index: int) -> list[Outcome]:
        outcomes = super().run_cycle(index)
        if index == 0:
            for command in self.reproduce:
                command.points = sum(rows_of(self.reference[name]) for name in command.writes)
        return outcomes

    def _check_table1(self, report: dict[str, str]) -> str | None:
        for label in self.table1:
            if report.get(f"{label}.alpha_reliable") != "yes":
                return f"{label}: alpha unreliable"
            if f"{label}.delta_omega_0_fit_ghz" not in report:
                return f"{label}: no linewidth fit reported"
        return None

    def _check_table2(self, report: dict[str, str]) -> str | None:
        for label in self.table2:
            if f"{label}.excess_slope_fit_ghz_per_uw" not in report:
                return f"{label}: no excess slope reported"
        return None

    def _fit_check(self, **truth: float) -> Callable[[dict[str, str]], str | None]:
        def check(report: dict[str, str]) -> str | None:
            if report.get("converged") != "True":
                return f"fit converged = {report.get('converged')}"
            for name, true_value in truth.items():
                sigma = float(report[f"{name}_sigma"])
                if not sigma > 0.0:
                    return f"{name}: sigma {sigma}"
                distance = abs(float(report[name]) - float(true_value)) / sigma
                self.max_sigmas = max(self.max_sigmas, distance)
                if distance > FIT_SIGMAS:
                    return f"{name} = {report[name]} is {distance:.1f} sigma from {true_value}"
            return None

        return check

    def gate(self) -> str | None:
        self.gate_metrics["check.fit_max_sigmas"] = self.max_sigmas
        for name in sorted(self.reference):
            header, x, y = parse_csv(self.reference[name])
            dataset = read_csv(self.out / name)
            if header != dataset.header:
                return f"{name}: header {dataset.header!r} read as {header!r}"
            if x.tobytes() != dataset.x.tobytes() or y.tobytes() != dataset.y.tobytes():
                return f"{name}: values do not re-read bit-identically"
        return None


WORKLOADS = {"sweep-c3": PowerSweep, "scan-strong-c13": StrongScan, "roundtrip-fit": RoundTrip}


# ---------------------------------------------------------------------------
# measurement


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timed_pass(workload: Workload, seconds: float, outcomes: list[Outcome]) -> dict:
    """Untraced cycles for about ``seconds``: the end-to-end metrics except set-up.

    Stops before a cycle that would likely end past ``seconds``, after at least
    two.  Commands are timed in process CPU time (all threads): on a shared VM
    wall time also counts the time the host runs other guests.  On a workload
    with ``host_speed`` set, the reference kernel of ``calibrate`` runs after
    every cycle and the times are scaled to its nominal host speed; the raw
    figures go to a ``host_speed`` line before the result.
    ``points_per_cpu_s`` is the median over cycles of points per CPU second,
    so one stalled cycle moves it no more than ``cmd_p50_cpu_s``.
    """
    host = HostSpeed() if workload.host_speed else None
    if host is not None:
        host.sample()
    timed: list[Outcome] = []
    rates: list[float] = []
    index = 1
    start = time.perf_counter()
    elapsed = 0.0
    while len(rates) < 2 or elapsed * (len(rates) + 1) / len(rates) <= seconds:
        cycle = workload.run_cycle(index)
        cycle_cpu = sum(o.cpu for o in cycle)
        rates.append(sum(o.points for o in cycle) / cycle_cpu)
        timed.extend(cycle)
        if host is not None:
            host.sample(cycle_cpu)
        index += 1
        elapsed = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes.extend(timed)

    def cmd_quantiles(scale: float) -> tuple[float, float]:
        times = [o.cpu * scale for o in timed]
        return statistics.median(times), statistics.quantiles(times, n=10, method="inclusive")[8]

    scale = 1.0
    if host is not None:
        scale = host.scale()
        raw_p50, raw_p90 = cmd_quantiles(1.0)
        raw = {
            "reference_cpu_s": host.median_s(),
            "samples": len(host.samples),
            "scale": scale,
            "raw_cmd_p50_cpu_s": raw_p50,
            "raw_cmd_p90_cpu_s": raw_p90,
        }
        print(json.dumps({"host_speed": raw}))
    p50, p90 = cmd_quantiles(scale)
    return {
        "cmd_p50_cpu_s": metric(p50, "s"),
        "cmd_p90_cpu_s": metric(p90, "s"),
        "points_per_cpu_s": metric(statistics.median(rates) / scale, "1/s"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }


def cutoff_ladder() -> dict:
    """Per-stage medians on the example system with the laser at the dot resonance."""
    params = SystemParams.from_ghz_and_nm(**EXAMPLE_SYSTEM)
    drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=0.2, alpha=0.5)
    out = {}
    for n_max, reps in ((3, 40), (6, 20), (10, 7), (15, 5)):
        stages: dict[str, list[float]] = {
            "build_hamiltonian": [],
            "build_liouvillian": [],
            "steady_state": [],
            "validate_density_matrix": [],
        }
        for rep in range(reps + 1):
            t0 = time.perf_counter()
            ham = lindblad.build_hamiltonian(params, drive, n_max)
            t1 = time.perf_counter()
            liouvillian = lindblad.build_liouvillian(ham, params)
            t2 = time.perf_counter()
            state = lindblad.steady_state(liouvillian)
            t3 = time.perf_counter()
            hilbert.validate_density_matrix(state.rho)
            t4 = time.perf_counter()
            if rep:  # the first repetition warms caches
                for stage, seconds in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                    stages[stage].append(seconds)
        for stage, samples in stages.items():
            out[f"ladder.c{n_max}.{stage}_ms"] = metric(1e3 * statistics.median(samples), "ms")
    return out


LAYERS = (
    "config.parse_config",
    "cli.main",
    "scan.scan_laser",
    "scan.power_sweep",
    "lindblad.build_hamiltonian",
    "lindblad.build_liouvillian",
    "lindblad.steady_state",
    "hilbert.validate_density_matrix",
    "fit.fit_lorentzian",
    "fit.fit_saturation",
    "fit.fit_power_broadening",
    "fit.fit_linear",
    "reproduce.chained_linewidth_fit",
    "reproduce.synthesis",
    "dataset.write_csv",
    "dataset.read_csv",
)


def traced_pass(workload: Workload, seconds: float, outcomes: list[Outcome]) -> dict:
    """Pairs of untraced and traced blocks for ``seconds``: the per-layer metrics."""
    metrics = cutoff_ladder()
    tracer = Tracer()
    cpu = {False: 0.0, True: 0.0}
    wall_times: list[float] = []
    traced_ops = 0
    index = 1
    start = time.perf_counter()
    pair = 0
    while pair == 0 or (time.perf_counter() - start) * (pair + 1) / pair <= seconds:
        for traced in (pair % 2 == 0, pair % 2 == 1):
            if traced:
                tracer.install()
            try:
                block = [o for i in range(workload.block) for o in workload.run_cycle(index + i)]
            finally:
                tracer.uninstall()
            index += workload.block
            outcomes.extend(block)
            cpu[traced] += sum(o.cpu for o in block)
            if not traced:
                wall_times.extend(o.seconds for o in block)
            traced_ops += len(block) if traced else 0
        pair += 1

    totals = tracer.layer_totals()
    for layer in LAYERS:
        calls, self_s, _ = totals.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = metric(calls / traced_ops, "count/op")
        metrics[f"{layer}.self_s"] = metric(self_s / traced_ops, "s/op")
    calls, _, total_s = totals.get("lindblad.truncation_check", (0, 0.0, 0.0))
    metrics["lindblad.truncation_check.calls"] = metric(calls / traced_ops, "count/op")
    metrics["lindblad.truncation_check.total_s"] = metric(total_s / traced_ops, "s/op")
    counts = tracer.counts
    for name in ("dataset.write_csv.bytes", "dataset.read_csv.bytes"):
        metrics[name] = metric(counts[name] / traced_ops, "B/op")

    points = counts["scan.points_delivered"]
    solves = totals.get("lindblad.steady_state", (0,))[0]
    builds = counts["hilbert.lift_qd"] + counts["hilbert.lift_cavity"]
    mib, nnz_frac = tracer.liouvillian_footprint()
    fits = counts["fit.results"]
    metrics.update(
        {
            "scan.points_delivered": metric(points / traced_ops, "count/op"),
            "lindblad.solves_per_point": metric(solves / points if points else 0.0, "ratio"),
            "hilbert.operator_builds_per_solve": metric(
                builds / solves if solves else 0.0, "ratio"
            ),
            "lindblad.liouvillian_mib": metric(mib, "MiB"),
            "lindblad.liouvillian_nnz_frac": metric(nnz_frac, "ratio"),
            "fit.lm_iterations": metric(counts["fit.lm_iterations"] / traced_ops, "count/op"),
            "fit.converged_frac": metric(counts["fit.converged"] / fits if fits else 0.0, "ratio"),
            "trace.overhead_frac": metric(cpu[True] / cpu[False] - 1.0, "ratio"),
            "wall.cmd_p50_s": metric(statistics.median(wall_times), "s"),
        }
    )
    return metrics


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = {
            line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line
        }
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def environment(plan) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": plan.workers,
        "machine": platform.machine(),
    }


def settle(workload: Workload, outcomes: list[Outcome]) -> list[Outcome]:
    """Run the gate on the outputs every passing op wrote; a miss fails them all."""
    if all(o.failure is not None for o in outcomes):
        return outcomes
    verdict = workload.gate()
    if verdict is None:
        return outcomes
    workload.failures.append(f"gate: {verdict}")
    return [Outcome(o.seconds, o.cpu, 0, verdict) for o in outcomes]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    plan = make_plan(args.workload, args.seed)
    workload = WORKLOADS[args.workload](plan, args.workdir)
    print(json.dumps({"env": environment(plan)}))

    outcomes = workload.run_cycle(0)  # warm-up and first determinism pass
    run_pass = traced_pass if args.trace else timed_pass
    metrics = run_pass(workload, args.seconds, outcomes)
    outcomes = settle(workload, outcomes)
    failed = sum(o.failure is not None for o in outcomes)
    if args.trace:
        for name, value in workload.gate_metrics.items():
            metrics[name] = metric(value, "ratio")
    else:
        metrics["ok_ops_frac"] = metric((len(outcomes) - failed) / len(outcomes), "ratio")
    for line in workload.failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
