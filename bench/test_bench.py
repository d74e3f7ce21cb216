"""Tests of the benchmark's oracle, gates, inputs and tracer.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import numpy as np
import pytest

import calibrate
import oracle
import spans
import worker
from workloads import EXAMPLE_SYSTEM, WORKLOADS, make_plan

from cqed_scope import lindblad
from cqed_scope.model import DriveSpec, DriveTarget, SystemParams, wavelength_to_angular_frequency

SYSTEM = oracle.System(**EXAMPLE_SYSTEM)
PARAMS = SystemParams.from_ghz_and_nm(**EXAMPLE_SYSTEM)


def _perturb_csv(data: bytes, row: int, factor: float) -> bytes:
    lines = data.decode().splitlines()
    x, y = lines[row + 1].split(",")
    lines[row + 1] = f"{x},{float(y) * factor:.17g}"
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("CQED_SCOPE_OUT", str(out))
    return out


def _materialise(plan, tmp_path):
    for relpath in plan.configs:
        path = tmp_path / "configs" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(plan.ini(relpath), encoding="utf-8")


@pytest.mark.parametrize("laser_nm", [930.75, 930.8, 931.0])
@pytest.mark.parametrize("target", ["qd", "cavity"])
def test_oracle_matches_package(laser_nm, target):
    drive = oracle.Drive(target, alpha_per_uw=0.5, power_uw=2.0)
    spec = DriveSpec(
        target=DriveTarget(target),
        omega_l=wavelength_to_angular_frequency(laser_nm),
        power=2.0,
        alpha=0.5,
    )
    ham = lindblad.build_hamiltonian(PARAMS, spec, 3)
    state = lindblad.steady_state(lindblad.build_liouvillian(ham, PARAMS))
    expected = 2.0 * PARAMS.kappa * float(state.observables["n_cavity"])
    got = oracle.emission(SYSTEM, drive, laser_nm, 3)
    assert got == pytest.approx(expected, rel=worker.POINT_RTOL)


def test_adequacy_flags_cavity_target_at_cutoff_3():
    drive = oracle.Drive("cavity", alpha_per_uw=0.5, power_uw=8.0)
    change = oracle.truncation_change(SYSTEM, drive, 930.8, 3)
    assert 1e-7 < change < 1e-6
    metrics = {}
    assert "not converged" in worker._cutoff_verdict(change, metrics)
    assert metrics["check.cutoff_margin"] > 1.0


def _weak_scan(tmp_path):
    plan = make_plan("scan-strong-c13", 5)
    cfg = plan.configs["strong.ini"]
    cfg["numerics"]["fock_cutoff"] = 3
    cfg["drive"]["rabi_ghz"] = 1.0
    _materialise(plan, tmp_path)
    return worker.StrongScan(plan, tmp_path)


def test_scan_gate_fails_every_op_on_a_perturbed_spectrum(tmp_path, out_dir):
    scan = _weak_scan(tmp_path)
    outcomes = scan.run_cycle(0) + scan.run_cycle(1)
    assert all(o.failure is None for o in outcomes)
    assert worker.settle(scan, outcomes) == outcomes

    _, _, intensity = worker.parse_csv(scan.reference["strong_scan.csv"])
    peak = int(np.argmax(intensity))
    clean = scan.reference["strong_scan.csv"]
    scan.reference["strong_scan.csv"] = _perturb_csv(clean, peak, 1 + 1e-8)
    settled = worker.settle(scan, outcomes)
    assert all("oracle" in o.failure for o in settled)
    assert scan.gate_metrics["check.oracle_rel_err"] > worker.POINT_RTOL


def test_sweep_gate_catches_perturbed_linewidth(tmp_path, out_dir):
    plan = make_plan("sweep-c3", 5)
    plan.configs["sweep.ini"]["drive"]["power_points"] = 5
    _materialise(plan, tmp_path)
    sweep = worker.PowerSweep(plan, tmp_path)
    assert sweep.run_cycle(0)[0].failure is None
    assert sweep.gate() is None
    assert sweep.gate_metrics["check.cutoff_margin"] < 1.0

    clean = sweep.reference["sweep_linewidths.csv"]
    sweep.reference["sweep_linewidths.csv"] = _perturb_csv(clean, 0, 1 + 1e-5)
    assert "linewidths differ" in sweep.gate()


def test_changed_bytes_fail_the_op(tmp_path, out_dir):
    scan = _weak_scan(tmp_path)
    assert scan.run_cycle(0)[0].failure is None
    scan.reference["strong_scan.csv"] += b"\n"
    assert "differs from the first pass" in scan.run_cycle(1)[0].failure


def test_roundtrip_checks_fits_and_rereads(tmp_path, out_dir):
    plan = make_plan("roundtrip-fit", 5)
    _materialise(plan, tmp_path)
    trip = worker.RoundTrip(plan, tmp_path)
    outcomes = [o for i in range(trip.block) for o in trip.run_cycle(i)]
    assert all(o.failure is None for o in outcomes)
    assert trip.gate() is None
    assert 0.0 < trip.max_sigmas < worker.FIT_SIGMAS

    report = {"converged": "True", "slope": "1.0", "slope_sigma": "0.01"}
    assert trip._fit_check(slope=1.02)(report) is None
    assert "sigma" in trip._fit_check(slope=1.06)(report)

    name = sorted(trip.reference)[0]
    (out_dir / name).write_bytes(_perturb_csv(trip.reference[name], 3, 1 + 1e-15))
    assert "bit-identically" in trip.gate()


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_follow_the_seed_and_keep_the_work_size(name):
    one, same, other = make_plan(name, 1), make_plan(name, 1), make_plan(name, 2)
    assert [one.ini(p) for p in one.configs] == [same.ini(p) for p in same.configs]
    assert [one.ini(p) for p in one.configs] != [other.ini(p) for p in other.configs]
    for relpath, config in one.configs.items():
        twin = other.configs[relpath]
        for section, key in (("numerics", "fock_cutoff"), ("numerics", "scan_points"),
                             ("drive", "power_points")):
            assert config.get(section, {}).get(key) == twin.get(section, {}).get(key)
    assert one.workers == other.workers


def test_self_time_subtracts_the_union_of_children():
    assert spans._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 9.0)], 0.0, 8.0) == 5.0
    assert spans._covered([], 0.0, 1.0) == 0.0


def test_tracer_sees_calls_made_inside_the_package_and_uninstalls():
    from cqed_scope import hilbert, scan

    original = lindblad.steady_state
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert scan.steady_state is lindblad.steady_state is not original
        assert hilbert.validate_density_matrix is lindblad.validate_density_matrix
        spec = DriveSpec(target=DriveTarget.QD, omega_l=PARAMS.omega_d, power=0.2, alpha=0.5)
        lindblad.truncation_check(PARAMS, spec, 3)
    finally:
        tracer.uninstall()
    assert scan.steady_state is original is lindblad.steady_state
    totals = tracer.layer_totals()
    assert totals["lindblad.steady_state"][0] == 2
    assert totals["hilbert.validate_density_matrix"][0] == 2
    calls, self_s, total_s = totals["lindblad.truncation_check"]
    assert calls == 1 and 0.0 <= self_s < total_s
    assert tracer.counts["hilbert.lift_qd"] + tracer.counts["hilbert.lift_cavity"] == 12


def test_host_speed_scales_to_the_nominal_kernel_time():
    host = calibrate.HostSpeed()
    host.sample()
    assert len(host.samples) == 1  # at least one run, even after no work
    host.samples = [2.0 * calibrate.NOMINAL_S] * 3
    assert host.scale() == pytest.approx(0.5)
    host.sample(after_cpu_s=20.0 * calibrate.NOMINAL_S / calibrate.SHARE)
    assert len(host.samples) > 4  # keeps running for its share of the commands' time
