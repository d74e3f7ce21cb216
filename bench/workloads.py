"""Seeded inputs of the benchmark workloads.

Standard library only, so the parent process can write the configs before
the workload process (which imports numpy and the package) starts.  The same
seed always yields the same configs; the work size never depends on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The bundled ``configs/example.ini`` system.
EXAMPLE_SYSTEM = {
    "qd_wavelength_nm": 931.0,
    "cavity_wavelength_nm": 930.8,
    "g_ghz": 10.0,
    "kappa_ghz": 20.0,
    "gamma_ghz": 0.5,
    "gamma_d_ghz": 1.5,
}

#: Systems and synthesis targets of ``configs/table1`` and ``configs/table2``.
TABLE1 = {
    "S1": ((934.15, 934.8, 31.87, 0.1, 0.88), (12.6, 1.96, 1.3)),
    "S2": ((932.3, 931.9, 28.14, 0.1, 4.8), (9.9, 9.8, 2.34)),
    "S3": ((933.15, 931.2, 39.87, 0.1, 2.8), (15.0, 5.8, 0.28)),
}
TABLE2 = {
    "S2": ((932.3, 931.9, 17.8, 0.1), (35.6, 0.5)),
    "S4": ((931.9, 931.2, 25.15, 0.1), (50.3, 0.8)),
}

WORKLOADS = ("sweep-c3", "scan-strong-c13", "roundtrip-fit")


@dataclass(frozen=True)
class Plan:
    """Configs of one workload: ``configs`` maps a relative path to INI sections."""

    name: str
    seed: int
    workers: int
    configs: dict[str, dict[str, dict[str, object]]]

    def ini(self, relpath: str) -> str:
        lines = []
        for section, keys in self.configs[relpath].items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
            lines.append("")
        return "\n".join(lines)


def _jitter(rng: random.Random, value: float, frac: float) -> float:
    """``value`` scaled by a uniform factor in ``[1 - frac, 1 + frac]``, 6 digits."""
    return float(f"{value * (1.0 + frac * (2.0 * rng.random() - 1.0)):.6g}")


def _example_system(rng: random.Random, kappa_frac: float) -> dict[str, float]:
    """Example system with rates and detuning within +-10 % (kappa within ``kappa_frac``)."""
    base = EXAMPLE_SYSTEM
    detuning = _jitter(rng, base["qd_wavelength_nm"] - base["cavity_wavelength_nm"], 0.10)
    return {
        "qd_wavelength_nm": round(base["cavity_wavelength_nm"] + detuning, 6),
        "cavity_wavelength_nm": base["cavity_wavelength_nm"],
        "g_ghz": _jitter(rng, base["g_ghz"], 0.10),
        "kappa_ghz": _jitter(rng, base["kappa_ghz"], kappa_frac),
        "gamma_ghz": _jitter(rng, base["gamma_ghz"], 0.10),
        "gamma_d_ghz": _jitter(rng, base["gamma_d_ghz"], 0.10),
    }


def _sweep(rng: random.Random) -> tuple[int, dict]:
    config = {
        "system": _example_system(rng, 0.10),
        "drive": {
            "target": "qd",
            "alpha_per_uw": _jitter(rng, 0.5, 0.10),
            "power_uw": 0.2,
            "power_min_uw": 0.05,
            "power_max_uw": 8.0,
            "power_points": 12,
            "power_scale": "log",
        },
        "numerics": {
            "fock_cutoff": 3,
            "scan_points": 201,
            "scan_span_fwhm": 6.0,
            "seed": rng.randrange(1, 2**31),
            "workers": 2,
        },
        "output": {"stem": "sweep"},
    }
    return 2, {"sweep.ini": config}


def _scan_strong(rng: random.Random) -> tuple[int, dict]:
    # Cutoff 13 converges at nominal kappa with the change at 0.22 of the
    # 1e-8 criterion; the margin shrinks steeply as kappa falls, so kappa
    # moves by at most 3 %.
    config = {
        "system": _example_system(rng, 0.03),
        "drive": {"target": "cavity", "rabi_ghz": 40.0},
        "numerics": {
            "fock_cutoff": 13,
            "scan_points": 61,
            "scan_span_fwhm": 6.0,
            "seed": rng.randrange(1, 2**31),
            "workers": 1,
        },
        "output": {"stem": "strong"},
    }
    return 1, {"strong.ini": config}


def _roundtrip(rng: random.Random) -> tuple[int, dict]:
    configs = {}
    for label, ((qd_nm, cav_nm, g, gamma, gamma_d), (dwc, dw0, ref)) in TABLE1.items():
        coupling = _jitter(rng, g, 0.10)
        configs[f"table1/{label}.ini"] = {
            "system": {
                "qd_wavelength_nm": qd_nm,
                "cavity_wavelength_nm": cav_nm,
                "g_ghz": coupling,
                "kappa_ghz": coupling,
                "gamma_ghz": gamma,
                "gamma_d_ghz": _jitter(rng, gamma_d, 0.10),
            },
            "drive": {"target": "qd", "alpha_per_uw": _jitter(rng, 2.0, 0.10)},
            "numerics": {"seed": rng.randrange(1, 2**31), "noise_relative": 0.03},
            "output": {"stem": f"table1_{label.lower()}"},
            "reproduce": {
                "label": label,
                "delta_omega_c_ghz": _jitter(rng, dwc, 0.10),
                "delta_omega_0_ghz": _jitter(rng, dw0, 0.10),
                "reference_theory_ghz": ref,
                "i_sat_counts": _jitter(rng, 1000.0, 0.10),
            },
        }
    for label, ((qd_nm, cav_nm, g, gamma), (intrinsic, slope)) in TABLE2.items():
        coupling = _jitter(rng, g, 0.10)
        configs[f"table2/{label}.ini"] = {
            "system": {
                "qd_wavelength_nm": qd_nm,
                "cavity_wavelength_nm": cav_nm,
                "g_ghz": coupling,
                "kappa_ghz": coupling,
                "gamma_ghz": gamma,
                "gamma_d_ghz": 0.0,
            },
            "drive": {
                "target": "cavity",
                "alpha_per_uw": _jitter(rng, 2.0, 0.10),
                "power_min_uw": 0.5,
                "power_max_uw": 25.0,
                "power_points": 40,
                "power_scale": "linear",
            },
            "numerics": {"seed": rng.randrange(1, 2**31), "noise_relative": 0.01},
            "output": {"stem": f"table2_{label.lower()}"},
            "reproduce": {
                "label": label,
                "intrinsic_fwhm_ghz": _jitter(rng, intrinsic, 0.10),
                "excess_slope_ghz_per_uw": _jitter(rng, slope, 0.10),
            },
        }
    return 1, configs


_BUILDERS = {"sweep-c3": _sweep, "scan-strong-c13": _scan_strong, "roundtrip-fit": _roundtrip}


def make_plan(name: str, seed: int) -> Plan:
    # String seeds hash deterministically (unlike tuples under PYTHONHASHSEED).
    workers, configs = _BUILDERS[name](random.Random(f"{name}:{seed}"))
    return Plan(name=name, seed=seed, workers=workers, configs=configs)
