"""The benchmark workloads: inputs from a seed, set-up, solve and checks.

Each workload is built from a case file under ``cases/``.  Seed 0 uses the
file unchanged; any other seed rotates the phases of the driving harmonics
(inflow waveform or pressure gradient) and keeps their amplitudes, so the
work per solve stays comparable between seeds.

``text`` is the workload's input file after seeding; ``setup`` covers
config parse, mesh generation, ``mesh.element_data()`` and
the case and boundary-data build; ``solve`` runs from those inputs to the
checked result and is what ``solve_s`` times.  A workload whose program
builds its own inputs (``setup_in_solve``) uses ``setup`` only as an untimed
warm-up, and its set-up time is taken from the build calls inside ``solve``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import tsfem.cli as cli
import tsfem.navier_stokes as navier_stokes
from tsfem.config import CaseConfig, build_case, build_mesh, build_solver_config, parse_config
from tsfem.spectral import check_conjugate_symmetry, evaluate_field_in_time
from tsfem.verification import l2_error, oscillatory_channel_exact

CASES = Path(__file__).resolve().parent / "cases"

# bent_n7 outward inlet plus outlet flow, relative to the inlet flow: 2e-4
# to 6e-4 over seeds 0-5, and far larger when continuity is not solved.
FLOW_BALANCE_LIMIT = 1e-2
CONJUGATE_SYMMETRY_LIMIT = 1e-10
WOMERSLEY_MODE_LIMIT = 0.01        # the criterion-06 tolerance


def rotate_sample_phases(samples, seed: int) -> list:
    """Uniform periodic samples with each harmonic's phase rotated at random."""
    samples = np.asarray(samples, dtype=float)
    if seed == 0:
        return [float(v) for v in samples]
    spec = np.fft.rfft(samples)
    top = spec.size - (1 if samples.size % 2 == 0 else 0)  # Nyquist stays real
    phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, top - 1)
    spec[1:top] *= np.exp(1j * phases)
    return [float(v) for v in np.fft.irfft(spec, samples.size)]


def rotate_mode_phases(rows, seed: int) -> list:
    """[re, im] mode rows 0..N-1 with the phases of modes 1..N-1 rotated."""
    modes = np.array([complex(*row) for row in rows])
    if seed:
        phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, modes.size - 1)
        modes[1:] *= np.exp(1j * phases)
    return [[float(v.real), float(v.imag)] for v in modes]


@dataclass
class Outcome:
    """Operations attempted and failed in one solve, and its accuracy."""

    error_rel: float = float("nan")
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)

    def check(self, name: str, passed: bool, value=None) -> None:
        self.attempted += 1
        self.failed += not passed
        self.checks.append({"name": name, "passed": bool(passed), "value": value})


def _max_symmetry_defect(values: np.ndarray) -> float:
    rows = values.reshape(-1, values.shape[-1])
    return max(check_conjugate_symmetry(row) for row in rows)


def relative_divergence(velocity: np.ndarray, mesh) -> float:
    """||div u|| / ||grad u|| in L2 over the domain and all modes (P1 elements)."""
    ed = mesh.element_data()
    grad = np.einsum("eaj,eaim->ejim", ed.grads, velocity[mesh.elements])
    div = np.einsum("eiim->em", grad)
    return float(np.sqrt(np.einsum("e,em->", ed.detj, np.abs(div) ** 2)
                         / np.einsum("e,ejim->", ed.detj, np.abs(grad) ** 2)))


def _case_inputs(config):
    mesh = build_mesh(config.mesh)
    mesh.element_data()
    case, _ = build_case(config, mesh)
    return case, mesh, build_solver_config(config.solver)


class BentN7:
    """Spectral NS at N=7 on the bent channel: tau and assembly dominate."""

    setup_in_solve = False

    def __init__(self, seed: int, out_dir: Path):
        raw = yaml.safe_load((CASES / "bent_channel.yaml").read_text())
        inlet = raw["bcs"]["inlet"]
        inlet["flow_samples"] = rotate_sample_phases(inlet["flow_samples"], seed)
        self.text = yaml.safe_dump(raw)

    def setup(self):
        return _case_inputs(parse_config(self.text))

    def solve(self, inputs, recorder) -> Outcome:
        case, mesh, solver = inputs
        result = navier_stokes.solve_ns(case, mesh, solver)
        out = Outcome()
        out.check("converged", result.converged)
        defect = max(_max_symmetry_defect(result.state.velocity),
                     _max_symmetry_defect(result.state.pressure))
        out.check("conjugate_symmetry", defect <= CONJUGATE_SYMMETRY_LIMIT, defect)
        report = navier_stokes.flow_report(result.state, mesh, ["xmin", "xmax"])
        q_in = report["xmin"].flow.values
        imbalance = float(np.linalg.norm(q_in + report["xmax"].flow.values)
                          / np.linalg.norm(q_in))
        out.check("flow_balance", imbalance <= FLOW_BALANCE_LIMIT, imbalance)
        # the discrete mass-conservation error; unlike the flow imbalance it
        # does not swing with where the pseudo-time iteration stops
        out.error_rel = relative_divergence(result.state.velocity, mesh)
        return out


class WomersleyW10:
    """Oscillatory channel at W=10 by plain Newton: the linear solve dominates."""

    setup_in_solve = False

    def __init__(self, seed: int, out_dir: Path):
        raw = yaml.safe_load((CASES / "womersley_w10.yaml").read_text())
        inlet = raw["bcs"]["inlet"]
        inlet["h_modes"] = rotate_mode_phases(inlet["h_modes"], seed)
        self.text = yaml.safe_dump(raw)
        length, width = raw["mesh"]["extents"]
        phys = raw["physics"]
        self.half_width = width / 2
        self.exact = oscillatory_channel_exact(
            [complex(*row) / length for row in inlet["h_modes"]], phys["rho"],
            phys["mu"], self.half_width, phys["n_modes"], phys["omega"])

    def setup(self):
        return _case_inputs(parse_config(self.text))

    def solve(self, inputs, recorder) -> Outcome:
        case, mesh, solver = inputs
        result = navier_stokes.solve_ns(case, mesh, solver)
        out = Outcome()
        out.check("converged", result.converged)
        n = case.n_modes
        ux, uy = result.state.velocity[:, 0, :], result.state.velocity[:, 1, :]

        def exact(points, keep=None):
            vals = self.exact(points[:, 1] - self.half_width)
            if keep is not None:
                vals = np.where(keep, vals, 0.0)
            return vals

        zero = np.zeros_like(ux)
        for mode in range(n):
            keep = np.zeros(ux.shape[1], dtype=bool)
            keep[[n - 1 + mode, n - 1 - mode]] = True
            err = l2_error(np.where(keep, ux, 0.0), lambda p: exact(p, keep), mesh)
            ref = l2_error(zero, lambda p: exact(p, keep), mesh)
            out.check(f"mode_{mode}_l2", err <= WOMERSLEY_MODE_LIMIT * ref, err / ref)
        err = np.hypot(l2_error(ux, exact, mesh), l2_error(uy, lambda p: 0.0 * exact(p), mesh))
        out.error_rel = float(err / l2_error(zero, exact, mesh))
        return out


class SweepBent:
    """``tsfem sweep`` of the spectral-versus-time study on the bent channel.

    ``cli.mode_sweep`` and ``cli.run_case`` parse the study and build their
    meshes and cases themselves, so the set-up is timed inside the sweep:
    the time in ``build_mesh`` (which computes element data),
    ``build_case``, ``build_solver_config`` and ``parabolic_inflow``.
    ``setup`` runs only once, untimed, before the first sweep, so that the
    first sweep's set-up is not the only one to pay for first calls.
    """

    setup_in_solve = True

    def __init__(self, seed: int, out_dir: Path):
        raw = yaml.safe_load((CASES / "mode_sweep_bent.yaml").read_text())
        inlet = raw["study"]["case"]["bcs"]["inlet"]
        inlet["flow_samples"] = rotate_sample_phases(inlet["flow_samples"], seed)
        self.omega = float(raw["study"]["case"]["physics"]["omega"])
        self.out_dir = out_dir
        self.study_path = out_dir / "study.yaml"
        self.text = yaml.safe_dump(raw)
        self.study_path.write_text(self.text)

    def setup(self):
        study = yaml.safe_load(self.study_path.read_text())["study"]
        _case_inputs(CaseConfig(**study["case"]))

    def solve(self, inputs, recorder) -> Outcome:
        out = Outcome()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", str(self.study_path),
                             "--output-dir", str(self.out_dir / "sweep")])
        out.check("exit_code", code == 0, code)
        table = yaml.safe_load((self.out_dir / "sweep" / "sweep.yaml").read_text())
        for row in table["rows"]:
            out.check(f"n{row['n_modes']}_converged", row["converged"])
        counts = recorder.counts
        steps = counts["time_domain.step.calls"]
        out.attempted += steps
        out.failed += counts["time_domain.newton_unconverged"]

        # field-level difference of the finest spectral solve from the time
        # reference over its last cycle; outlet flow cannot show it, because
        # continuity makes outlet flow equal the prescribed inflow
        n_top = max(recorder.captured["ns"])
        spectral = recorder.captured["ns"][n_top].state.velocity
        reference = recorder.captured["time"]
        num = den = 0.0
        for t, state in zip(reference.last_cycle_times, reference.last_cycle_states):
            num += np.sum((evaluate_field_in_time(spectral, t, self.omega) - state.velocity) ** 2)
            den += np.sum(state.velocity ** 2)
        out.error_rel = float(np.sqrt(num / den))
        trunc = next(r["truncation"] for r in table["rows"] if r["n_modes"] == n_top)
        out.check("field_error_within_2x_truncation", out.error_rel <= 2 * trunc,
                  out.error_rel)
        return out


WORKLOADS = {"bent_n7": BentN7, "womersley_w10": WomersleyW10, "sweep_bent": SweepBent}
