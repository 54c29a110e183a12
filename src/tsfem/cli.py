"""Configuration-driven batch runner and study orchestration.

Verbs:
  run CONFIG              solve one case, write summary/traces/fields
  sweep STUDY             mode sweeps against the time reference, h sweeps
  mesh-gen CONFIG         generate a mesh file (and optional VTK preview)
  validate-config CONFIG  report every validation problem of a case file or of a
                          study's case block, exit nonzero on any

All solves are serial and deterministic (no option selects otherwise);
rerunning a config reproduces its CSV outputs byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from .config import (
    CaseConfig,
    ConfigError,
    build_case,
    build_mesh,
    build_solver_config,
    config_from_mapping,
    load_config,
    mode_table,
)
from .io import export_fields, export_mesh_vtk, export_traces
from .linsolve import SolverConfig
from .mesh import save_mesh
from .navier_stokes import NSCase, flow_report, parabolic_inflow, solve_ns
from .scalar import solve_scalar
from .spectral import (
    SpectralCoeffs,
    evaluate_field_in_time,
    fourier_coefficients,
    n_coeffs,
)
from .time_domain import TimeCase, run_time_simulation
from .verification import diagnostics, refinement_report

__all__ = ["RunSummary", "run_case", "run", "sweep", "main"]


@dataclass
class RunSummary:
    """What summary.yaml records of one run.

    For flow cases, residuals holds the residual norm before each Newton
    step, and pseudo_dts, linear_iters and linear_residuals the pseudo step,
    GMRES matvecs and relative linear residual reached of each update, and
    assembly_s and linear_s its seconds in assembly and in the linear solve;
    linear_unconverged counts the updates GMRES left above eps_ls.
    """

    kind: str
    converged: bool
    steps: int
    residuals: List[float]
    wall_time: float
    alpha: float
    beta: float
    flows: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    truncation: Dict[str, float] = field(default_factory=dict)
    field_range: Optional[List[float]] = None
    outputs: List[str] = field(default_factory=list)
    pseudo_dts: List[float] = field(default_factory=list)
    linear_iters: List[int] = field(default_factory=list)
    linear_unconverged: int = 0
    linear_residuals: List[float] = field(default_factory=list)
    assembly_s: List[float] = field(default_factory=list)
    linear_s: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "converged": bool(self.converged),
            "steps": int(self.steps),
            "residuals": [float(r) for r in self.residuals],
            "pseudo_dts": [float(dt) for dt in self.pseudo_dts],
            "linear_iters": [int(n) for n in self.linear_iters],
            "linear_residuals": [float(r) for r in self.linear_residuals],
            "linear_unconverged": int(self.linear_unconverged),
            "assembly_s": [float(t) for t in self.assembly_s],
            "linear_s": [float(t) for t in self.linear_s],
            "wall_time": float(self.wall_time),
            "alpha": float(self.alpha), "beta": float(self.beta),
            "flows": self.flows, "truncation": self.truncation,
            "field_range": self.field_range, "outputs": self.outputs,
        }

    def step_table(self) -> str:
        """One line per Newton step: residual, pseudo_dt, GMRES matvecs, the
        relative linear residual GMRES reached, and the seconds in assembly
        and in the linear solve.

        The last step of a converged run made no update and shows "-".
        """
        lines = [f"{'step':>4}  {'residual':>10}  {'pseudo_dt':>10}  {'matvecs':>7}  "
                 f"{'linear_res':>10}  {'assembly_s':>10}  {'linear_s':>9}"]
        for k, r in enumerate(self.residuals):
            if k < len(self.pseudo_dts):
                lines.append(f"{k:>4}  {r:>10.3e}  {self.pseudo_dts[k]:>10.3e}  "
                             f"{self.linear_iters[k]:>7d}  {self.linear_residuals[k]:>10.3e}  "
                             f"{self.assembly_s[k]:>10.4f}  {self.linear_s[k]:>9.4f}")
            else:
                lines.append(f"{k:>4}  {r:>10.3e}  {'-':>10}  {'-':>7}  {'-':>10}  "
                             f"{'-':>10}  {'-':>9}")
        return "\n".join(lines)


def _modes_as_rows(values: np.ndarray) -> List[List[float]]:
    n = (values.shape[-1] + 1) // 2
    pos = values[n - 1:]
    return [[float(v.real), float(v.imag)] for v in pos]


def _trace_times(omega: float, samples: int) -> np.ndarray:
    if omega <= 0.0:
        return np.array([0.0])
    period = 2 * np.pi / omega
    return period * np.arange(samples) / samples


def run_case(config: CaseConfig, out_dir) -> RunSummary:
    """Solve one configured case and write its artifacts.

    The output directory receives summary.yaml, traces.csv for flow cases,
    and VTK field snapshots when output.fields_t_samples is given.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError([f"output directory {out_dir} is not writable: {err}"])
    if not out_dir.is_dir():
        raise ConfigError([f"output directory {out_dir} is not a directory"])
    t0 = time.perf_counter()
    mesh = build_mesh(config.mesh)
    case, info = build_case(config, mesh)
    solver_config = build_solver_config(config.solver)
    omega = float(config.physics["omega"])
    trace_samples = int(config.output.get("trace_samples", 128))
    outputs: List[str] = []

    if isinstance(case, NSCase):
        result = solve_ns(case, mesh, solver_config)
        diag = diagnostics(case, mesh, velocity=result.state.velocity)
        groups = (list(case.neumann) + list(case.dirichlet))
        report = flow_report(result.state, mesh, groups)
        flows = {g: {"area": d.area,
                     "flow_modes": _modes_as_rows(d.flow.values),
                     "pressure_modes": _modes_as_rows(d.pressure.values)}
                 for g, d in report.items()}
        times = _trace_times(omega, trace_samples)
        columns: Dict[str, np.ndarray] = {}
        for g, d in report.items():
            columns[f"Q_{g}"] = np.array(
                [evaluate_field_in_time(d.flow.values, t, omega) for t in times])
            columns[f"P_{g}"] = np.array(
                [evaluate_field_in_time(d.pressure.values, t, omega) for t in times])
        trace_path = export_traces(times, columns, out_dir / "traces.csv")
        outputs.append(str(trace_path))
        t_samples = config.output.get("fields_t_samples")
        if t_samples:
            paths = export_fields(mesh, t_samples, omega, out_dir,
                                  velocity=result.state.velocity,
                                  pressure=result.state.pressure)
            outputs.extend(str(p) for p in paths)
        summary = RunSummary("ns", result.converged, result.steps,
                             result.residuals, time.perf_counter() - t0,
                             diag.alpha, diag.beta, flows,
                             info.get("truncation", {}), None, outputs,
                             result.pseudo_dts, result.linear_iters,
                             result.linear_unconverged, result.linear_residuals,
                             result.assembly_s, result.linear_s)
    else:
        sol = solve_scalar(case, mesh, solver_config)
        diag = diagnostics(case, mesh)
        times = _trace_times(omega, trace_samples)
        recon = np.stack([evaluate_field_in_time(sol, t, omega) for t in times])
        t_samples = config.output.get("fields_t_samples")
        if t_samples:
            paths = export_fields(mesh, t_samples, omega, out_dir, scalar=sol)
            outputs.extend(str(p) for p in paths)
        summary = RunSummary("scalar", True, 1, [], time.perf_counter() - t0,
                             diag.alpha, diag.beta, {},
                             info.get("truncation", {}),
                             [float(recon.min()), float(recon.max())], outputs)

    with open(out_dir / "summary.yaml", "w") as fh:
        yaml.safe_dump(summary.to_dict(), fh, sort_keys=True)
    summary.outputs.append(str(out_dir / "summary.yaml"))
    return summary


def run(config_path, out_dir=None) -> RunSummary:
    config = load_config(config_path)
    if out_dir is None:
        out_dir = config.output.get("directory", Path(config_path).stem + "_out")
    return run_case(config, out_dir)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _waveform_from_samples(samples: np.ndarray, period: float, n_fit: int):
    """Trigonometric interpolant of uniform periodic samples."""
    coeffs = fourier_coefficients(samples, n_fit)
    omega = 2 * np.pi / period

    def waveform(t):
        return evaluate_field_in_time(coeffs.values, float(t), omega)

    return waveform


# the keys the studies read; any other key is a typo
_STUDY_KEYS = {"kind", "modes", "resolutions", "case", "reference", "directory"}
_REFERENCE_KEYS = {"group", "dt_per_cycle", "n_cycles", "ramp_steps", "n_fit"}
# the list each study kind sweeps over
_STUDY_LISTS = {"mode_sweep": "modes", "h_sweep": "resolutions"}


def _study_case(study: Dict[str, Any], kind: str | None = None) -> CaseConfig:
    """A study's case block, validated as a case file is, after the study's own keys.

    kind is the study kind to check against, study.kind when None: a
    mode_sweep needs modes and reference.group, an h_sweep resolutions,
    each list with at least two integers >= 1.
    """
    reference = study.get("reference", {})
    if not isinstance(reference, dict):
        raise ConfigError(["study.reference must be a mapping"])
    errors = [f"unknown key {section}.{key}; known keys: {sorted(known)}"
              for section, block, known in (("study", study, _STUDY_KEYS),
                                            ("study.reference", reference, _REFERENCE_KEYS))
              for key in sorted(set(block) - known, key=str)]
    errors += [] if "case" in study else ["study.case is required"]
    kind = study.get("kind") if kind is None else kind
    if kind not in _STUDY_LISTS:
        errors.append(f"study.kind must be one of {sorted(_STUDY_LISTS)} (got {kind!r})")
    else:
        key = _STUDY_LISTS[kind]
        values = study.get(key)
        if not (isinstance(values, list) and len(values) >= 2
                and all(type(v) is int and v >= 1 for v in values)):
            errors.append(f"study.{key} needs a list of at least two integers >= 1 "
                          f"(got {values!r})")
    if kind == "mode_sweep" and "group" not in reference:
        errors.append("study.reference.group is required")
    if errors:
        raise ConfigError(errors)
    config = config_from_mapping(study["case"])
    if kind == "mode_sweep" and _sampled_inflow(config) is None:
        raise ConfigError(["mode_sweep needs a parabolic_inflow bc with flow_samples"])
    return config


def _sampled_inflow(config: CaseConfig) -> str | None:
    """Name of the last parabolic_inflow bc given by flow_samples, None if there is none."""
    names = [name for name, bc in config.bcs.items()
             if bc.get("kind") == "parabolic_inflow" and "flow_samples" in bc]
    return names[-1] if names else None


def _time_reference_case(base: CaseConfig, ref_block: Dict[str, Any]):
    """The time-domain counterpart of a mode-sweep case; returns (case, mesh, inflow bc name).

    The inflow's flow_samples (base must have such a bc, as _study_case
    checks) drive the same unit-flux parabolic profile through their
    trigonometric interpolant; walls and traction-free outlets carry over;
    dt_per_cycle and n_cycles come from ref_block.
    """
    inflow_name = _sampled_inflow(base)
    samples = np.asarray(base.bcs[inflow_name]["flow_samples"], dtype=float)

    mesh = build_mesh(base.mesh)
    phys = base.physics
    period = 2 * np.pi / float(phys["omega"])
    n_fit = int(ref_block.get("n_fit", min(16, (samples.size + 2) // 4)))
    waveform = _waveform_from_samples(samples, period, n_fit)

    # unit-flux inflow profile shared by both formulations
    unit = parabolic_inflow(mesh, base.bcs[inflow_name]["group"],
                            SpectralCoeffs(1, np.array([1.0], dtype=complex)))
    profile = unit.values[:, :, 0].real

    def time_inflow(coords, t):
        del coords
        return profile * waveform(t)

    walls = []
    neumann_time = {}
    for name, bc in base.bcs.items():
        if bc.get("kind") == "noslip":
            walls.extend(bc.get("groups", [bc.get("group")]))
        if bc.get("kind") == "neumann":
            for g in ([bc["group"]] if "group" in bc else bc["groups"]):
                neumann_time[g] = lambda t: 0.0

    steps = int(ref_block.get("dt_per_cycle", 160))
    tcase = TimeCase(rho=float(phys["rho"]), mu=float(phys["mu"]), period=period,
                     n_cycles=int(ref_block.get("n_cycles", 4)), dt=period / steps,
                     dirichlet={base.bcs[inflow_name]["group"]: time_inflow},
                     walls=walls, neumann=neumann_time, c_i=phys.get("c_i"))
    return tcase, mesh, inflow_name


def mode_sweep(study: Dict[str, Any], out_dir) -> Dict[str, Any]:
    """Spectral solves over a mode list against the time-domain reference.

    The base case must drive a parabolic inflow by flow_samples; the same
    waveform feeds the time solver, and the outlet-flow error of each
    spectral solve is tabulated against the inflow truncation error that its
    run reports (the one build_case computes), with its Newton steps.  A
    reference flow that is zero throughout gives flow_error 0, as a zero
    inflow gives truncation 0.
    The table also records the time reference's Newton work: newton_failures,
    its steps whose Newton loop did not converge (a nonzero count is warned
    about), the total and per-step maximum of its Newton iterations, and the
    totals of its Newton updates (linear_solves_total, each a direct solve
    with a lagged factor) and of the tangents it built and factored.
    Each row's cost_ratio, the paper's cost measure, is its run's wall_time
    (seconds) over that of the time reference run (reference_seconds).
    """
    base = _study_case(study, "mode_sweep")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    modes = study["modes"]
    ref_block = dict(study.get("reference", {}))
    group = ref_block["group"]

    t0 = time.perf_counter()
    tcase, mesh, inflow_name = _time_reference_case(base, ref_block)
    phys = base.physics
    omega = float(phys["omega"])
    tconf = SolverConfig(eps_nr=float(base.solver.get("eps_nr", 1e-3)))
    tres = run_time_simulation(tcase, mesh, tconf, report_groups=[group],
                               ramp_steps=int(ref_block.get("ramp_steps", 10)))
    reference_seconds = time.perf_counter() - t0
    if tres.newton_failures:
        warnings.warn(f"mode sweep on group {group!r}: {tres.newton_failures} time-reference "
                      "steps ended with an unconverged Newton loop")
    q_ref = tres.flow[group]
    t_ref = tres.last_cycle_times
    q_ref_cycle = q_ref[-t_ref.size:]

    rows = []
    for n in modes:
        cfg = CaseConfig(dict(phys, n_modes=n), base.mesh, base.bcs,
                         base.solver, {"directory": str(out_dir / f"n{n}")})
        summary = run_case(cfg, out_dir / f"n{n}")
        flow_modes = np.asarray(summary.flows[group]["flow_modes"], dtype=float)
        coeffs = SpectralCoeffs.from_positive_modes(flow_modes[:, 0] + 1j * flow_modes[:, 1])
        q_spec = np.array([evaluate_field_in_time(coeffs.values, t, omega)
                           for t in t_ref])
        scale = np.linalg.norm(q_ref_cycle)
        err = float(np.linalg.norm(q_spec - q_ref_cycle) / scale) if scale > 0 else 0.0
        rows.append({"n_modes": n, "truncation": summary.truncation[inflow_name],
                     "flow_error": err, "converged": bool(summary.converged),
                     "steps": int(summary.steps), "seconds": summary.wall_time,
                     "cost_ratio": summary.wall_time / reference_seconds})

    table = {"kind": "mode_sweep", "group": group, "rows": rows,
             "cycle_change": [float(c) for c in tres.cycle_change],
             "newton_failures": int(tres.newton_failures),
             "newton_iters_total": int(sum(tres.newton_iters)),
             "newton_iters_max": int(max(tres.newton_iters)),
             "linear_solves_total": int(sum(tres.linear_solves)),
             "factorizations_total": int(sum(tres.factorizations)),
             "reference_seconds": reference_seconds}
    with open(out_dir / "sweep.yaml", "w") as fh:
        yaml.safe_dump(table, fh, sort_keys=True)
    export_traces(t_ref, {"Q_time": q_ref_cycle}, out_dir / "reference_trace.csv")
    return table


def h_sweep(study: Dict[str, Any], out_dir) -> Dict[str, Any]:
    """Refinement study of the 1D steady transport case against its oracle."""
    from .verification import exact_steady_advection_diffusion_1d, l2_error

    base = _study_case(study, "h_sweep")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolutions = study["resolutions"]
    phys = base.physics
    if phys["kind"] != "scalar" or base.mesh.get("generator") != "interval":
        raise ConfigError(["h_sweep expects a scalar case on an interval mesh"])
    n_modes = int(phys["n_modes"])
    m = n_coeffs(n_modes)
    length = float(base.mesh["length"])
    u = float(np.asarray(phys.get("velocity_modes", [[0.0]]))[0][0])
    g_bc = None
    for bc in base.bcs.values():
        if bc.get("kind") == "dirichlet" and "phi_modes" in bc:
            vals = mode_table(bc["phi_modes"], n_modes, "h_sweep")
            if np.max(np.abs(vals)) > 0:
                g_bc = float(vals[n_modes - 1].real)
    if g_bc is None:
        raise ConfigError(["h_sweep needs a nonzero Dirichlet phi_modes entry"])
    exact = exact_steady_advection_diffusion_1d(u, float(phys["kappa"]), length, g_bc)

    def exact_modes(points):
        out = np.zeros((points.shape[0], m), dtype=complex)
        out[:, n_modes - 1] = exact(points[:, 0])
        return out

    errors = []
    hs = []
    for res in resolutions:
        cfg_mesh = dict(base.mesh, resolution=res)
        mesh = build_mesh(cfg_mesh)
        case, _ = build_case(CaseConfig(phys, cfg_mesh, base.bcs, base.solver), mesh)
        sol = solve_scalar(case, mesh, build_solver_config(base.solver))
        errors.append(l2_error(sol, exact_modes, mesh))
        hs.append(length / res)
    report = refinement_report(errors, hs)
    rows = [{"h": h, "error": e, "order": (None if not i else float(report.pair_orders[i - 1]))}
            for i, (h, e) in enumerate(zip(hs, errors))]
    table = {"kind": "h_sweep", "rows": rows, "order": float(report.order)}
    with open(out_dir / "sweep.yaml", "w") as fh:
        yaml.safe_dump(table, fh, sort_keys=True)
    return table


def sweep(study_path, out_dir=None) -> Dict[str, Any]:
    raw = yaml.safe_load(Path(study_path).read_text())
    if not isinstance(raw, dict) or not isinstance(raw.get("study"), dict):
        raise ConfigError(["study file needs a top-level 'study' mapping"])
    study = raw["study"]
    _study_case(study)
    if out_dir is None:
        out_dir = study.get("directory", Path(study_path).stem + "_out")
    return (mode_sweep if study["kind"] == "mode_sweep" else h_sweep)(study, out_dir)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tsfem", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="solve a configured case")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("-v", "--verbose", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run a study")
    p_sweep.add_argument("study")
    p_sweep.add_argument("--output-dir", default=None)

    p_mesh = sub.add_parser("mesh-gen", help="generate a mesh file")
    p_mesh.add_argument("config")
    p_mesh.add_argument("--out", required=True)
    p_mesh.add_argument("--vtk", default=None)

    p_val = sub.add_parser("validate-config", help="validate a case or study file")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            summary = run(args.config, args.output_dir)
            if args.verbose:
                print(yaml.safe_dump(summary.to_dict(), sort_keys=True))
                if summary.kind == "ns":
                    print(summary.step_table())
            else:
                print(f"converged={summary.converged} steps={summary.steps} "
                      f"alpha={summary.alpha:.3g} beta={summary.beta:.3g}")
            return 0 if summary.converged else 1
        if args.verb == "sweep":
            table = sweep(args.study, args.output_dir)
            print(yaml.safe_dump(table, sort_keys=True))
            return 0
        if args.verb == "mesh-gen":
            raw = yaml.safe_load(Path(args.config).read_text())
            block = raw.get("mesh", raw) if isinstance(raw, dict) else None
            if block is None:
                raise ConfigError(["mesh-gen needs a mesh section"])
            mesh = build_mesh(block)
            save_mesh(mesh, args.out)
            if args.vtk:
                export_mesh_vtk(mesh, args.vtk)
            print(f"wrote {args.out}: {mesh.n_nodes} nodes, "
                  f"{mesh.n_elements} {mesh.elem_type} elements")
            return 0
        if args.verb == "validate-config":
            raw = yaml.safe_load(Path(args.config).read_text())
            config = (_study_case(raw["study"])
                      if isinstance(raw, dict) and isinstance(raw.get("study"), dict)
                      else config_from_mapping(raw))
            mesh = build_mesh(config.mesh)
            build_case(config, mesh)
            build_solver_config(config.solver)
            print("configuration is valid")
            return 0
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
