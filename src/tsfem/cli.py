"""Configuration-driven batch runner and study orchestration.

Verbs:
  run CONFIG              solve one case, write summary/traces/fields
  sweep STUDY             mode sweeps against the time reference, h sweeps; exit 1
                          when a mode-sweep row did not converge
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

from .config import (
    KEY_KINDS,
    CaseConfig,
    ConfigError,
    _groups_of,
    build_case,
    build_mesh,
    build_solver_config,
    check_block,
    config_from_mapping,
    dump_yaml,
    load_config,
    read_yaml,
)
from .io import export_fields, export_mesh_vtk, export_traces
from .linsolve import LinearSolveError
from .mesh import save_mesh
from .navier_stokes import NSCase, UpdateRecord, flow_report, parabolic_inflow, solve_ns
from .scalar import solve_scalar
from .spectral import (
    SpectralCoeffs,
    evaluate_field_in_time,
    fourier_coefficients,
    n_coeffs,
)
from .time_domain import DivergedStepError, TimeCase, run_time_simulation
from .verification import diagnostics, refinement_report

__all__ = ["RunSummary", "run_case", "run", "sweep", "main"]


# One row per UpdateRecord field written out: its summary.yaml key, the field,
# and the title, width and format of its run -v column.
_UPDATE_COLUMNS = (
    ("pseudo_dts", "pseudo_dt", "pseudo_dt", 10, ".3e"),
    ("linear_iters", "matvecs", "matvecs", 7, "d"),
    ("linear_residuals", "linear_residual", "linear_res", 10, ".3e"),
    ("assembly_s", "assembly_s", "assembly_s", 10, ".4f"),
    ("tau_s", "tau_s", "tau_s", 8, ".4f"),
    ("linear_s", "linear_s", "linear_s", 9, ".4f"),
    ("precond_s", "precond_s", "precond_s", 9, ".4f"),
)


@dataclass
class RunSummary:
    """What summary.yaml records of one run.

    For flow cases, residuals holds the residual norm before each Newton
    step (UpdateRecord.residual: the norm of the complex residual modes
    off the Dirichlet momentum rows) and updates the UpdateRecord of each
    update; summary.yaml lists the _UPDATE_COLUMNS of the updates, and as
    linear_unconverged the count of updates GMRES left above eps_ls.
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
    updates: List[UpdateRecord] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        columns = {key: [(int if fmt == "d" else float)(getattr(u, name)) for u in self.updates]
                   for key, name, _, _, fmt in _UPDATE_COLUMNS}
        return {
            "kind": self.kind, "converged": bool(self.converged),
            "steps": int(self.steps),
            "residuals": [float(r) for r in self.residuals],
            **columns,
            "linear_unconverged": sum(not u.linear_converged for u in self.updates),
            "wall_time": float(self.wall_time),
            "alpha": float(self.alpha), "beta": float(self.beta),
            "flows": self.flows, "truncation": self.truncation,
            "field_range": self.field_range, "outputs": self.outputs,
        }

    def step_table(self) -> str:
        """One line per Newton step: its residual and the _UPDATE_COLUMNS of its update.

        The last step of a converged run made no update and shows "-".
        """
        lines = ["  ".join([f"{'step':>4}", f"{'residual':>10}"]
                           + [f"{title:>{width}}" for _, _, title, width, _ in _UPDATE_COLUMNS])]
        for k, r in enumerate(self.residuals):
            cells = [f"{k:>4}", f"{r:>10.3e}"]
            for _, name, _, width, fmt in _UPDATE_COLUMNS:
                cells.append(f"{getattr(self.updates[k], name):>{width}{fmt}}"
                             if k < len(self.updates) else f"{'-':>{width}}")
            lines.append("  ".join(cells))
        return "\n".join(lines)


def _modes_as_rows(values: np.ndarray) -> List[List[float]]:
    n = (values.shape[-1] + 1) // 2
    pos = values[n - 1:]
    return [[float(v.real), float(v.imag)] for v in pos]


def _output_dir(out_dir) -> Path:
    """out_dir as a Path, made with its parents; one that cannot be is a ConfigError."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError([f"output directory {out_dir} is not writable: {err}"])
    if not out_dir.is_dir():
        raise ConfigError([f"output directory {out_dir} is not a directory"])
    return out_dir


def run_case(config: CaseConfig, out_dir) -> RunSummary:
    """Solve one configured case and write its artifacts.

    The output directory receives summary.yaml, traces.csv for flow cases,
    and VTK field snapshots when output.fields_t_samples is given.  The
    summary's wall_time includes the mesh build.
    """
    out_dir = _output_dir(out_dir)
    t0 = time.perf_counter()
    return _run_on_mesh(config, build_mesh(config.mesh), out_dir, t0)


def _run_on_mesh(config: CaseConfig, mesh, out_dir: Path, t0: float) -> RunSummary:
    """run_case on a mesh built from config.mesh; its wall_time counts from t0."""
    case, info = build_case(config, mesh)
    solver_config = build_solver_config(config.solver)
    omega = float(config.physics["omega"])
    samples = config.output.get("trace_samples", 128)
    # one period of trace times; a steady case (omega 0) has one
    times = 2 * np.pi / omega * np.arange(samples) / samples if omega > 0.0 else np.zeros(1)
    outputs: List[str] = []

    if isinstance(case, NSCase):
        result = solve_ns(case, mesh, solver_config)
        fields = {"velocity": result.state.velocity, "pressure": result.state.pressure}
        diag = diagnostics(case, mesh, velocity=result.state.velocity)
        groups = (list(case.neumann) + list(case.dirichlet))
        report = flow_report(result.state, mesh, groups)
        flows = {g: {"area": d.area,
                     "flow_modes": _modes_as_rows(d.flow.values),
                     "pressure_modes": _modes_as_rows(d.pressure.values)}
                 for g, d in report.items()}
        columns: Dict[str, np.ndarray] = {}
        for g, d in report.items():
            columns[f"Q_{g}"] = evaluate_field_in_time(d.flow.values, times, omega)
            columns[f"P_{g}"] = evaluate_field_in_time(d.pressure.values, times, omega)
        trace_path = export_traces(times, columns, out_dir / "traces.csv")
        outputs.append(str(trace_path))
        solved = dict(kind="ns", converged=result.converged, steps=result.steps,
                      residuals=result.residuals, flows=flows, updates=result.updates)
    else:
        sol = solve_scalar(case, mesh, solver_config)
        fields = {"scalar": sol}
        diag = diagnostics(case, mesh)
        recon = evaluate_field_in_time(sol, times, omega)
        solved = dict(kind="scalar", converged=True, steps=1, residuals=[],
                      field_range=[float(recon.min()), float(recon.max())])
    t_samples = config.output.get("fields_t_samples")
    if t_samples:
        paths = export_fields(mesh, t_samples, omega, out_dir, **fields)
        outputs.extend(str(p) for p in paths)
    summary = RunSummary(wall_time=time.perf_counter() - t0, alpha=diag.alpha, beta=diag.beta,
                         truncation=info.get("truncation", {}), outputs=outputs, **solved)

    with open(out_dir / "summary.yaml", "w") as fh:
        dump_yaml(summary.to_dict(), fh)
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

def _study_case(study: Dict[str, Any], kind: str | None = None) -> CaseConfig:
    """A study's case block, validated as a case file is, after the study's own keys.

    kind is the study kind to check against, study.kind when None: a mode_sweep needs
    modes and reference.group, an h_sweep resolutions.  The keys of study and
    study.reference are checked against KEY_KINDS, and n_fit against the inflow samples.
    """
    kind = study.get("kind") if kind is None else kind
    reference = study.get("reference", {})
    # a study needs its case and the list its kind sweeps over, or a known kind
    swept = {"mode_sweep": "modes", "h_sweep": "resolutions"}.get(str(kind), "kind")
    errors = check_block("study", study, KEY_KINDS["study"], ("case", swept))
    if isinstance(reference, dict):
        errors += check_block("study.reference", reference, KEY_KINDS["study.reference"],
                              ("group",) if kind == "mode_sweep" else ())
    if errors:
        raise ConfigError(errors)
    config = config_from_mapping(study["case"])
    if kind == "mode_sweep":
        n_samples = np.size(config.bcs[_reference_bcs(config)[0]]["flow_samples"])
        if reference.get("n_fit", 0) > (n_samples + 2) // 4:
            raise ConfigError([f"study.reference.n_fit must be at most {(n_samples + 2) // 4} "
                               f"for {n_samples} inflow flow_samples "
                               f"(got {reference['n_fit']!r})"])
    return config


def _reference_bcs(config: CaseConfig):
    """(inflow bc name, wall groups, zero-traction groups) of the mode-sweep time reference.

    The inflow is the last parabolic_inflow bc given by flow_samples, the walls are the
    noslip bcs' groups and the zero-traction groups those of all-zero neumann bcs.  No
    such inflow, or any other bc, is a ConfigError.
    """
    inflows = [name for name, bc in config.bcs.items()
               if bc["kind"] == "parabolic_inflow" and "flow_samples" in bc]
    if not inflows:
        raise ConfigError(["mode_sweep needs a parabolic_inflow bc with flow_samples"])
    inflow = inflows[-1]
    walls, zero_traction, dropped = [], [], []
    for name, bc in config.bcs.items():
        if bc["kind"] == "noslip":
            walls += _groups_of(bc)
        elif bc["kind"] == "neumann" and not any(
                np.any(v) for key, v in bc.items() if key.endswith(("_modes", "_samples"))):
            zero_traction += _groups_of(bc)
        elif name != inflow:
            dropped.append(name)
    if dropped:
        raise ConfigError([f"bcs.{name}: the mode_sweep time reference takes only noslip, "
                           f"zero neumann and the inflow {inflow!r}" for name in dropped])
    return inflow, walls, zero_traction


def _time_reference_case(base: CaseConfig, ref_block: Dict[str, Any], mesh):
    """The time-domain counterpart of a mode-sweep case on its mesh; returns (case, inflow bc name).

    The bcs carried over are those of _reference_bcs: the inflow's
    flow_samples drive, on each of its groups, the same unit-flux parabolic
    profile as build_case through their trigonometric interpolant, and
    walls and traction-free outlets carry over.  dt_per_cycle and n_cycles
    come from ref_block.
    """
    inflow_name, walls, zero_traction = _reference_bcs(base)
    inflow = base.bcs[inflow_name]
    samples = np.asarray(inflow["flow_samples"], dtype=float)
    phys = base.physics
    period = 2 * np.pi / float(phys["omega"])
    n_fit = ref_block.get("n_fit", min(16, (samples.size + 2) // 4))
    inflow_modes = fourier_coefficients(samples, n_fit).values

    def time_inflow(group):
        # unit-flux inflow profile shared by both formulations
        unit = parabolic_inflow(mesh, group, SpectralCoeffs(1, np.array([1.0], dtype=complex)))
        profile = unit.values[:, :, 0].real

        def values(coords, t):
            del coords
            return profile * evaluate_field_in_time(inflow_modes, t, 2 * np.pi / period)

        return values

    steps = ref_block.get("dt_per_cycle", 160)
    tcase = TimeCase(rho=float(phys["rho"]), mu=float(phys["mu"]), period=period,
                     n_cycles=ref_block.get("n_cycles", 4), dt=period / steps,
                     dirichlet={g: time_inflow(g) for g in _groups_of(inflow)},
                     walls=walls, neumann={g: lambda t: 0.0 for g in zero_traction},
                     c_i=phys.get("c_i"))
    return tcase, inflow_name


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
    The study's mesh is built once, before any timing, and the reference and
    every row solve on that one mesh, sharing its element data, scatter plan
    and facet tables.  Each row's cost_ratio, the paper's cost measure, is
    its run's wall_time (seconds) over that of the time reference run
    (reference_seconds); neither includes the mesh build.  Of the reference's
    seconds, reference_assembly_s went to its residuals and tangents and
    reference_linear_s to its factorizations and solves; a diverged
    time-reference step raises DivergedStepError before any output.
    """
    return _mode_sweep(study, _study_case(study, "mode_sweep"), out_dir)


def _mode_sweep(study: Dict[str, Any], base: CaseConfig, out_dir) -> Dict[str, Any]:
    """mode_sweep of a study whose case block _study_case has checked into base."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    modes = study["modes"]
    ref_block = dict(study.get("reference", {}))
    group = ref_block["group"]
    mesh = build_mesh(base.mesh)

    t0 = time.perf_counter()
    tcase, inflow_name = _time_reference_case(base, ref_block, mesh)
    phys = base.physics
    omega = float(phys["omega"])
    ramp = {"ramp_steps": ref_block["ramp_steps"]} if "ramp_steps" in ref_block else {}
    tres = run_time_simulation(tcase, mesh, build_solver_config(base.solver),
                               report_groups=[group], **ramp)
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
        summary = _run_on_mesh(cfg, mesh, _output_dir(out_dir / f"n{n}"), time.perf_counter())
        flow_modes = np.asarray(summary.flows[group]["flow_modes"], dtype=float)
        coeffs = SpectralCoeffs.from_positive_modes(flow_modes[:, 0] + 1j * flow_modes[:, 1])
        q_spec = evaluate_field_in_time(coeffs.values, t_ref, omega)
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
             "reference_seconds": reference_seconds,
             "reference_assembly_s": float(sum(tres.assembly_seconds)),
             "reference_linear_s": float(sum(tres.linear_seconds))}
    with open(out_dir / "sweep.yaml", "w") as fh:
        dump_yaml(table, fh)
    export_traces(t_ref, {"Q_time": q_ref_cycle}, out_dir / "reference_trace.csv")
    return table


def _steady_value(modes: np.ndarray, what: str) -> float:
    """Mode 0 of a mode vector (2N-1,) whose other modes vanish (to 1e-12), else a ConfigError."""
    n = (modes.size + 1) // 2
    if np.max(np.abs(np.delete(modes, n - 1)), initial=0.0) > 1e-12 * np.max(np.abs(modes)):
        raise ConfigError([f"h_sweep needs a steady {what} (got modes {modes.tolist()})"])
    return float(modes[n - 1].real)


def h_sweep(study: Dict[str, Any], out_dir) -> Dict[str, Any]:
    """Refinement study of the 1D steady transport case against its oracle.

    The oracle's velocity and Dirichlet values, phi = 0 on left and g != 0
    on right, are the built case's and must be steady, else a ConfigError.
    """
    return _h_sweep(study, _study_case(study, "h_sweep"), out_dir)


def _h_sweep(study: Dict[str, Any], base: CaseConfig, out_dir) -> Dict[str, Any]:
    """h_sweep of a study whose case block _study_case has checked into base."""
    from .verification import exact_steady_advection_diffusion_1d, l2_error

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolutions = study["resolutions"]
    phys = base.physics
    if phys["kind"] != "scalar" or base.mesh.get("generator") != "interval":
        raise ConfigError(["h_sweep expects a scalar case on an interval mesh"])
    runs = []   # (mesh, case) per resolution; the oracle's data is the first case's
    for res in resolutions:
        cfg_mesh = dict(base.mesh, resolution=res)
        mesh = build_mesh(cfg_mesh)
        runs.append((mesh, build_case(CaseConfig(phys, cfg_mesh, base.bcs, base.solver), mesh)[0]))
    case = runs[0][1]
    u = _steady_value(case.velocity[0, 0], "velocity")
    # a side without Dirichlet data reads as nan, which fails the check below
    left, g_bc = (_steady_value(case.dirichlet.get(side, np.full(1, np.nan)), f"phi on {side}")
                  for side in ("left", "right"))
    if not (left == 0.0 and abs(g_bc) > 0.0):
        raise ConfigError([f"h_sweep needs Dirichlet phi = 0 on left and phi != 0 on right "
                           f"(got {left} and {g_bc})"])
    n_modes = case.n_modes
    m = n_coeffs(n_modes)
    length = float(base.mesh["length"])
    exact = exact_steady_advection_diffusion_1d(u, float(phys["kappa"]), length, g_bc)

    def exact_modes(points):
        out = np.zeros((points.shape[0], m), dtype=complex)
        out[:, n_modes - 1] = exact(points[:, 0])
        return out

    errors = []
    hs = []
    for res, (mesh, case) in zip(resolutions, runs):
        sol = solve_scalar(case, mesh, build_solver_config(base.solver))
        errors.append(l2_error(sol, exact_modes, mesh))
        hs.append(length / res)
    report = refinement_report(errors, hs)
    rows = [{"h": h, "error": e, "order": (None if not i else float(report.pair_orders[i - 1]))}
            for i, (h, e) in enumerate(zip(hs, errors))]
    table = {"kind": "h_sweep", "rows": rows, "order": float(report.order)}
    with open(out_dir / "sweep.yaml", "w") as fh:
        dump_yaml(table, fh)
    return table


def sweep(study_path, out_dir=None) -> Dict[str, Any]:
    raw = read_yaml(study_path)
    if not isinstance(raw, dict) or not isinstance(raw.get("study"), dict):
        raise ConfigError(["study file needs a top-level 'study' mapping"])
    study = raw["study"]
    base = _study_case(study)
    if out_dir is None:
        out_dir = study.get("directory", Path(study_path).stem + "_out")
    return (_mode_sweep if study["kind"] == "mode_sweep" else _h_sweep)(study, base, out_dir)


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
                print(dump_yaml(summary.to_dict()))
                if summary.kind == "ns":
                    print(summary.step_table())
            else:
                print(f"converged={summary.converged} steps={summary.steps} "
                      f"alpha={summary.alpha:.3g} beta={summary.beta:.3g}")
            return 0 if summary.converged else 1
        if args.verb == "sweep":
            table = sweep(args.study, args.output_dir)
            print(dump_yaml(table))
            unconverged = [row["n_modes"] for row in table["rows"]
                           if not row.get("converged", True)]
            if unconverged:
                print(f"mode sweep: the spectral solve did not converge at N = "
                      f"{', '.join(map(str, unconverged))}", file=sys.stderr)
                return 1
            return 0
        if args.verb == "mesh-gen":
            raw = read_yaml(args.config)
            block = raw.get("mesh", raw) if isinstance(raw, dict) else None
            if not isinstance(block, dict):
                raise ConfigError(["mesh-gen needs a mesh section"])
            mesh = build_mesh(block)
            save_mesh(mesh, args.out)
            if args.vtk:
                export_mesh_vtk(mesh, args.vtk)
            print(f"wrote {args.out}: {mesh.n_nodes} nodes, "
                  f"{mesh.n_elements} {mesh.elem_type} elements")
            return 0
        if args.verb == "validate-config":
            raw = read_yaml(args.config)
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
    except DivergedStepError as err:
        print(f"time reference diverged: {err}", file=sys.stderr)
        return 1
    except (MemoryError, LinearSolveError) as err:
        print(str(err), file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
