"""The benchmark tracer still sees every layer of the solvers.

benchmarks/tracing.py wraps entry points where the solvers look them up
(navier_stokes.gmres, time_domain.block_jacobi_preconditioner,
BlockTangent.matvec, ...) and sizes every matvec from the operator's
arrays.  A refactor that moves one of these names would crash every
benchmark run or silently zero its per-layer counts; this test runs a
small spectral solve, with the backflow term on, and one time step under
the traced recorder.  The time step solves its Newton updates directly,
so every GMRES call and matvec counted is the spectral solve's.  A second
test runs cli.run_case under the recorder, whose captured solve result
the sweep workload reads.
"""

import importlib.util
from pathlib import Path

import numpy as np
import yaml

import tsfem.cli as cli
import tsfem.time_domain as time_domain
from tsfem.config import build_mesh, config_from_mapping
from tsfem.linsolve import SolverConfig
from tsfem.mesh import generate_rect_tri
from tsfem.navier_stokes import NSCase, solve_ns
from tsfem.spectral import n_coeffs
from tsfem.time_domain import TimeCase, TimeState

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"
CONFIG_DIR = ROOT / "configs"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_recorder_counts_every_layer():
    tracing = load_tracing()
    mesh = generate_rect_tri((1.0, 1.0), (3, 3))
    m = n_coeffs(2)

    def inflow(coords):
        vals = np.zeros((coords.shape[0], 2, m), dtype=complex)
        vals[:, 0, 1] = 4 * coords[:, 1] * (1 - coords[:, 1])
        vals[:, 0, [0, 2]] = 0.2 * vals[:, 0, 1:2]
        return vals

    ns_case = NSCase(rho=1.0, mu=0.1, omega=2.0, n_modes=2, dirichlet={"xmin": inflow},
                     walls=["ymin", "ymax"], neumann={"xmax": np.zeros(m, complex)},
                     backflow_beta=0.2)
    time_case = TimeCase(rho=1.0, mu=0.1, period=1.0, n_cycles=2, dt=0.1,
                         dirichlet={"xmin": lambda x, t: np.c_[4 * x[:, 1] * (1 - x[:, 1]),
                                                               0 * x[:, 1]]},
                         walls=["ymin", "ymax"], neumann={"xmax": lambda t: 0.0})
    rec = tracing.Recorder()
    rec.reset()
    rec.install(tracing=True)
    try:
        result = solve_ns(ns_case, mesh, SolverConfig(eps_nr=1e-4, max_steps=30))
        step = time_domain.generalized_alpha_step(time_case, mesh,
                                                  TimeState.zeros(mesh.n_nodes, 2))
    finally:
        rec.restore()
    c = rec.counts
    assert result.converged and step.linear_solves > 0
    for name in ("linsolve.gmres.calls", "linsolve.matvec.calls",
                 "linsolve.matvec.bytes_computed", "linsolve.precond_setup.calls",
                 "linsolve.precond_apply.calls", "spectral.tau_from_modes.calls",
                 "spectral.convolution_dense.calls", "spectral.negative_part_batch.calls",
                 "time_domain.time_tau.calls", "mesh.facet_quadrature.calls"):
        assert c[name] > 0, name
    assert c["linsolve.build_graph.calls"] == 1          # one scatter plan per mesh
    assert c["time_domain.step.calls"] == 1
    assert c["navier_stokes.linear_solves"] == len(result.updates)
    assert c["time_domain.linear_solves"] == 0
    assert c["linsolve.gmres.calls"] == len(result.updates)
    assert c["linsolve.gmres.matvecs"] == sum(u.matvecs for u in result.updates)
    # the wrappers are gone again
    assert "wrapper" not in tracing.navier_stokes.gmres.__name__


def test_traced_recorder_captures_the_cli_run(tmp_path):
    # the sweep_bent workload reads captured["ns"][n].state of cli.run_case's solve
    tracing = load_tracing()
    raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
    raw["mesh"]["resolution"] = [4, 12]
    config = config_from_mapping(raw)
    rec = tracing.Recorder()
    rec.reset()
    rec.install(tracing=True)
    try:
        summary = cli.run_case(config, tmp_path / "out")
    finally:
        rec.restore()
    n = config.physics["n_modes"]
    mesh = build_mesh(config.mesh)
    assert summary.converged
    assert rec.captured["ns"][n].state.velocity.shape == (mesh.n_nodes, mesh.dim, 2 * n - 1)
    assert rec.counts["cli.run_case.calls"] == rec.counts["io.export_traces.calls"] == 1
