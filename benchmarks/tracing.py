"""Counters and spans around the public entry points of each tsfem layer.

The package modules bind imported names at import time, so each entry point
is wrapped where its caller looks it up (``tsfem.navier_stokes.gmres`` and
``tsfem.time_domain.gmres`` are two lookups of one function).  Nothing in
``src/`` changes.

Two sets of wrappers exist:

* ``COUNTED`` entry points are wrapped in every repetition.  They keep the
  counts that must repeat exactly, capture the results the checks need, and
  time the set-up that ``tsfem sweep`` does inside the solve.  Each call
  costs milliseconds or more, against a few microseconds of wrapping.
* ``TRACED`` entry points are added in traced repetitions only, and every
  wrapped call then records a span: name, start, end and parent span.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

import tsfem.cli as cli
import tsfem.linsolve as linsolve
import tsfem.mesh as mesh
import tsfem.navier_stokes as navier_stokes
import tsfem.spectral as spectral
import tsfem.time_domain as time_domain

COUNTED = [
    (navier_stokes, "tau_from_modes", "spectral.tau_from_modes"),
    (navier_stokes, "newton_step", "navier_stokes.newton_step"),
    (time_domain, "generalized_alpha_step", "time_domain.step"),
    (navier_stokes, "gmres", "linsolve.gmres"),
    (time_domain, "gmres", "linsolve.gmres"),
    (linsolve.BlockTangent, "matvec", "linsolve.matvec"),
    (linsolve.BlockMatrix, "matvec", "linsolve.matvec"),
    (cli, "solve_ns", "cli.solve_ns"),
    (cli, "run_time_simulation", "cli.run_time_simulation"),
    # the set-up that cli.mode_sweep and cli.run_case do before solving
    (cli, "build_mesh", "setup.build_mesh"),
    (cli, "build_case", "setup.build_case"),
    (cli, "build_solver_config", "setup.build_solver_config"),
    (cli, "parabolic_inflow", "setup.parabolic_inflow"),
]

TRACED = [
    (navier_stokes, "convolution_dense", "spectral.convolution_dense"),
    (spectral, "convolution_dense", "spectral.convolution_dense"),
    (navier_stokes, "negative_part_batch", "spectral.negative_part_batch"),
    (time_domain, "time_tau", "time_domain.time_tau"),
    (navier_stokes, "block_jacobi_preconditioner", "linsolve.precond_setup"),
    (time_domain, "block_jacobi_preconditioner", "linsolve.precond_setup"),
    (navier_stokes, "build_graph", "linsolve.build_graph"),
    (time_domain, "build_graph", "linsolve.build_graph"),
    (navier_stokes, "facet_quadrature", "mesh.facet_quadrature"),
    (time_domain, "facet_quadrature", "mesh.facet_quadrature"),
    (mesh.Mesh, "element_data", "mesh.element_data"),
    (cli, "run_case", "cli.run_case"),
    (cli, "export_traces", "io.export_traces"),
]

# Counts that must repeat exactly between runs at one seed.
REPEATED_COUNTS = (
    "navier_stokes.newton_step.calls",
    "time_domain.step.calls",
    "time_domain.newton_iters",
    "linsolve.gmres.calls",
    "linsolve.gmres.matvecs",
    "spectral.tau_from_modes.points",
)


def _matvec_bytes(op) -> int:
    """Bytes a block matvec reads and writes, computed from array sizes.

    The operator blocks are read once; the input is gathered once per edge
    and the output written once per node, at 8 bytes per real entry.
    """
    if isinstance(op, linsolve.BlockMatrix):
        arrays = (op.blocks,)
        per_node = op.block_size
    else:
        arrays = (op.k_real, op.l_real, op.g_diag, op.d_diag, op.g_full, op.d_full)
        per_node = (op.dim + 1) * 2 * op.n_modes
    operator = sum(a.nbytes for a in arrays if a is not None)
    return operator + 8 * per_node * (op.rows.size + op.n_nodes)


class Recorder:
    """Counts, captured results and (when tracing) spans of one repetition."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.captured: dict = {}
        self.spans: list = []          # [name, start, end, parent index]
        self.setup_s = 0.0             # time in outermost setup.* calls
        self.tracing = False
        self._stack: list = []         # (name, span index) of open calls
        self._saved: list = []

    def reset(self) -> None:
        self.counts = Counter()
        self.captured = {"ns": {}}
        self.spans = []
        self.setup_s = 0.0

    # -- patching -----------------------------------------------------------

    def install(self, tracing: bool) -> None:
        """Wrap the counted entry points, and the traced ones when tracing."""
        self.tracing = tracing
        targets = COUNTED + (TRACED if tracing else [])
        for owner, attr, name in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.tracing = False

    def _wrap(self, fn, name: str):
        rec = self

        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else (None, -1)
            idx = -1
            if rec.tracing:
                idx = len(rec.spans)
                rec.spans.append([name, 0.0, 0.0, parent[1]])
            rec._stack.append((name, idx))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                if name.startswith("setup.") and not (parent[0] or "").startswith("setup."):
                    rec.setup_s += end - start
                if idx >= 0:
                    rec.spans[idx][1:3] = start, end
            rec.counts[name + ".calls"] += 1
            return rec._after(name, parent[0], args, result)

        return wrapper

    def _after(self, name, parent, args, result):
        c = self.counts
        if name == "spectral.tau_from_modes":
            c["spectral.tau_from_modes.points"] += int(np.prod(np.shape(args[0])[:-2]))
        elif name == "linsolve.gmres":
            c["linsolve.gmres.matvecs"] += result.matvecs
            c["linsolve.gmres.unconverged"] += not result.converged
            if parent == "navier_stokes.newton_step":
                c["navier_stokes.linear_solves"] += 1
            elif parent == "time_domain.step":
                c["time_domain.linear_solves"] += 1
        elif name == "time_domain.step":
            c["time_domain.newton_iters"] += result[2]
            c["time_domain.newton_unconverged"] += not result[1]
        elif name == "linsolve.matvec":
            c["linsolve.matvec.bytes_computed"] += _matvec_bytes(args[0])
        elif name == "linsolve.precond_setup":
            return self._wrap(result, "linsolve.precond_apply")
        elif name == "cli.solve_ns":
            self.captured["ns"][args[0].n_modes] = result
        elif name == "cli.run_time_simulation":
            self.captured["time"] = result
        return result

    @contextmanager
    def root(self, name: str):
        """Open a top-level span (a no-op when not tracing)."""
        if not self.tracing:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1])
        self._stack.append((name, idx))
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()


def span_times(spans, root: str):
    """Call durations and total self time per span name under one root span.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans under a root sum to the root's
    duration.
    """
    inside = [False] * len(spans)
    child = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        inside[i] = inside[parent] if parent >= 0 else name == root
        if inside[i] and parent >= 0:
            child[parent] += end - start
    durations = defaultdict(list)
    self_time = Counter()
    for (name, start, end, _), inner, keep in zip(spans, child, inside):
        if keep:
            durations[name].append(end - start)
            self_time[name] += end - start - inner
    return durations, self_time


def _p(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of one traced repetition, by name.

    Every metric comes from the spans under the "solve" root, except
    mesh.element_data.s and trace.setup_s, which add the traced set-up to
    the set-up done inside the solve (by ``tsfem sweep``): element data is
    computed during mesh generation and cached on the mesh.
    """
    durations, self_time = span_times(rec.spans, "solve")
    setup, _ = span_times(rec.spans, "setup")
    c = rec.counts

    def total(name, spans=durations):
        return float(sum(spans.get(name, ())))

    def calls(name):
        return len(durations.get(name, ()))

    newton = durations.get("navier_stokes.newton_step", [])
    steps = durations.get("time_domain.step", [])
    return {
        "spectral.tau_from_modes.calls": calls("spectral.tau_from_modes"),
        "spectral.tau_from_modes.s": total("spectral.tau_from_modes"),
        "spectral.tau_from_modes.points": c["spectral.tau_from_modes.points"],
        "spectral.convolution_dense.s": total("spectral.convolution_dense"),
        "spectral.negative_part_batch.s": total("spectral.negative_part_batch"),
        "navier_stokes.newton_step.calls": calls("navier_stokes.newton_step"),
        "navier_stokes.newton_step.s": total("navier_stokes.newton_step"),
        "navier_stokes.step_s.p50": _p(newton, 50),
        "navier_stokes.assembly_self_s": float(self_time["navier_stokes.newton_step"]),
        "navier_stokes.linear_solves": c["navier_stokes.linear_solves"],
        "navier_stokes.tangent_useful_ratio": _ratio(
            c["navier_stokes.linear_solves"], calls("navier_stokes.newton_step")),
        "time_domain.step.calls": calls("time_domain.step"),
        "time_domain.step.s": total("time_domain.step"),
        "time_domain.step_s.p50": _p(steps, 50),
        "time_domain.step_s.p90": _p(steps, 90),
        "time_domain.newton_iters": c["time_domain.newton_iters"],
        "time_domain.newton_unconverged": c["time_domain.newton_unconverged"],
        "time_domain.assembly_self_s": float(self_time["time_domain.step"]),
        "time_domain.time_tau.s": total("time_domain.time_tau"),
        "time_domain.linear_solves": c["time_domain.linear_solves"],
        "time_domain.tangent_useful_ratio": _ratio(
            c["time_domain.linear_solves"], c["time_domain.newton_iters"]),
        "linsolve.gmres.calls": calls("linsolve.gmres"),
        "linsolve.gmres.s": total("linsolve.gmres"),
        "linsolve.gmres.matvecs": c["linsolve.gmres.matvecs"],
        "linsolve.gmres.unconverged": c["linsolve.gmres.unconverged"],
        "linsolve.gmres.self_s": float(self_time["linsolve.gmres"]),
        "linsolve.matvec.calls": calls("linsolve.matvec"),
        "linsolve.matvec.s": total("linsolve.matvec"),
        "linsolve.matvec.bytes_computed": c["linsolve.matvec.bytes_computed"],
        "linsolve.precond_setup.calls": calls("linsolve.precond_setup"),
        "linsolve.precond_setup.s": total("linsolve.precond_setup"),
        "linsolve.precond_apply.s": total("linsolve.precond_apply"),
        "linsolve.build_graph.calls": calls("linsolve.build_graph"),
        "linsolve.build_graph.s": total("linsolve.build_graph"),
        "mesh.facet_quadrature.calls": calls("mesh.facet_quadrature"),
        "mesh.facet_quadrature.s": total("mesh.facet_quadrature"),
        "mesh.element_data.s": total("mesh.element_data", setup) + total("mesh.element_data"),
        "cli.run_case.s": total("cli.run_case"),
        "io.export_traces.s": total("io.export_traces"),
        "trace.setup_s": total("setup", setup) + rec.setup_s,
        "trace.solve_s": total("solve"),
        "trace.unattributed_s": float(self_time["solve"]),
    }


def layer_unit(name: str) -> str:
    if name.endswith(("calls", "points", "matvecs", "unconverged", "iters", "solves")):
        return "count"
    if name.endswith("bytes_computed"):
        return "B"
    return "ratio" if name.endswith("ratio") else "s"


def self_time_table(spans):
    """(name, calls, inclusive s, self s) rows under the "solve" root."""
    durations, self_time = span_times(spans, "solve")
    return sorted(((name, len(d), float(sum(d)), float(self_time[name]))
                   for name, d in durations.items()), key=lambda row: -row[3])
