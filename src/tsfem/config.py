"""YAML case configuration: parsing, validation and case construction.

A case file has four sections: physics, mesh, bcs and solver, plus an
optional output section.  Boundary data is given either as a mode table
(list of [re, im] pairs for modes 0..N-1) or as uniform time samples over
one period, which are converted to modes with the physics-block N; the
induced truncation error is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import yaml

from .linsolve import SolverConfig
from .mesh import (
    Mesh,
    generate_bent_channel_tet,
    generate_box_tet,
    generate_interval,
    generate_rect_tri,
    load_mesh,
    validate_mesh,
)
from .navier_stokes import NSCase, parabolic_inflow
from .scalar import ScalarCase
from .spectral import SpectralCoeffs, evaluate_field_in_time, fourier_coefficients, n_coeffs

__all__ = ["ConfigError", "CaseConfig", "parse_config", "config_from_mapping", "load_config",
           "serialize_config", "build_mesh", "build_case", "mode_table"]


class ConfigError(ValueError):
    """Carries every validation failure found in a config file."""

    def __init__(self, errors: List[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(errors))
        self.errors = errors


@dataclass
class CaseConfig:
    physics: Dict[str, Any]
    mesh: Dict[str, Any]
    bcs: Dict[str, Dict[str, Any]]
    solver: Dict[str, Any] = field(default_factory=dict)
    output: Dict[str, Any] = field(default_factory=dict)

    def normalized(self) -> Dict[str, Any]:
        return {"physics": dict(self.physics), "mesh": dict(self.mesh),
                "bcs": {k: dict(v) for k, v in self.bcs.items()},
                "solver": dict(self.solver), "output": dict(self.output)}


# the keys each generator reads, with their lengths (None: one value); bend_angle is optional
_GENERATOR_KEYS = {"interval": {"length": None, "resolution": None},
                   "rect_tri": {"extents": 2, "resolution": 2},
                   "box_tet": {"extents": 3, "resolution": 3},
                   "bent_channel": {"extents": 3, "resolution": 3, "bend_angle": None}}
# The boundary data each (physics kind, bc kind) reads, given as <prefix>_modes
# or <prefix>_samples; noslip reads none.  A flow dirichlet bc also reads axis.
_BC_DATA = {("scalar", "dirichlet"): "phi", ("scalar", "neumann"): "flux",
            ("scalar", "noslip"): None, ("ns", "dirichlet"): "velocity",
            ("ns", "neumann"): "h", ("ns", "parabolic_inflow"): "flow", ("ns", "noslip"): None}
_BC_KINDS = {bc_kind for _, bc_kind in _BC_DATA}
# the keys the case builders and the runner read; any other key is a typo
_KNOWN_KEYS = {
    "physics": {"kind", "rho", "mu", "kappa", "omega", "n_modes", "backflow_beta",
                "c_i", "velocity_modes", "galerkin_only"},
    "solver": {"eps_nr", "eps_ls", "krylov_dim", "max_linear_iters", "pseudo_dt", "max_steps"},
    "output": {"directory", "trace_samples", "fields_t_samples"},
}
# the physics values that must be numbers when given
_NUMBER_KEYS = {"rho", "mu", "kappa", "omega", "backflow_beta", "c_i"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_config(text: str) -> CaseConfig:
    return config_from_mapping(yaml.safe_load(text))


def config_from_mapping(raw: Any) -> CaseConfig:
    """Validate a case given as a mapping (a parsed case file or a study's case block)."""
    errors: List[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a mapping"])
    for section in ("physics", "mesh", "bcs"):
        if section not in raw:
            errors.append(f"missing section {section!r}")
    if errors:
        raise ConfigError(errors)

    physics = dict(raw["physics"])
    kind = physics.get("kind")
    if kind not in ("ns", "scalar"):
        errors.append("physics.kind must be 'ns' or 'scalar'")
    if kind == "ns":
        for key in ("rho", "mu"):
            if key not in physics:
                errors.append(f"physics.{key} required for kind 'ns'")
    if kind == "scalar" and "kappa" not in physics:
        errors.append("physics.kappa required for kind 'scalar'")
    for key in ("omega", "n_modes"):
        if key not in physics:
            errors.append(f"physics.{key} is required")
    for key in sorted(_NUMBER_KEYS & set(physics)):
        if not _is_number(physics[key]):
            errors.append(f"physics.{key} must be a number (got {physics[key]!r})")
    n_modes = physics.get("n_modes", 1)
    if not (type(n_modes) is int and n_modes >= 1):
        errors.append(f"physics.n_modes must be an integer >= 1 (got {n_modes!r})")
    if _is_number(physics.get("omega")) and not physics["omega"] >= 0.0:
        errors.append("physics.omega must be >= 0")

    mesh_block = dict(raw["mesh"])
    has_gen = "generator" in mesh_block
    has_path = "path" in mesh_block
    if has_gen == has_path:
        errors.append("mesh needs exactly one of 'generator' or 'path'")
    if has_gen and mesh_block["generator"] not in _GENERATOR_KEYS:
        errors.append(f"unknown mesh generator {mesh_block['generator']!r}; "
                      f"choose from {sorted(_GENERATOR_KEYS)}")

    bcs = {name: dict(v) for name, v in raw["bcs"].items()}
    if kind == "scalar" and not any(bc.get("kind") in ("dirichlet", "noslip")
                                    for bc in bcs.values()):
        errors.append("bcs: a scalar case needs a dirichlet or noslip bc")
    for name, bc in bcs.items():
        kind_bc = bc.get("kind")
        if kind_bc not in _BC_KINDS:
            errors.append(f"bcs.{name}.kind must be one of {sorted(_BC_KINDS)}")
            continue
        if "group" not in bc and "groups" not in bc:
            errors.append(f"bcs.{name} needs 'group' or 'groups'")
        if (kind, kind_bc) not in _BC_DATA:     # an invalid physics kind is reported above
            if kind in ("ns", "scalar"):
                errors.append(f"bcs.{name}: kind {kind_bc!r} not valid for {kind} physics")
            continue
        prefix = _BC_DATA[kind, kind_bc]
        data = [f"{prefix}_modes", f"{prefix}_samples"] if prefix else []
        known = {"kind", "group", "groups", *data}
        if (kind, kind_bc) == ("ns", "dirichlet"):
            known.add("axis")
        errors += [f"unknown key bcs.{name}.{key}; known keys: {sorted(known)}"
                   for key in sorted(set(bc) - known, key=str)]
        if data and sum(key in bc for key in data) != 1:
            errors.append(f"bcs.{name}: give exactly one of {data[0]} or {data[1]}")

    solver = dict(raw.get("solver", {}))
    output = dict(raw.get("output", {}))
    for section, block in (("physics", physics), ("solver", solver), ("output", output)):
        known = _KNOWN_KEYS[section]
        for key in sorted(set(block) - known, key=str):
            errors.append(f"unknown key {section}.{key}; known keys: {sorted(known)}")

    if errors:
        raise ConfigError(errors)
    return CaseConfig(physics, mesh_block, bcs, solver, output)


def load_config(path) -> CaseConfig:
    return parse_config(Path(path).read_text())


def serialize_config(config: CaseConfig) -> str:
    return yaml.safe_dump(config.normalized(), sort_keys=True)


def _mesh_key_errors(key: str, raw, count) -> List[str]:
    """Errors of mesh.<key>: count entries > 0 (one if None), integers for resolution."""
    values = [raw] if count is None else raw
    whole = key == "resolution"
    if isinstance(values, list) and len(values) == (count or 1) and all(
            (type(v) is int if whole else _is_number(v) and np.isfinite(v)) and v > 0
            for v in values):
        return []
    one, many = ("an integer", "integers") if whole else ("a number", "numbers")
    return [f"mesh.{key} must be {f'a list of {count} {many}' if count else one} > 0 "
            f"(got {raw!r})"]


def build_mesh(mesh_block: Dict[str, Any]) -> Mesh:
    """The mesh a mesh block loads (relative to the working directory) or generates.

    Its element data is built, and a loaded mesh passes validate_mesh.  A
    bad file, a generator key missing or out of range, or a bend too tight
    is a ConfigError naming mesh.path or mesh.<key>.
    """
    if "path" in mesh_block:
        try:
            mesh = load_mesh(Path(mesh_block["path"]))
            validate_mesh(mesh)
        except (OSError, ValueError) as err:
            raise ConfigError([f"mesh.path {str(mesh_block['path'])!r}: {err}"]) from None
        return mesh
    gen = mesh_block.get("generator")
    if gen not in _GENERATOR_KEYS:
        raise ConfigError([f"unknown mesh generator {gen!r}; "
                           f"choose from {sorted(_GENERATOR_KEYS)}"])
    block = {"bend_angle": np.pi / 2, **mesh_block}
    errors = [e for key, count in _GENERATOR_KEYS[gen].items()
              for e in ([f"mesh.{key} is required for generator {gen!r}"] if key not in block
                        else _mesh_key_errors(key, block[key], count))]
    if errors:
        raise ConfigError(errors)
    size = block["length" if gen == "interval" else "extents"]
    try:
        if gen == "bent_channel":
            mesh = generate_bent_channel_tet(*size, block["resolution"],
                                             bend_angle=block["bend_angle"])
        else:
            mesh = {"interval": generate_interval, "rect_tri": generate_rect_tri,
                    "box_tet": generate_box_tet}[gen](size, block["resolution"])
        mesh.element_data()
    except ValueError as err:   # the checked keys leave a bend too tight for the height
        raise ConfigError([f"mesh.extents: {err}"]) from None
    return mesh


def _floats(values, what: str) -> np.ndarray:
    """values as a float array; a ConfigError naming what unless they are finite numbers."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):     # None reads as nan
        raise ConfigError([f"{what} must be finite numbers (got {values!r})"])
    return arr


def mode_table(entries, n_modes: int, what: str) -> np.ndarray:
    """(2N-1,) complex vector from a list of [re, im] rows for modes 0..N-1.

    what names the table in the ConfigError of a table that is not numeric
    or has too many rows or columns.
    """
    arr = _floats(entries, what)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] > n_modes or arr.shape[1] > 2:
        raise ConfigError([f"{what}: expected at most {n_modes} rows of [re, im]"])
    pos = np.zeros(n_modes, dtype=complex)
    pos[:arr.shape[0]] = arr[:, 0] + (1j * arr[:, 1] if arr.shape[1] == 2 else 0.0)
    return SpectralCoeffs.from_positive_modes(pos).values


def _bc_coeffs(bc: Dict[str, Any], physics_kind: str, n_modes: int, name: str,
               truncation: Dict[str, float]) -> np.ndarray:
    """Modes of a bc from the table or the time samples _BC_DATA names for it.

    Sampled data records its relative truncation error in truncation[name].
    """
    key = _BC_DATA[physics_kind, bc["kind"]]
    if f"{key}_modes" in bc:
        return mode_table(bc[f"{key}_modes"], n_modes, f"bcs.{name}.{key}_modes")
    samples = _floats(bc[f"{key}_samples"], f"bcs.{name}.{key}_samples")
    try:
        coeffs = fourier_coefficients(samples, n_modes)
    except ValueError as err:
        raise ConfigError([f"bcs.{name}.{key}_samples: {err}"]) from None
    recon = evaluate_field_in_time(coeffs.values, np.arange(samples.size) / samples.size,
                                   2 * np.pi)
    scale = np.linalg.norm(samples)
    truncation[name] = float(np.linalg.norm(samples - recon) / scale) if scale > 0 else 0.0
    return coeffs.values


def _groups_of(bc: Dict[str, Any]) -> List[str]:
    if "groups" in bc:
        return list(bc["groups"])
    return [bc["group"]]


def build_case(config: CaseConfig, mesh: Mesh):
    """Instantiate the scalar or flow case; returns (case, info dict).

    info carries the truncation error of sample-specified boundary data.
    """
    phys = config.physics
    n_modes = int(phys["n_modes"])
    m = n_coeffs(n_modes)
    errors: List[str] = []
    for name, bc in config.bcs.items():
        for g in _groups_of(bc):
            if g not in mesh.facet_groups:
                errors.append(f"bcs.{name}: facet group {g!r} not in mesh "
                              f"(available: {sorted(mesh.facet_groups)})")
    if errors:
        raise ConfigError(errors)

    info: Dict[str, Any] = {"truncation": {}}
    trunc = info["truncation"]
    if phys["kind"] == "scalar":
        dirichlet = {}
        neumann = {}
        for name, bc in config.bcs.items():
            for g in _groups_of(bc):
                if bc["kind"] == "noslip":
                    dirichlet[g] = np.zeros(m, dtype=complex)
                elif bc["kind"] == "dirichlet":
                    dirichlet[g] = _bc_coeffs(bc, "scalar", n_modes, name, trunc)
                else:
                    neumann[g] = _bc_coeffs(bc, "scalar", n_modes, name, trunc)
        vel = mode_table(phys.get("velocity_modes", [[0.0, 0.0]]), n_modes,
                         "physics.velocity_modes")
        velocity = np.zeros((mesh.n_nodes, mesh.dim, m), dtype=complex)
        velocity[:, 0, :] = vel
        return _constructed(ScalarCase, kappa=float(phys["kappa"]), omega=float(phys["omega"]),
                            n_modes=n_modes, velocity=velocity, dirichlet=dirichlet,
                            neumann=neumann, c_i=phys.get("c_i"),
                            backflow_beta=float(phys.get("backflow_beta", 0.0)),
                            galerkin_only=bool(phys.get("galerkin_only", False))), info

    dirichlet = {}
    walls = []
    neumann = {}
    for name, bc in config.bcs.items():
        kind = bc["kind"]
        axis = bc.get("axis", 0)
        if kind == "dirichlet" and not (type(axis) is int and 0 <= axis < mesh.dim):
            raise ConfigError([f"bcs.{name}.axis must be an integer in [0, {mesh.dim}) "
                               f"(got {axis!r})"])
        for g in _groups_of(bc):
            if kind == "noslip":
                walls.append(g)
            elif kind == "neumann":
                neumann[g] = _bc_coeffs(bc, "ns", n_modes, name, trunc)
            elif kind == "parabolic_inflow":
                vals = _bc_coeffs(bc, "ns", n_modes, name, trunc)
                dirichlet[g] = parabolic_inflow(mesh, g, SpectralCoeffs(n_modes, vals))
            elif kind == "dirichlet":
                arr = np.zeros((mesh.dim, m), dtype=complex)
                arr[axis] = _bc_coeffs(bc, "ns", n_modes, name, trunc)
                dirichlet[g] = arr
    return _constructed(NSCase, rho=float(phys["rho"]), mu=float(phys["mu"]),
                        omega=float(phys["omega"]), n_modes=n_modes,
                        dirichlet=dirichlet, walls=walls, neumann=neumann,
                        c_i=phys.get("c_i"),
                        backflow_beta=float(phys.get("backflow_beta", 0.0))), info


def _constructed(case_type, **values):
    """case_type(**values), its ValueError (which starts with the field name) a ConfigError."""
    try:
        return case_type(**values)
    except ValueError as err:
        raise ConfigError([f"physics.{err}"]) from err


def build_solver_config(solver_block: Dict[str, Any]) -> SolverConfig:
    """The SolverConfig of a solver block: its given keys, SolverConfig's defaults for the rest.

    As in the physics block, a value of the wrong type is a ConfigError,
    not coerced: the integer keys take integers, the others numbers (or
    for pseudo_dt one of its named values).
    """
    values = {}
    for key in sorted(_KNOWN_KEYS["solver"] & set(solver_block)):
        raw = solver_block[key]
        whole = key in ("krylov_dim", "max_linear_iters", "max_steps")
        if key == "pseudo_dt" and raw in ("auto", None, "inf", ".inf", "newton"):
            values[key] = None if raw in ("auto", None) else np.inf
        elif (type(raw) is int) if whole else _is_number(raw):
            values[key] = raw if whole else float(raw)
        else:
            raise ConfigError([f"solver.{key} must be {'an integer' if whole else 'a number'} "
                               f"(got {raw!r})"])
    try:
        return SolverConfig(**values)
    except ValueError as err:   # the message starts with the field name
        raise ConfigError([f"solver.{err}"]) from err
