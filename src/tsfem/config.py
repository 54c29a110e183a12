"""YAML case configuration: parsing, validation and case construction.

A case file has four sections: physics, mesh, bcs and solver, plus an
optional output section.  Boundary data is given either as a mode table
(list of [re, im] pairs for modes 0..N-1) or as uniform time samples over
one period, which are converted to modes with the physics-block N; the
induced truncation error is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple

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
           "serialize_config", "load_yaml", "read_yaml", "dump_yaml", "build_mesh",
           "build_case", "mode_table", "KEY_KINDS", "check_block"]

# libyaml's C scanner, parser and emitter where PyYAML was built with them, else
# the pure-Python classes: both give the same mappings and text, since construction
# and tag resolution stay PyYAML's SafeConstructor and Resolver, but the C scanner
# parses a case file several times faster.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


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


class Kind(NamedTuple):
    """A kind of config value: its name in messages and the test a value of it passes."""
    name: str
    test: Callable[[Any], bool]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _list_of(test, count=None):
    return lambda v: isinstance(v, list) and count in (None, len(v)) and all(map(test, v))


def _is_table(value) -> bool:
    """A list of finite numbers, or a list of rows of them of one nonzero length."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        return len(value[0]) > 0 and all(map(_list_of(_is_finite, len(value[0])), value))
    return _list_of(_is_finite)(value)


def _integer(least: int) -> Kind:
    return Kind(f"an integer >= {least}", lambda v: type(v) is int and v >= least)


def _one_of(*values) -> Kind:
    return Kind(f"one of {sorted(values)}", lambda v: v in values)


def _size(whole: bool, count=None) -> Kind:
    """A mesh size: count values > 0 (one if None), integers if whole else finite numbers."""
    one, many = ("an integer", "integers") if whole else ("a number", "numbers")
    test = (lambda v: type(v) is int and v > 0) if whole else (lambda v: _is_finite(v) and v > 0)
    if count is None:
        return Kind(f"{one} > 0", test)
    return Kind(f"a list of {count} {many} > 0", _list_of(test, count))


NUMBER = Kind("a number", _is_finite)
STRING = Kind("a string", lambda v: isinstance(v, str))
INTEGER = Kind("an integer", lambda v: type(v) is int)
MAPPING = Kind("a mapping", lambda v: isinstance(v, dict))
TABLE = Kind("finite numbers", _is_table)    # a mode table or time samples
_SWEEP = Kind("a list of at least two integers >= 1",
              lambda v: _list_of(_integer(1).test)(v) and len(v) >= 2)
_PSEUDO_DT_NAMES = ("auto", None, "inf", ".inf", "newton")
_BC = {"kind": STRING, "group": STRING, "groups": Kind("a list of strings", _list_of(STRING.test))}


# The keys each config block reads and the kind of value each takes; any other
# key is a typo.  A mesh block reads those of its generator, or path alone
# ("mesh <generator>", "mesh path"); a bc those of its physics and bc kind
# ("bcs <physics kind> <bc kind>"), with exactly one of its data keys.
KEY_KINDS: Dict[str, Dict[str, Kind]] = {
    "physics": {"kind": _one_of("ns", "scalar"), "rho": NUMBER, "mu": NUMBER, "kappa": NUMBER,
                "omega": Kind("a number >= 0", lambda v: _is_finite(v) and v >= 0),
                "n_modes": _integer(1), "backflow_beta": NUMBER, "c_i": NUMBER,
                "velocity_modes": TABLE,
                "galerkin_only": Kind("true or false", lambda v: type(v) is bool)},
    "mesh interval": {"generator": STRING, "length": _size(False), "resolution": _size(True)},
    "mesh rect_tri": {"generator": STRING, "extents": _size(False, 2),
                      "resolution": _size(True, 2)},
    "mesh box_tet": {"generator": STRING, "extents": _size(False, 3),
                     "resolution": _size(True, 3)},
    "mesh bent_channel": {"generator": STRING, "extents": _size(False, 3),
                          "resolution": _size(True, 3), "bend_angle": _size(False)},
    "mesh path": {"path": STRING},
    "bcs scalar dirichlet": {**_BC, "phi_modes": TABLE, "phi_samples": TABLE},
    "bcs scalar neumann": {**_BC, "flux_modes": TABLE, "flux_samples": TABLE},
    "bcs scalar noslip": _BC,
    "bcs ns dirichlet": {**_BC, "velocity_modes": TABLE, "velocity_samples": TABLE,
                         "axis": INTEGER},
    "bcs ns neumann": {**_BC, "h_modes": TABLE, "h_samples": TABLE},
    "bcs ns parabolic_inflow": {**_BC, "flow_modes": TABLE, "flow_samples": TABLE},
    "bcs ns noslip": _BC,
    "solver": {"eps_nr": NUMBER, "eps_ls": NUMBER, "krylov_dim": INTEGER,
               "max_linear_iters": INTEGER, "max_steps": INTEGER,
               "pseudo_dt": Kind("a number", lambda v: _is_number(v) or v in _PSEUDO_DT_NAMES)},
    "output": {"directory": STRING, "trace_samples": _integer(1),
               "fields_t_samples": Kind("a list of finite numbers", _list_of(_is_finite))},
    "study": {"kind": _one_of("mode_sweep", "h_sweep"), "case": MAPPING, "reference": MAPPING,
              "modes": _SWEEP, "resolutions": _SWEEP, "directory": STRING},
    "study.reference": {"group": STRING, "dt_per_cycle": _integer(1), "n_cycles": _integer(2),
                        "ramp_steps": _integer(0), "n_fit": _integer(1)},
}
_GENERATORS = sorted({name.split()[1] for name in KEY_KINDS if name.startswith("mesh ")} - {"path"})
_BC_KINDS = sorted({name.split()[2] for name in KEY_KINDS if name.startswith("bcs ")})
# the physics keys each physics kind needs besides kind, omega and n_modes
_PHYSICS_NEEDS = {"ns": ("rho", "mu"), "scalar": ("kappa",)}


def check_block(path: str, block: Dict[str, Any], kinds: Dict[str, Kind], required=()) -> List[str]:
    """Each required key the block at path lacks, key outside kinds and value not of its kind."""
    errors = [f"{path}.{key} is required" for key in required if key not in block]
    for key in sorted(block, key=str):
        kind = kinds.get(key)
        if kind is None:
            errors.append(f"unknown key {path}.{key}; known keys: {sorted(kinds)}")
        elif not kind.test(block[key]):
            errors.append(f"{path}.{key} must be {kind.name} (got {block[key]!r})")
    return errors


def load_yaml(text, where: str = "<text>") -> Any:
    """The data of YAML text (str, or bytes in a YAML encoding).

    Malformed YAML is a ConfigError naming where and, when the parser
    marks one, the 1-based line and column of the problem.
    """
    try:
        return yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        at = f"{where}:{mark.line + 1}:{mark.column + 1}" if mark is not None else where
        problem = getattr(err, "problem", None) or str(err).splitlines()[0]
        raise ConfigError([f"{at}: malformed YAML: {problem}"]) from None


def read_yaml(path) -> Any:
    """The data of a YAML file; a file that cannot be read or parsed is a ConfigError."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise ConfigError([f"{path}: cannot read: {err.strerror or err}"]) from None
    return load_yaml(data, str(path))


def dump_yaml(data: Any, stream=None):
    """data as YAML with sorted keys, written to stream, or returned as text if stream is None."""
    return yaml.dump(data, stream, Dumper=YAML_DUMPER, sort_keys=True)


def parse_config(text: str) -> CaseConfig:
    return config_from_mapping(load_yaml(text))


def config_from_mapping(raw: Any) -> CaseConfig:
    """Validate a case given as a mapping (a parsed case file or a study's case block)."""
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a mapping"])
    errors = [f"missing section {section!r}" for section in ("physics", "mesh", "bcs")
              if section not in raw]
    sections = {section: raw.get(section, {})
                for section in ("physics", "mesh", "bcs", "solver", "output")}
    errors += [f"{section} must be a mapping (got {block!r})"
               for section, block in sections.items() if not isinstance(block, dict)]
    if errors:
        raise ConfigError(errors)

    physics, mesh_block, bcs, solver, output = (dict(block) for block in sections.values())
    kind = str(physics.get("kind"))     # text, so that a kind of any type can be looked up
    errors = check_block("physics", physics, KEY_KINDS["physics"],
                         ("kind", "omega", "n_modes", *_PHYSICS_NEEDS.get(kind, ())))
    errors += _mesh_errors(mesh_block)
    if kind == "scalar" and not any(isinstance(bc, dict) and bc.get("kind") in
                                    ("dirichlet", "noslip") for bc in bcs.values()):
        errors.append("bcs: a scalar case needs a dirichlet or noslip bc")
    for name, bc in bcs.items():
        if not isinstance(bc, dict):
            errors.append(f"bcs.{name} must be a mapping (got {bc!r})")
            continue
        if bc.get("kind") not in _BC_KINDS:
            errors.append(f"bcs.{name}.kind must be one of {_BC_KINDS} (got {bc.get('kind')!r})")
            continue
        if "group" not in bc and "groups" not in bc:
            errors.append(f"bcs.{name} needs 'group' or 'groups'")
        kinds = KEY_KINDS.get(f"bcs {kind} {bc['kind']}")
        if kinds is None:       # an invalid physics kind is reported above
            if kind in _PHYSICS_NEEDS:
                errors.append(f"bcs.{name}: kind {bc['kind']!r} not valid for {kind} physics")
            continue
        errors += check_block(f"bcs.{name}", bc, kinds)
        data = [key for key in kinds if key.endswith(("_modes", "_samples"))]
        if data and sum(key in bc for key in data) != 1:
            errors.append(f"bcs.{name}: give exactly one of {data[0]} or {data[1]}")
    errors += check_block("solver", solver, KEY_KINDS["solver"])
    errors += check_block("output", output, KEY_KINDS["output"])
    if errors:
        raise ConfigError(errors)
    return CaseConfig(physics, mesh_block, {k: dict(v) for k, v in bcs.items()}, solver, output)


def load_config(path) -> CaseConfig:
    return config_from_mapping(read_yaml(path))


def serialize_config(config: CaseConfig) -> str:
    return dump_yaml(config.normalized())


def _mesh_errors(block: Dict[str, Any]) -> List[str]:
    """The errors of a mesh block: it names a generator or a path, and reads their keys."""
    if ("generator" in block) == ("path" in block):
        return ["mesh needs exactly one of 'generator' or 'path'"]
    kinds = KEY_KINDS.get("mesh path" if "path" in block else f"mesh {block['generator']}")
    if kinds is None:
        return [f"mesh.generator must be one of {_GENERATORS} (got {block['generator']!r})"]
    return check_block("mesh", block, kinds, [key for key in kinds if key != "bend_angle"])


def build_mesh(mesh_block: Dict[str, Any]) -> Mesh:
    """The mesh a mesh block loads (relative to the working directory) or generates.

    Its element data is built, and a loaded mesh passes validate_mesh.  A
    bad file, a key missing, unknown or of the wrong kind, or a bend too
    tight is a ConfigError naming mesh.path or mesh.<key>.
    """
    errors = _mesh_errors(mesh_block)
    if errors:
        raise ConfigError(errors)
    if "path" in mesh_block:
        try:
            mesh = load_mesh(Path(mesh_block["path"]))
            validate_mesh(mesh)
        except (OSError, ValueError) as err:
            raise ConfigError([f"mesh.path {mesh_block['path']!r}: {err}"]) from None
        return mesh
    gen = mesh_block["generator"]
    block = {"bend_angle": np.pi / 2, **mesh_block}
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


def mode_table(entries, n_modes: int, what: str) -> np.ndarray:
    """(2N-1,) complex vector from a list of [re, im] rows for modes 0..N-1.

    what names the table in the ConfigError of a table with too many rows
    or columns.
    """
    arr = np.atleast_2d(np.asarray(entries, dtype=float).T).T    # a flat list is one column
    if arr.shape[0] > n_modes or arr.shape[1] > 2:
        raise ConfigError([f"{what}: expected at most {n_modes} rows of [re, im]"])
    pos = np.zeros(n_modes, dtype=complex)
    pos[:arr.shape[0]] = arr[:, 0] + (1j * arr[:, 1] if arr.shape[1] == 2 else 0.0)
    return SpectralCoeffs.from_positive_modes(pos).values


def _bc_coeffs(bc: Dict[str, Any], n_modes: int, name: str,
               truncation: Dict[str, float]) -> np.ndarray:
    """Modes of a bc from its one data key: a mode table (*_modes) or time samples (*_samples).

    Sampled data records its relative truncation error in truncation[name].
    """
    key = next(key for key in bc if key.endswith(("_modes", "_samples")))
    if key.endswith("_modes"):
        return mode_table(bc[key], n_modes, f"bcs.{name}.{key}")
    samples = np.asarray(bc[key], dtype=float)
    try:
        coeffs = fourier_coefficients(samples, n_modes)
    except ValueError as err:
        raise ConfigError([f"bcs.{name}.{key}: {err}"]) from None
    recon = evaluate_field_in_time(coeffs.values, np.arange(samples.size) / samples.size,
                                   2 * np.pi)
    scale = np.linalg.norm(samples)
    truncation[name] = float(np.linalg.norm(samples - recon) / scale) if scale > 0 else 0.0
    return coeffs.values


def _groups_of(bc: Dict[str, Any]) -> List[str]:
    return list(bc["groups"]) if "groups" in bc else [bc["group"]]


def build_case(config: CaseConfig, mesh: Mesh):
    """Instantiate the scalar or flow case; returns (case, info dict).

    info carries the truncation error of sample-specified boundary data.
    """
    phys = config.physics
    n_modes = phys["n_modes"]
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
                    dirichlet[g] = _bc_coeffs(bc, n_modes, name, trunc)
                else:
                    neumann[g] = _bc_coeffs(bc, n_modes, name, trunc)
        vel = mode_table(phys.get("velocity_modes", [[0.0, 0.0]]), n_modes,
                         "physics.velocity_modes")
        velocity = np.zeros((mesh.n_nodes, mesh.dim, m), dtype=complex)
        velocity[:, 0, :] = vel
        return _constructed(ScalarCase, kappa=float(phys["kappa"]), omega=float(phys["omega"]),
                            n_modes=n_modes, velocity=velocity, dirichlet=dirichlet,
                            neumann=neumann, c_i=phys.get("c_i"),
                            backflow_beta=float(phys.get("backflow_beta", 0.0)),
                            galerkin_only=phys.get("galerkin_only", False)), info

    dirichlet = {}
    walls = []
    neumann = {}
    for name, bc in config.bcs.items():
        kind = bc["kind"]
        axis = bc.get("axis", 0)
        if kind == "dirichlet" and not 0 <= axis < mesh.dim:
            raise ConfigError([f"bcs.{name}.axis must be an integer in [0, {mesh.dim}) "
                               f"(got {axis!r})"])
        for g in _groups_of(bc):
            if kind == "noslip":
                walls.append(g)
            elif kind == "neumann":
                neumann[g] = _bc_coeffs(bc, n_modes, name, trunc)
            elif kind == "parabolic_inflow":
                vals = _bc_coeffs(bc, n_modes, name, trunc)
                try:    # a group the profile cannot fill, or a 1D mesh
                    dirichlet[g] = parabolic_inflow(mesh, g, SpectralCoeffs(n_modes, vals))
                except ValueError as err:
                    raise ConfigError([f"bcs.{name}: {err}"]) from None
            elif kind == "dirichlet":
                arr = np.zeros((mesh.dim, m), dtype=complex)
                arr[axis] = _bc_coeffs(bc, n_modes, name, trunc)
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

    A key outside KEY_KINDS["solver"] or a value not of its kind is a ConfigError, not
    coerced.  pseudo_dt also takes auto or null (None) and inf, .inf or newton (np.inf).
    """
    errors = check_block("solver", solver_block, KEY_KINDS["solver"])
    if errors:
        raise ConfigError(errors)
    values = {key: raw if KEY_KINDS["solver"][key] is INTEGER else float(raw)
              for key, raw in solver_block.items() if _is_number(raw)}
    if solver_block.get("pseudo_dt") in ("inf", ".inf", "newton"):
        values["pseudo_dt"] = np.inf
    try:
        return SolverConfig(**values)
    except ValueError as err:   # the message starts with the field name
        raise ConfigError([f"solver.{err}"]) from err
