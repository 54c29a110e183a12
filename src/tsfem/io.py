"""VTK-legacy ASCII and CSV output writers."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from .mesh import Mesh
from .spectral import evaluate_field_in_time

__all__ = ["export_mesh_vtk", "export_fields", "export_traces"]

_VTK_CELL_TYPE = {"line2": 3, "tri3": 5, "tet4": 10}


def _write_vtk(path, mesh: Mesh, point_data: Dict[str, np.ndarray]) -> None:
    n_nodes = mesh.n_nodes
    nen = mesh.elements.shape[1]
    points = np.zeros((n_nodes, 3))
    points[:, :mesh.dim] = mesh.coords
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("tsfem fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n_nodes} double\n")
        for row in points:
            fh.write(" ".join(f"{v:.12g}" for v in row) + "\n")
        fh.write(f"CELLS {mesh.n_elements} {mesh.n_elements * (nen + 1)}\n")
        for row in mesh.elements:
            fh.write(str(nen) + " " + " ".join(str(int(v)) for v in row) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_elements}\n")
        code = _VTK_CELL_TYPE[mesh.elem_type]
        for _ in range(mesh.n_elements):
            fh.write(f"{code}\n")
        if point_data:
            fh.write(f"POINT_DATA {n_nodes}\n")
        for name, data in point_data.items():
            data = np.asarray(data, dtype=float)
            if data.ndim == 1:
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in data:
                    fh.write(f"{v:.12g}\n")
            else:
                vec = np.zeros((n_nodes, 3))
                vec[:, :data.shape[1]] = data
                fh.write(f"VECTORS {name} double\n")
                for row in vec:
                    fh.write(" ".join(f"{v:.12g}" for v in row) + "\n")


def export_mesh_vtk(mesh: Mesh, path) -> Path:
    path = Path(path)
    _write_vtk(path, mesh, {})
    return path


def export_fields(mesh: Mesh, t_samples: Sequence[float], omega: float,
                  directory, *,
                  velocity: Optional[np.ndarray] = None,
                  pressure: Optional[np.ndarray] = None,
                  scalar: Optional[np.ndarray] = None) -> list[Path]:
    """One VTK file per time sample, fields_<k>.vtk, with the reconstructed point data.

    velocity is a nodal mode array (n, dim, 2N-1), pressure and scalar
    (n, 2N-1); each is evaluated at the sample times before writing.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, t in enumerate(t_samples):
        data: Dict[str, np.ndarray] = {}
        if velocity is not None:
            data["velocity"] = evaluate_field_in_time(velocity, float(t), omega)
        if pressure is not None:
            data["pressure"] = evaluate_field_in_time(pressure, float(t), omega)
        if scalar is not None:
            data["scalar"] = evaluate_field_in_time(scalar, float(t), omega)
        path = directory / f"fields_{k:04d}.vtk"
        _write_vtk(path, mesh, data)
        paths.append(path)
    return paths


def export_traces(times: np.ndarray, columns: Dict[str, np.ndarray], path) -> Path:
    """CSV table: first column t, one column per named trace."""
    path = Path(path)
    names = list(columns)
    with open(path, "w") as fh:
        fh.write("t," + ",".join(names) + "\n")
        for i, t in enumerate(times):
            row = [repr(float(t))] + [repr(float(columns[n][i])) for n in names]
            fh.write(",".join(row) + "\n")
    return path
