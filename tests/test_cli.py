import logging
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import tsfem.cli as cli
import tsfem.config as config_module
import tsfem.linsolve as linsolve
import tsfem.navier_stokes as navier_stokes
import tsfem.scalar as scalar
import tsfem.time_domain as time_domain
from tsfem.cli import main, run_case, sweep
from tsfem.config import (
    KEY_KINDS,
    CaseConfig,
    ConfigError,
    build_case,
    build_mesh,
    build_solver_config,
    config_from_mapping,
    dump_yaml,
    load_config,
    parse_config,
    read_yaml,
    serialize_config,
)
from tsfem.spectral import SpectralCoeffs, evaluate_field_in_time

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_CASES = Path(__file__).resolve().parent.parent / "benchmarks" / "cases"
BUNDLED = sorted(CONFIG_DIR.glob("*.yaml")) + sorted(BENCH_CASES.glob("*.yaml"))
# a flow sequence left open: both parsers mark the problem at line 3, column 5
MALFORMED = "physics:\n  rho: [1, 2\n  mu: 0.1\n"


def reduced_bent_study(tmp_path) -> Path:
    """The bundled bent study at modes [1, 2], 2 cycles of 12 steps, on a 3x2x2 mesh."""
    study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
    study["study"]["modes"] = [1, 2]
    study["study"]["reference"].update(dt_per_cycle=12, n_cycles=2, ramp_steps=2)
    study["study"]["case"]["mesh"]["resolution"] = [3, 2, 2]
    path = tmp_path / "study.yaml"
    path.write_text(yaml.safe_dump(study))
    return path


class TestConfigParsing:
    def test_solver_defaults_are_solver_config_defaults(self):
        assert build_solver_config({}) == linsolve.SolverConfig()
        assert build_solver_config({"pseudo_dt": "auto"}) == linsolve.SolverConfig()
        assert build_solver_config({"eps_nr": 1e-4}) == linsolve.SolverConfig(eps_nr=1e-4)

    def test_round_trip_semantically_identical(self):
        text = (CONFIG_DIR / "steady_channel.yaml").read_text()
        config = parse_config(text)
        again = parse_config(serialize_config(config))
        assert again.normalized() == config.normalized()

    def test_all_errors_reported_at_once(self):
        bad = """
physics: {kind: bogus, n_modes: 0}
mesh: {}
bcs:
  inlet: {kind: weird}
"""
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        messages = err.value.errors
        assert len(messages) >= 4
        joined = "\n".join(messages)
        assert "physics.kind" in joined
        assert "n_modes" in joined
        assert "generator" in joined
        assert "inlet" in joined

    def test_unknown_keys_named(self):
        bad = """
physics: {kind: ns, rho: 1.0, mu: 0.1, omega: 1.0, n_modes: 2, backflow_bta: 0.2}
mesh: {generator: interval, length: 1.0, resolution: 4}
bcs:
  inlet: {group: left, kind: parabolic_inflow, flow_modes: [[1, 0]], typo_key: 1}
  wall: {group: right, kind: noslip, axs: 1}
solver: {eps_nr: 1.0e-3, eps_lss: 0.01}
output: {trace_sample: 8}
"""
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        joined = "\n".join(err.value.errors)
        for name in ("physics.backflow_bta", "solver.eps_lss", "output.trace_sample",
                     "bcs.inlet.typo_key", "bcs.wall.axs"):
            assert f"unknown key {name}" in joined
        assert "unknown key solver.eps_nr" not in joined

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
    def test_bundled_configs_validate(self, path, capsys):
        raw = yaml.safe_load(path.read_text())
        text = yaml.safe_dump(raw["study"]["case"]) if "study" in raw else path.read_text()
        config = parse_config(text)
        build_case(config, build_mesh(config.mesh))
        assert main(["validate-config", str(path)]) == 0
        assert "configuration is valid" in capsys.readouterr().out

    @pytest.mark.parametrize("table, key", [
        pytest.param(table, key, id=f"{table.replace(' ', '-')}.{key}")
        for table, kinds in KEY_KINDS.items() for key in kinds])
    def test_every_table_key_rejects_values_of_another_kind(self, table, key):
        # each key of the table, set to values its kind rejects, is named by the entry
        # point that reads its block: build_mesh, config_from_mapping,
        # build_solver_config or cli._study_case
        kind = KEY_KINDS[table][key]
        wrong = [value for value in ({"wrong": 1}, "x", 1.5) if not kind.test(value)]
        assert len(wrong) >= 2
        block, *variant = table.split()
        for value in wrong:
            # raw is what check reads, target the block in it that gets the value
            path = "bcs.probe" if block == "bcs" else block
            if block == "mesh":
                raw = {"path": "unread.mesh"} if variant == ["path"] else {"generator": variant[0]}
                target, check = raw, build_mesh
            elif block == "solver":
                raw = target = {}
                check = build_solver_config
            elif block.startswith("study"):
                raw = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())["study"]
                target = raw["reference"] if block == "study.reference" else raw
                check = cli._study_case
            else:
                name = "tracer_1d.yaml" if variant[:1] == ["scalar"] else "steady_channel.yaml"
                raw, check = yaml.safe_load((CONFIG_DIR / name).read_text()), config_from_mapping
                target = (raw["bcs"].setdefault("probe", {"kind": variant[1], "group": "xmin"})
                          if block == "bcs" else raw[block])
            target[key] = value
            with pytest.raises(ConfigError) as err:
                check(raw)
            assert any(e.startswith(f"{path}.{key} must be ") and e.endswith(f"(got {value!r})")
                       for e in err.value.errors), err.value.errors

    def test_exactly_one_data_source_per_bc(self):
        bad = """
physics: {kind: ns, rho: 1.0, mu: 0.1, omega: 1.0, n_modes: 2}
mesh: {generator: interval, length: 1.0, resolution: 4}
bcs:
  inlet: {group: left, kind: parabolic_inflow,
          flow_modes: [[1, 0]], flow_samples: [1, 1, 1, 1]}
"""
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(bad)

    def test_unknown_facet_group_named(self):
        text = """
physics: {kind: scalar, kappa: 0.1, omega: 0.0, n_modes: 1}
mesh: {generator: interval, length: 1.0, resolution: 4}
bcs:
  inlet: {group: nonexistent, kind: dirichlet, phi_modes: [[1, 0]]}
"""
        config = parse_config(text)
        mesh = build_mesh(config.mesh)
        with pytest.raises(ConfigError, match="nonexistent"):
            build_case(config, mesh)


class TestYamlHelpers:
    def test_helpers_use_libyaml_when_pyyaml_has_it(self):
        # the pure-Python scanner takes most of a case's set-up time
        if yaml.__with_libyaml__:
            assert config_module.YAML_LOADER is yaml.CSafeLoader
            assert config_module.YAML_DUMPER is yaml.CSafeDumper
        else:
            assert config_module.YAML_LOADER is yaml.SafeLoader
            assert config_module.YAML_DUMPER is yaml.SafeDumper

    @staticmethod
    def _pure_python(monkeypatch):
        monkeypatch.setattr(config_module, "YAML_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(config_module, "YAML_DUMPER", yaml.SafeDumper)

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
    def test_libyaml_and_pure_python_read_and_write_alike(self, path, monkeypatch):
        def read_and_write():
            raw = read_yaml(path)
            config = config_from_mapping(raw["study"]["case"] if "study" in raw else raw)
            return raw, serialize_config(config), dump_yaml(raw)

        fast = read_and_write()
        self._pure_python(monkeypatch)
        pure = read_and_write()
        assert pure[0] == fast[0] and repr(pure[0]) == repr(fast[0])
        assert pure[1:] == fast[1:]

    def test_libyaml_and_pure_python_dump_results_alike(self, tmp_path, monkeypatch):
        summary = run_case(load_config(CONFIG_DIR / "steady_channel.yaml"), tmp_path / "run")
        summary.wall_time = 1.5
        summary.updates = [u._replace(assembly_s=0.25, tau_s=0.125, linear_s=0.5,
                                      precond_s=0.0625) for u in summary.updates]
        path = reduced_bent_study(tmp_path)
        table = sweep(path, tmp_path / "sweep")
        table.update(reference_seconds=2.0, reference_assembly_s=0.75, reference_linear_s=0.5)
        for row in table["rows"]:
            row.update(seconds=0.5, cost_ratio=0.25)
        results = (summary.to_dict(), table)
        fast = [dump_yaml(data) for data in results]
        self._pure_python(monkeypatch)
        assert [dump_yaml(data) for data in results] == fast
        assert len(summary.updates) >= 1 and len(table["rows"]) == 2

    @pytest.mark.parametrize("pure", [False, True], ids=["libyaml", "pure_python"])
    def test_malformed_yaml_names_file_line_and_column(self, tmp_path, monkeypatch, pure):
        if pure:
            self._pure_python(monkeypatch)
        path = tmp_path / "case.yaml"
        path.write_text(MALFORMED)
        with pytest.raises(ConfigError) as err:
            read_yaml(path)
        [message] = err.value.errors
        assert message.startswith(f"{path}:3:5: malformed YAML: ")
        with pytest.raises(ConfigError, match=r"^invalid configuration:\n  - <text>:3:5: "):
            parse_config(MALFORMED)


class TestRun:
    def test_bundled_steady_channel(self, tmp_path):
        config = load_config(CONFIG_DIR / "steady_channel.yaml")
        t0 = time.perf_counter()
        summary = run_case(config, tmp_path / "out")
        assert time.perf_counter() - t0 < 600.0
        assert summary.converged
        # Poiseuille: outlet carries the prescribed flux 2/3
        q_out = summary.flows["xmax"]["flow_modes"][0][0]
        assert abs(q_out - 2.0 / 3.0) / (2.0 / 3.0) < 0.005
        assert (tmp_path / "out" / "summary.yaml").exists()
        assert (tmp_path / "out" / "traces.csv").exists()

    def test_bundled_pulsatile_bent_channel(self, tmp_path):
        config = load_config(CONFIG_DIR / "pulsatile_bent_channel.yaml")
        t0 = time.perf_counter()
        summary = run_case(config, tmp_path / "out")
        assert time.perf_counter() - t0 < 600.0
        assert summary.converged
        assert "inlet" in summary.truncation  # sampled waveform was truncated
        # inlet and outlet carry opposite steady flow
        q_in = summary.flows["xmin"]["flow_modes"][0][0]
        q_out = summary.flows["xmax"]["flow_modes"][0][0]
        assert abs(q_in + q_out) < 0.02 * abs(q_out)

    def test_deterministic_reruns(self, tmp_path):
        config = load_config(CONFIG_DIR / "tracer_1d.yaml")
        run_case(config, tmp_path / "a")
        run_case(config, tmp_path / "b")
        # CSVs are byte-identical; only wall time in the summary may differ
        for name in ("traces.csv",):
            if (tmp_path / "a" / name).exists():
                assert (tmp_path / "a" / name).read_bytes() == \
                    (tmp_path / "b" / name).read_bytes()
        sa = yaml.safe_load((tmp_path / "a" / "summary.yaml").read_text())
        sb = yaml.safe_load((tmp_path / "b" / "summary.yaml").read_text())
        sa.pop("wall_time"), sb.pop("wall_time")
        sa.pop("outputs"), sb.pop("outputs")
        assert sa == sb

    def test_trace_matches_mode_reconstruction(self, tmp_path):
        config = load_config(CONFIG_DIR / "pulsatile_bent_channel.yaml")
        config.mesh["resolution"] = [6, 2, 2]
        config.output["fields_t_samples"] = []
        summary = run_case(config, tmp_path / "out")
        assert summary.converged
        rows = np.loadtxt(tmp_path / "out" / "traces.csv", delimiter=",", skiprows=1)
        header = (tmp_path / "out" / "traces.csv").read_text().splitlines()[0].split(",")
        col = header.index("Q_xmax")
        modes = np.asarray(summary.flows["xmax"]["flow_modes"], dtype=float)
        coeffs = SpectralCoeffs.from_positive_modes(modes[:, 0] + 1j * modes[:, 1])
        omega = float(config.physics["omega"])
        for row in rows[:8]:
            assert row[col] == pytest.approx(
                evaluate_field_in_time(coeffs.values, row[0], omega), abs=1e-12)

    def test_unwritable_output_dir_fails_before_solve(self, tmp_path):
        config = load_config(CONFIG_DIR / "tracer_1d.yaml")
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="writable|directory"):
            run_case(config, blocker)
        assert time.perf_counter() - t0 < 1.0  # failed before any solve


class TestVTK:
    def test_legacy_format_conformance(self, tmp_path):
        config = load_config(CONFIG_DIR / "pulsatile_bent_channel.yaml")
        config.mesh["resolution"] = [4, 2, 2]
        config.output["fields_t_samples"] = [0.0, 1.0]
        run_case(config, tmp_path / "out")
        path = tmp_path / "out" / "fields_0000.vtk"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile Version")
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        ip = next(i for i, ln in enumerate(lines) if ln.startswith("POINTS"))
        n_points = int(lines[ip].split()[1])
        for k in range(n_points):
            assert len(lines[ip + 1 + k].split()) == 3
        ic = next(i for i, ln in enumerate(lines) if ln.startswith("CELLS"))
        n_cells, total = int(lines[ic].split()[1]), int(lines[ic].split()[2])
        assert total == n_cells * 5  # tet4: count + 4 ids
        it = next(i for i, ln in enumerate(lines) if ln.startswith("CELL_TYPES"))
        assert lines[it + 1] == "10"
        ipd = next(i for i, ln in enumerate(lines) if ln.startswith("POINT_DATA"))
        assert int(lines[ipd].split()[1]) == n_points
        assert any(ln.startswith("VECTORS velocity") for ln in lines)
        assert any(ln.startswith("SCALARS pressure") for ln in lines)

    def test_steady_samples_identical(self, tmp_path):
        config = load_config(CONFIG_DIR / "steady_channel.yaml")
        config.mesh["resolution"] = [4, 12]
        config.output["fields_t_samples"] = [0.0, 1.0]
        run_case(config, tmp_path / "out")
        a = (tmp_path / "out" / "fields_0000.vtk").read_bytes()
        b = (tmp_path / "out" / "fields_0001.vtk").read_bytes()
        assert a == b


class TestSweep:
    def test_single_point_sweep_rejected(self, tmp_path):
        study = {"study": {"kind": "h_sweep", "resolutions": [8],
                           "case": yaml.safe_load(
                               (CONFIG_DIR / "h_sweep_1d.yaml").read_text()
                           )["study"]["case"]}}
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
        with pytest.raises(ConfigError, match="two"):
            sweep(path, tmp_path / "out")

    def test_h_sweep_second_order(self, tmp_path):
        table = sweep(CONFIG_DIR / "h_sweep_1d.yaml", tmp_path / "out")
        assert table["order"] == pytest.approx(2.0, abs=0.1)
        assert (tmp_path / "out" / "sweep.yaml").exists()

    @staticmethod
    def _h_sweep(tmp_path, edit):
        raw = yaml.safe_load((CONFIG_DIR / "h_sweep_1d.yaml").read_text())
        edit(raw["study"]["case"])
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(raw))
        return sweep(path, tmp_path / "out")

    def test_h_sweep_takes_right_phi_samples(self, tmp_path):
        def edit(case):
            case["bcs"]["outlet"] = {"group": "right", "kind": "dirichlet",
                                     "phi_samples": [1.0, 1.0, 1.0, 1.0]}

        table = self._h_sweep(tmp_path, edit)
        modes = sweep(CONFIG_DIR / "h_sweep_1d.yaml", tmp_path / "modes")
        assert table["order"] == pytest.approx(2.0, abs=0.1)
        assert [r["error"] for r in table["rows"]] == pytest.approx(
            [r["error"] for r in modes["rows"]], rel=1e-12)

    @pytest.mark.parametrize("edit, match", [
        (lambda case: case["bcs"]["inlet"].update(phi_modes=[[0.5, 0.0]]), "phi = 0 on left"),
        (lambda case: case["physics"].update(n_modes=2, velocity_modes=[[0.8, 0], [0.6, 0]]),
         "steady velocity"),
    ], ids=["nonzero_left", "unsteady_velocity"])
    def test_h_sweep_rejects_data_its_oracle_cannot_take(self, tmp_path, edit, match):
        with pytest.raises(ConfigError, match=match):
            self._h_sweep(tmp_path, edit)

    def test_mode_sweep_monotone_error(self, tmp_path):
        table = sweep(CONFIG_DIR / "mode_sweep_bent.yaml", tmp_path / "out")
        rows = table["rows"]
        errs = [r["flow_error"] for r in rows]
        assert all(r["converged"] for r in rows)
        assert errs == sorted(errs, reverse=True)
        # flow error tracks the boundary truncation error
        for r in rows:
            assert r["flow_error"] <= 2 * r["truncation"] + 0.01


    @pytest.mark.parametrize("zero_flow", [False, True])
    def test_mode_sweep_truncation_is_build_case_truncation(self, tmp_path, zero_flow):
        study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        study["study"]["modes"] = [1, 2]
        study["study"]["reference"].update(dt_per_cycle=12, n_cycles=2, ramp_steps=2)
        case_block = study["study"]["case"]
        case_block["mesh"]["resolution"] = [3, 2, 2]
        inlet = case_block["bcs"]["inlet"]
        if zero_flow:
            inlet["flow_samples"] = [0.0] * len(inlet["flow_samples"])
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
        with warnings.catch_warnings():
            # a zero reference flow is guarded like a zero truncation scale
            warnings.simplefilter("error", RuntimeWarning)
            table = sweep(path, tmp_path / "out")
        mesh = build_mesh(case_block["mesh"])
        for row in table["rows"]:
            physics = dict(case_block["physics"], n_modes=row["n_modes"])
            _, info = build_case(CaseConfig(physics, case_block["mesh"], case_block["bcs"]), mesh)
            assert row["truncation"] == info["truncation"]["inlet"]
            assert (row["truncation"] == 0.0) == zero_flow
            assert np.isfinite(row["flow_error"])
            assert (row["flow_error"] == 0.0) == zero_flow
            assert (row["steps"] == 0) == zero_flow

    @staticmethod
    def _spy(monkeypatch, name) -> list:
        """The list that receives the result of each call of cli.<name>."""
        real = getattr(cli, name)
        results = []

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, name, recording)
        return results

    def test_mode_sweep_reports_time_reference_failures(self, tmp_path, monkeypatch):
        path = reduced_bent_study(tmp_path)
        real = cli.run_time_simulation

        def failing_reference(*args, **kwargs):
            result = real(*args, **kwargs)
            result.newton_failures = 3
            return result

        monkeypatch.setattr(cli, "run_time_simulation", failing_reference)
        with pytest.warns(UserWarning, match="'xmax': 3 time-reference steps"):
            sweep(path, tmp_path / "out")
        table = yaml.safe_load((tmp_path / "out" / "sweep.yaml").read_text())
        assert table["newton_failures"] == 3

    def test_mode_sweep_reports_time_reference_newton_iterations(self, tmp_path, monkeypatch):
        path = reduced_bent_study(tmp_path)
        results = self._spy(monkeypatch, "run_time_simulation")
        sweep(path, tmp_path / "out")
        iters = results[0].newton_iters
        assert len(iters) == 24 and min(iters) >= 1
        table = yaml.safe_load((tmp_path / "out" / "sweep.yaml").read_text())
        assert table["newton_iters_total"] == sum(iters)
        assert table["newton_iters_max"] == max(iters)

    def test_mode_sweep_reports_reference_work_and_cost_ratio(self, tmp_path, monkeypatch):
        path = reduced_bent_study(tmp_path)
        results = self._spy(monkeypatch, "run_time_simulation")
        sweep(path, tmp_path / "out")
        table = yaml.safe_load((tmp_path / "out" / "sweep.yaml").read_text())
        assert table["linear_solves_total"] == sum(results[0].linear_solves) > 0
        assert table["factorizations_total"] == sum(results[0].factorizations) >= 1
        assert table["reference_seconds"] > 0.0
        # the reference's layers, from its step records, fit in its wall time
        assert table["reference_assembly_s"] == pytest.approx(sum(results[0].assembly_seconds))
        assert table["reference_linear_s"] == pytest.approx(sum(results[0].linear_seconds))
        assert table["reference_assembly_s"] > 0.0 and table["reference_linear_s"] > 0.0
        assert (table["reference_assembly_s"] + table["reference_linear_s"]
                < table["reference_seconds"])
        for row in table["rows"]:
            assert row["seconds"] > 0.0
            assert row["cost_ratio"] == pytest.approx(row["seconds"] / table["reference_seconds"])

    def test_sweep_builds_one_mesh_and_checks_the_study_once(self, tmp_path, monkeypatch):
        meshes = self._spy(monkeypatch, "build_mesh")
        checks = self._spy(monkeypatch, "config_from_mapping")
        sweep(reduced_bent_study(tmp_path), tmp_path / "modes")
        assert (len(meshes), len(checks)) == (1, 1)
        # an h sweep builds one mesh per resolution
        meshes.clear()
        table = sweep(CONFIG_DIR / "h_sweep_1d.yaml", tmp_path / "h")
        assert [mesh.n_elements for mesh in meshes] == [8, 16, 32]
        assert len(table["rows"]) == 3

    def test_mode_sweep_called_directly_checks_its_study(self, tmp_path):
        study = yaml.safe_load(reduced_bent_study(tmp_path).read_text())["study"]
        study["reference"]["n_cycles"] = 1
        with pytest.raises(ConfigError, match="study.reference.n_cycles"):
            cli.mode_sweep(study, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("first", ["reference", "spectral"])
    def test_shared_mesh_changes_no_number(self, tmp_path, monkeypatch, first):
        # the sweep's rows and reference, on its one mesh, against each solve on a mesh of
        # its own; first names the solver that builds the shared mesh's caches
        path = reduced_bent_study(tmp_path)
        study = yaml.safe_load(path.read_text())["study"]
        base = config_from_mapping(study["case"])
        solver = build_solver_config(base.solver)
        configs = {n: CaseConfig(dict(base.physics, n_modes=n), base.mesh, base.bcs, base.solver)
                   for n in study["modes"]}
        alone = {n: run_case(cfg, tmp_path / f"alone{n}") for n, cfg in configs.items()}
        mesh = build_mesh(base.mesh)
        tcase, _ = cli._time_reference_case(base, study["reference"], mesh)
        expected = time_domain.run_time_simulation(tcase, mesh, solver, report_groups=["xmax"],
                                                   ramp_steps=2)
        if first == "spectral":
            real_build = cli.build_mesh

            def warmed(block):
                shared = real_build(block)
                navier_stokes.solve_ns(build_case(configs[2], shared)[0], shared, solver)
                return shared

            monkeypatch.setattr(cli, "build_mesh", warmed)
        results = self._spy(monkeypatch, "run_time_simulation")
        sweep(path, tmp_path / "out")
        (ref,) = results
        assert np.array_equal(ref.flow["xmax"], expected.flow["xmax"])
        assert np.array_equal(ref.times, expected.times)
        assert np.array_equal(ref.last_cycle_states[-1].velocity,
                              expected.last_cycle_states[-1].velocity)
        for key in ("newton_iters", "linear_solves", "factorizations", "cycle_change"):
            assert getattr(ref, key) == getattr(expected, key), key
        for n, summary in alone.items():
            row = read_yaml(tmp_path / "out" / f"n{n}" / "summary.yaml")
            assert row["steps"] == summary.steps
            assert row["residuals"] == summary.residuals
            assert row["flows"] == read_yaml(tmp_path / f"alone{n}" / "summary.yaml")["flows"]

    def test_sweep_logs_reference_cycles_and_spectral_updates(self, tmp_path, monkeypatch,
                                                              caplog):
        results = self._spy(monkeypatch, "run_time_simulation")
        with caplog.at_level(logging.DEBUG, logger="tsfem"):
            sweep(reduced_bent_study(tmp_path), tmp_path / "out")
        (ref,) = results
        cycles = [r for r in caplog.records if r.name == "tsfem.time_domain"]
        assert [r.levelno for r in cycles] == [logging.INFO] * 2
        for c, record in enumerate(cycles):
            steps = slice(12 * c, 12 * (c + 1))
            assert record.args[:2] == (c + 1, 2)
            assert record.args[3:5] == (sum(ref.newton_iters[steps]),
                                        sum(ref.factorizations[steps]))
            assert record.args[5] == pytest.approx(sum(ref.step_seconds[steps]))
        updates = [r.args for r in caplog.records if r.name == "tsfem.navier_stokes"]
        expected = []
        for n in (1, 2):
            row = read_yaml(tmp_path / "out" / f"n{n}" / "summary.yaml")
            expected += list(zip(range(1, len(row["pseudo_dts"]) + 1), row["residuals"],
                                 row["pseudo_dts"], row["linear_iters"]))
        assert len(expected) > 0
        assert updates == expected

    @pytest.mark.parametrize("section,key,known", [("study", "mode", "modes"),
                                                   ("study.reference", "dt_per_cyle",
                                                    "dt_per_cycle")])
    def test_study_unknown_key_rejected(self, tmp_path, capsys, section, key, known):
        study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        block = study["study"] if section == "study" else study["study"]["reference"]
        block[key] = 30
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
        message = rf"unknown key {section}\.{key}; known keys: \[.*'{known}'"
        with pytest.raises(ConfigError, match=message):
            sweep(path, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        assert main(["validate-config", str(path)]) == 2
        assert f"unknown key {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["mode_sweep_bent.yaml", "h_sweep_1d.yaml"])
    def test_study_case_unknown_key_rejected(self, tmp_path, capsys, name):
        study = yaml.safe_load((CONFIG_DIR / name).read_text())
        study["study"]["case"]["solver"]["eps_lss"] = 0.01
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
        with pytest.raises(ConfigError, match=r"unknown key solver\.eps_lss"):
            sweep(path, tmp_path / "out")
        assert main(["validate-config", str(path)]) == 2
        assert "unknown key solver.eps_lss" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key, value", [
        ("mode_sweep_bent.yaml", "modes", None),
        ("mode_sweep_bent.yaml", "modes", [3]),
        ("mode_sweep_bent.yaml", "reference.group", None),
        ("h_sweep_1d.yaml", "resolutions", None),
        ("h_sweep_1d.yaml", "kind", "p_sweep"),
    ])
    def test_study_required_keys_checked_by_both_verbs(self, tmp_path, capsys, name, key,
                                                       value):
        # value None deletes the key
        raw = yaml.safe_load((CONFIG_DIR / name).read_text())
        *parents, last = key.split(".")
        block = raw["study"]
        for part in parents:
            block = block[part]
        if value is None:
            del block[last]
        else:
            block[last] = value
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        for argv in (["validate-config", str(path)],
                     ["sweep", str(path), "--output-dir", str(out)]):
            assert main(argv) == 2, argv[0]
            assert f"study.{key}" in capsys.readouterr().err, argv[0]
        assert not out.exists()


    def test_mode_sweep_inflow_by_groups_runs_as_by_group(self, tmp_path):
        # an inflow bc may name its facet groups as a list, as build_case reads it
        raw = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        raw["study"]["reference"].update(dt_per_cycle=20, n_cycles=2)
        tables = []
        for form in ("group", "groups"):
            if form == "groups":
                inlet = raw["study"]["case"]["bcs"]["inlet"]
                inlet["groups"] = [inlet.pop("group")]
            path = tmp_path / f"{form}.yaml"
            path.write_text(yaml.safe_dump(raw))
            out = tmp_path / form
            assert main(["validate-config", str(path)]) == 0
            assert main(["sweep", str(path), "--output-dir", str(out)]) == 0
            tables.append(yaml.safe_load((out / "sweep.yaml").read_text()))
        for by_group, by_groups in zip(tables[0]["rows"], tables[1]["rows"]):
            for key in ("truncation", "flow_error", "converged"):
                assert by_groups[key] == by_group[key], key

    def test_mode_sweep_without_sampled_inflow_rejected(self, tmp_path, capsys):
        raw = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        inlet = raw["study"]["case"]["bcs"]["inlet"]
        inlet["flow_modes"] = [[1.0, 0.0]]
        del inlet["flow_samples"]
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        for argv in (["validate-config", str(path)],
                     ["sweep", str(path), "--output-dir", str(out)]):
            assert main(argv) == 2, argv[0]
            assert "parabolic_inflow bc with flow_samples" in capsys.readouterr().err, argv[0]
        assert not out.exists()


    @pytest.mark.parametrize("name, bc", [
        ("lid", {"group": "zmax", "kind": "dirichlet", "velocity_modes": [[0.0, 0.0]]}),
        ("jet", {"group": "zmax", "kind": "parabolic_inflow", "flow_modes": [[0.1, 0.0]]}),
        ("outlet", {"group": "xmax", "kind": "neumann", "h_modes": [[2.0, 0.0]]}),
        ("outlet", {"group": "xmax", "kind": "neumann", "h_samples": [0.5] + [0.0] * 11})])
    def test_mode_sweep_rejects_bcs_the_reference_drops(self, tmp_path, capsys, name, bc):
        raw = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        bcs = raw["study"]["case"]["bcs"]
        bcs["walls"]["groups"] = ["ymin", "ymax", "zmin"]
        bcs[name] = bc
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        for argv in (["validate-config", str(path)],
                     ["sweep", str(path), "--output-dir", str(out)]):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"bcs.{name}: the mode_sweep time reference takes only" in err
        assert not out.exists()

    def test_sweep_exits_1_on_a_diverged_reference(self, tmp_path, capsys, monkeypatch):
        # Newton updates of -3 times the Newton step grow the residual of the first step
        solve = time_domain.LaggedFactor.solve
        monkeypatch.setattr(time_domain.LaggedFactor, "solve",
                            lambda self, rhs: -3.0 * solve(self, rhs))
        study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        study["study"]["reference"].update(dt_per_cycle=12, n_cycles=2, ramp_steps=2)
        study["study"]["case"]["mesh"]["resolution"] = [3, 2, 2]
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "time step to t=" in err and "diverged" in err
        assert not (out / "sweep.yaml").exists()

    def test_sweep_exits_1_on_an_unconverged_row(self, tmp_path, capsys):
        # one pseudo-time step converges no spectral solve: the table is
        # still written, and the unconverged mode counts are named
        study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        study["study"]["reference"].update(dt_per_cycle=12, n_cycles=2, ramp_steps=2)
        study["study"]["case"]["mesh"]["resolution"] = [3, 2, 2]
        study["study"]["case"]["solver"]["max_steps"] = 1
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "did not converge at N = 2, 3" in err
        table = yaml.safe_load((out / "sweep.yaml").read_text())
        assert [row["converged"] for row in table["rows"]] == [False, False]


class TestMainEntry:
    def test_run_exits_1_on_a_preconditioner_over_the_size_limit(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setattr(linsolve, "LEVEL_LU_MAX_BYTES", 1)
        code = main(["run", str(CONFIG_DIR / "steady_channel.yaml"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "needs an estimated" in err and " MB, over" in err

    def test_run_exits_1_on_a_linear_solve_error(self, tmp_path, capsys, monkeypatch):
        # a factor that misses eps_ls: the scalar solver raises LinearSolveError
        real = scalar.level_lu_preconditioner
        monkeypatch.setattr(scalar, "level_lu_preconditioner",
                            lambda *a: (lambda r: 0.5 * real(*a)(r)))
        code = main(["run", str(CONFIG_DIR / "tracer_1d.yaml"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "scalar factor solve missed eps_ls 1e-10 (matvecs 1, residual 5.000e-01)" in err
        assert not (tmp_path / "out" / "summary.yaml").exists()

    @staticmethod
    def _assert_config_error(tmp_path, capsys, raw, message):
        """validate-config and run both exit 2 naming message, one error, and write no summary."""
        path = tmp_path / "case.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        for argv in (["validate-config", str(path)], ["run", str(path), "--output-dir", str(out)]):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert message in err and err.count("\n  - ") == 1, err
        assert not (out / "summary.yaml").exists()

    @pytest.mark.parametrize("verb", ["validate-config", "run", "sweep", "mesh-gen"])
    @pytest.mark.parametrize("fault", ["malformed", "not_utf8", "missing", "directory"])
    def test_unreadable_or_malformed_file_exits_2(self, tmp_path, capsys, verb, fault):
        path = tmp_path / "case.yaml"
        if fault == "malformed":
            path.write_text(MALFORMED)
        elif fault == "not_utf8":
            path.write_bytes(b"physics: {kind: \xff}\n")
        elif fault == "directory":
            path.mkdir()
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "out"
        extra = {"run": ["--output-dir", str(out)], "sweep": ["--output-dir", str(out)],
                 "mesh-gen": ["--out", str(out)]}.get(verb, [])
        assert main([verb, str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.count("\n  - ") == 1 and err.count("\n") == 2, err
        where = {"malformed": f"{path}:3:5: malformed YAML: ",
                 "not_utf8": f"{path}: malformed YAML: "}.get(fault, f"{path}: cannot read: ")
        assert f"\n  - {where}" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name, key, value, message", [
        ("steady_channel.yaml", "resolution", [0, 4],
         "mesh.resolution must be a list of 2 integers > 0 (got [0, 4])"),
        ("steady_channel.yaml", "resolution", ["a", 4],
         "mesh.resolution must be a list of 2 integers > 0 (got ['a', 4])"),
        ("steady_channel.yaml", "extents", [-1.0, 1.0],
         "mesh.extents must be a list of 2 numbers > 0 (got [-1.0, 1.0])"),
        ("tracer_1d.yaml", "resolution", 2.5, "mesh.resolution must be an integer > 0 (got 2.5)"),
        ("tracer_1d.yaml", "length", "1.0", "mesh.length must be a number > 0 (got '1.0')"),
        ("pulsatile_bent_channel.yaml", "extents", [1.0, 2.0, 0.5],
         "mesh.extents: bend too tight"),
        ("pulsatile_bent_channel.yaml", "bend_angle", 0, "mesh.bend_angle must be a number > 0")])
    def test_bad_mesh_values_are_config_errors(self, tmp_path, capsys, name, key, value,
                                               message):
        raw = yaml.safe_load((CONFIG_DIR / name).read_text())
        raw["mesh"][key] = value
        self._assert_config_error(tmp_path, capsys, raw, message)

    def test_degenerate_inflow_is_a_config_error(self, tmp_path, capsys):
        # one cell across leaves the parabolic profile no interior node on the inlet
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        raw["mesh"]["resolution"] = [1, 1]
        self._assert_config_error(tmp_path, capsys, raw,
                                  "bcs.inlet: degenerate inflow profile on group 'xmin'")

    @pytest.mark.parametrize("mesh, message", [
        ({"generator": "bent_channel", "extents": [3.0, 1.0, 1.0], "resolution": [9, 3, 3],
          "bend_angel": 0.1},
         "unknown key mesh.bend_angel; known keys: "
         "['bend_angle', 'extents', 'generator', 'resolution']"),
        ({"path": "unread.mesh", "extents": [3.0, 1.0, 1.0]},
         "unknown key mesh.extents; known keys: ['path']")])
    def test_unknown_mesh_keys_are_config_errors(self, tmp_path, capsys, mesh, message):
        raw = yaml.safe_load((CONFIG_DIR / "pulsatile_bent_channel.yaml").read_text())
        raw["mesh"] = mesh
        self._assert_config_error(tmp_path, capsys, raw, message)
        path = tmp_path / "case.yaml"
        assert main(["mesh-gen", str(path), "--out", str(tmp_path / "m.mesh")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.mesh").exists()

    @pytest.mark.parametrize("name, section, key, value, kind", [
        ("tracer_1d.yaml", "physics", "galerkin_only", "false", "true or false"),
        ("steady_channel.yaml", "output", "trace_samples", "8", "an integer >= 1"),
        ("steady_channel.yaml", "output", "trace_samples", 2.9, "an integer >= 1"),
        ("steady_channel.yaml", "output", "trace_samples", 0, "an integer >= 1"),
        ("steady_channel.yaml", "output", "trace_samples", -3, "an integer >= 1"),
        ("steady_channel.yaml", "output", "fields_t_samples", "x", "a list of finite numbers"),
        ("steady_channel.yaml", "output", "directory", 5, "a string")])
    def test_values_once_coerced_are_config_errors(self, tmp_path, capsys, name, section, key,
                                                   value, kind):
        raw = yaml.safe_load((CONFIG_DIR / name).read_text())
        raw[section][key] = value
        self._assert_config_error(tmp_path, capsys, raw,
                                  f"{section}.{key} must be {kind} (got {value!r})")

    @pytest.mark.parametrize("first, last, rows, message", [   # rows replace lines first..last
        (11, 11, ["1 3 -2"], "line 11: node id out of range [0, 6): [1, 3, -2]"),
        (11, 11, ["1 3 7"], "line 11: node id out of range [0, 6): [1, 3, 7]"),
        (11, 11, ["1 3 x"], "line 11: invalid literal"),
        (16, 16, ["4 1 0"], "line 16: parent id out of range [0, 4): [4]"),
        (16, 16, ["2 1 6"], "line 16: node id out of range [0, 6): [1, 6]"),
        (16, 16, ["0 1 0"], "facet (0, 1) not contained in its parent element 0"),
        (23, 24, [], "1 boundary facets belong to no group")])    # the ymax group
    def test_bad_mesh_files_are_config_errors(self, tmp_path, capsys, first, last, rows,
                                              message):
        from tsfem.mesh import generate_rect_tri, save_mesh
        path = tmp_path / "square.mesh"
        save_mesh(generate_rect_tri((1.0, 1.0), (1, 2)), path)
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        raw["mesh"] = {"path": str(path)}
        case = tmp_path / "case.yaml"
        case.write_text(yaml.safe_dump(raw))
        assert main(["validate-config", str(case)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        lines[first - 1:last] = rows
        path.write_text("\n".join(lines) + "\n")
        self._assert_config_error(tmp_path, capsys, raw, f"mesh.path {str(path)!r}: {message}")

    @pytest.mark.parametrize("key, value, rule", [
        ("max_steps", 2.5, "an integer"), ("krylov_dim", 100.7, "an integer"),
        ("max_steps", True, "an integer"), ("max_linear_iters", "50", "an integer"),
        ("eps_ls", "0.05", "a number"), ("eps_nr", True, "a number"),
        ("pseudo_dt", "0.1", "a number")])
    def test_solver_values_of_another_type_are_config_errors(self, tmp_path, capsys, key, value,
                                                             rule):
        with pytest.raises(ConfigError, match=re.escape(f"solver.{key} must be {rule}")):
            build_solver_config({key: value})
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        raw["solver"][key] = value
        self._assert_config_error(tmp_path, capsys, raw,
                                  f"solver.{key} must be {rule} (got {value!r})")

    @pytest.mark.parametrize("key, value, rule", [
        ("n_cycles", 1, "an integer >= 2"), ("n_cycles", 2.5, "an integer >= 2"),
        ("dt_per_cycle", 0, "an integer >= 1"), ("ramp_steps", -4, "an integer >= 0"),
        ("n_fit", 0, "an integer >= 1"), ("n_fit", 9, "at most 8 for 32 inflow flow_samples")])
    def test_bad_reference_values_are_config_errors(self, tmp_path, capsys, key, value, rule):
        raw = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        raw["study"]["reference"][key] = value
        message = f"study.reference.{key} must be {rule}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli._study_case(raw["study"])
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        for argv in (["validate-config", str(path)],
                     ["sweep", str(path), "--output-dir", str(out)]):
            assert main(argv) == 2, argv[0]
            assert message in capsys.readouterr().err
        assert not out.exists()

    def test_validate_verb(self, capsys):
        code = main(["validate-config", str(CONFIG_DIR / "tracer_1d.yaml")])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["mode_sweep_bent.yaml", "h_sweep_1d.yaml"])
    def test_validate_verb_study(self, capsys, name):
        assert main(["validate-config", str(CONFIG_DIR / name)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_verb_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("physics: {kind: ns}\nmesh: {}\nbcs: {}\n")
        code = main(["validate-config", str(bad)])
        assert code == 2
        assert "invalid" in capsys.readouterr().err

    def test_validate_verb_names_mistyped_key(self, tmp_path, capsys):
        text = (CONFIG_DIR / "steady_channel.yaml").read_text()
        bad = tmp_path / "typo.yaml"
        bad.write_text(text.replace("max_steps:", "max_step:"))
        code = main(["validate-config", str(bad)])
        assert code == 2
        assert "unknown key solver.max_step" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("pseudo_dt", 0), ("pseudo_dt", float("nan")),
                                            ("pseudo_dt", -1.0), ("max_steps", 0),
                                            ("max_linear_iters", 0), ("max_linear_iters", 1)])
    def test_validate_verb_rejects_solver_values(self, tmp_path, capsys, key, value):
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        raw["solver"][key] = value
        bad = tmp_path / "bad_solver.yaml"
        bad.write_text(yaml.safe_dump(raw))
        assert main(["validate-config", str(bad)]) == 2
        assert f"solver.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("physics", "n_modes", "three"), ("physics", "n_modes", 2.5), ("physics", "rho", 0),
        ("physics", "omega", -1), ("solver", "krylov_dim", "big"),
        ("physics", "c_i", float("nan")), ("physics", "kappa", float("inf"))])
    def test_validate_verb_reports_bad_case_values(self, tmp_path, capsys, section, key, value):
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        raw[section][key] = value
        bad = tmp_path / "bad_value.yaml"
        bad.write_text(yaml.safe_dump(raw))
        assert main(["validate-config", str(bad)]) == 2
        assert f"{section}.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key", [("steady_channel.yaml", "extents"),
                                           ("steady_channel.yaml", "resolution"),
                                           ("tracer_1d.yaml", "length")])
    def test_validate_verb_names_missing_mesh_key(self, tmp_path, capsys, name, key):
        raw = yaml.safe_load((CONFIG_DIR / name).read_text())
        del raw["mesh"][key]
        bad = tmp_path / "bad_mesh.yaml"
        bad.write_text(yaml.safe_dump(raw))
        assert main(["validate-config", str(bad)]) == 2
        assert f"mesh.{key} is required" in capsys.readouterr().err

    @pytest.mark.parametrize("bc, key, value", [
        ("inlet", "flow_modes", [["abc", 0.0]]), ("outlet", "h_modes", [[0.0, None]]),
        ("inlet", "flow_samples", [1.0, "x", 2.0]), ("inlet", "flow_modes", [["0.5", 0.0]]),
        (None, "velocity_modes", [["1.0", 0]]), ("inlet", "flow_modes", [[1.0, 0.0], [1.0]])])
    def test_validate_verb_names_non_numeric_table(self, tmp_path, capsys, bc, key, value):
        # bc None puts the table in the physics block
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        block = raw["physics"] if bc is None else raw["bcs"][bc]
        for data_key in [k for k in block if k.endswith(("_modes", "_samples"))]:
            del block[data_key]
        block[key] = value
        bad = tmp_path / "bad_table.yaml"
        bad.write_text(yaml.safe_dump(raw))
        assert main(["validate-config", str(bad)]) == 2
        path = "physics" if bc is None else f"bcs.{bc}"
        assert f"{path}.{key} must be finite numbers (got {value!r})" in capsys.readouterr().err

    @pytest.mark.parametrize("bc, entries, key", [
        ("outlet", {"h_samples": [0.0]}, "h_samples"),
        ("outlet", {"h_samples": [[0.0, 0.0], [0.0, 0.0]]}, "h_samples"),
        ("inlet", {"kind": "dirichlet", "velocity_modes": [[1.0, 0.0]], "axis": 2}, "axis"),
        ("inlet", {"kind": "dirichlet", "velocity_modes": [[1.0, 0.0]], "axis": 0.5}, "axis"),
        ("outlet", {"flux_modes": [[0.0, 0.0]]}, "flux_modes"),
        ("inlet", {"flow_modes": [[0.5, 0.0]], "typo_key": 1}, "typo_key")])
    def test_validate_verb_names_bad_bc_key(self, tmp_path, capsys, bc, entries, key):
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        block = raw["bcs"][bc]
        for data_key in [k for k in block if k.endswith(("_modes", "_samples"))]:
            del block[data_key]
        block.update(entries)
        bad = tmp_path / "bad_bc.yaml"
        bad.write_text(yaml.safe_dump(raw))
        assert main(["validate-config", str(bad)]) == 2
        assert f"bcs.{bc}.{key}" in capsys.readouterr().err

    def test_run_verbose_prints_step_table(self, tmp_path, capsys):
        config = tmp_path / "steady.yaml"
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        raw["mesh"]["resolution"] = [4, 12]
        config.write_text(yaml.safe_dump(raw))
        code = main(["run", str(config), "--output-dir", str(tmp_path / "out"), "-v"])
        assert code == 0
        out = capsys.readouterr().out
        summary = yaml.safe_load((tmp_path / "out" / "summary.yaml").read_text())
        assert set(summary) == {"kind", "converged", "steps", "residuals", "pseudo_dts",
                                "linear_iters", "linear_residuals", "linear_unconverged",
                                "assembly_s", "tau_s", "linear_s", "precond_s", "wall_time",
                                "alpha",
                                "beta",
                                "flows", "truncation", "field_range", "outputs"}
        n_updates = len(summary["residuals"]) - 1
        assert n_updates >= 1
        assert len(summary["pseudo_dts"]) == len(summary["linear_iters"]) == n_updates
        assert len(summary["linear_residuals"]) == n_updates
        assert len(summary["assembly_s"]) == len(summary["linear_s"]) == n_updates
        assert len(summary["tau_s"]) == n_updates
        assert all(0.0 < t <= a for t, a in zip(summary["tau_s"], summary["assembly_s"]))
        assert len(summary["precond_s"]) == n_updates and summary["precond_s"][0] > 0.0
        assert summary["linear_unconverged"] == 0
        table = out[out.index("step  "):].splitlines()
        assert table[0].split() == ["step", "residual", "pseudo_dt", "matvecs", "linear_res",
                                    "assembly_s", "tau_s", "linear_s", "precond_s"]
        assert len(table) == n_updates + 2
        assert table[1].split()[3] == str(summary["linear_iters"][0])
        assert float(table[1].split()[4]) == pytest.approx(summary["linear_residuals"][0],
                                                           rel=1e-3)
        assert float(table[1].split()[5]) == pytest.approx(summary["assembly_s"][0], abs=1e-4)
        assert float(table[1].split()[6]) == pytest.approx(summary["tau_s"][0], abs=1e-4)
        assert float(table[1].split()[7]) == pytest.approx(summary["linear_s"][0], abs=1e-4)
        assert float(table[1].split()[8]) == pytest.approx(summary["precond_s"][0], abs=1e-4)
        assert table[-1].split()[2:] == ["-"] * 7

    def test_mesh_gen_verb(self, tmp_path, capsys):
        cfg = tmp_path / "mesh.yaml"
        cfg.write_text("mesh: {generator: box_tet, extents: [1, 1, 1], "
                       "resolution: [2, 2, 2]}\n")
        out = tmp_path / "box.mesh"
        vtk = tmp_path / "box.vtk"
        code = main(["mesh-gen", str(cfg), "--out", str(out), "--vtk", str(vtk)])
        assert code == 0
        from tsfem.mesh import load_mesh, validate_mesh
        validate_mesh(load_mesh(out))
        assert vtk.exists()

    def test_run_verb_exit_code(self, tmp_path):
        code = main(["run", str(CONFIG_DIR / "tracer_1d.yaml"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
