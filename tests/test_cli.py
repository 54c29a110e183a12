import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import tsfem.cli as cli
from tsfem.cli import main, run_case, sweep
from tsfem.config import (
    CaseConfig,
    ConfigError,
    build_case,
    build_mesh,
    load_config,
    parse_config,
    serialize_config,
)
from tsfem.spectral import SpectralCoeffs, evaluate_in_time

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_CASES = Path(__file__).resolve().parent.parent / "benchmarks" / "cases"


class TestConfigParsing:
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
bcs: {}
solver: {eps_nr: 1.0e-3, eps_lss: 0.01}
output: {trace_sample: 8}
"""
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        joined = "\n".join(err.value.errors)
        for name in ("physics.backflow_bta", "solver.eps_lss", "output.trace_sample"):
            assert f"unknown key {name}" in joined
        assert "unknown key solver.eps_nr" not in joined

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml"))
                             + sorted(BENCH_CASES.glob("*.yaml")), ids=lambda p: p.name)
    def test_bundled_configs_validate(self, path):
        raw = yaml.safe_load(path.read_text())
        text = yaml.safe_dump(raw["study"]["case"]) if "study" in raw else path.read_text()
        config = parse_config(text)
        build_case(config, build_mesh(config.mesh))

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
                evaluate_in_time(coeffs, row[0], omega), abs=1e-12)

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

    def test_mode_sweep_reports_time_reference_failures(self, tmp_path, monkeypatch):
        study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        study["study"]["modes"] = [1, 2]
        study["study"]["reference"].update(dt_per_cycle=12, n_cycles=2, ramp_steps=2)
        study["study"]["case"]["mesh"]["resolution"] = [3, 2, 2]
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
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
        study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        study["study"]["modes"] = [1, 2]
        study["study"]["reference"].update(dt_per_cycle=12, n_cycles=2, ramp_steps=2)
        study["study"]["case"]["mesh"]["resolution"] = [3, 2, 2]
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
        real = cli.run_time_simulation
        results = []

        def recording_reference(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_time_simulation", recording_reference)
        sweep(path, tmp_path / "out")
        iters = results[0].newton_iters
        assert len(iters) == 24 and min(iters) >= 1
        table = yaml.safe_load((tmp_path / "out" / "sweep.yaml").read_text())
        assert table["newton_iters_total"] == sum(iters)
        assert table["newton_iters_max"] == max(iters)

    def test_mode_sweep_reports_reference_work_and_cost_ratio(self, tmp_path, monkeypatch):
        study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())
        study["study"]["modes"] = [1, 2]
        study["study"]["reference"].update(dt_per_cycle=12, n_cycles=2, ramp_steps=2)
        study["study"]["case"]["mesh"]["resolution"] = [3, 2, 2]
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(study))
        real = cli.run_time_simulation
        results = []

        def recording_reference(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_time_simulation", recording_reference)
        sweep(path, tmp_path / "out")
        table = yaml.safe_load((tmp_path / "out" / "sweep.yaml").read_text())
        assert table["linear_solves_total"] == sum(results[0].linear_solves) > 0
        assert table["factorizations_total"] == sum(results[0].factorizations) >= 1
        assert table["reference_seconds"] > 0.0
        for row in table["rows"]:
            assert row["seconds"] > 0.0
            assert row["cost_ratio"] == pytest.approx(row["seconds"] / table["reference_seconds"])

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


class TestMainEntry:
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
                                            ("pseudo_dt", -1.0), ("max_steps", 0)])
    def test_validate_verb_rejects_solver_values(self, tmp_path, capsys, key, value):
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        raw["solver"][key] = value
        bad = tmp_path / "bad_solver.yaml"
        bad.write_text(yaml.safe_dump(raw))
        assert main(["validate-config", str(bad)]) == 2
        assert f"solver.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("physics", "n_modes", "three"), ("physics", "n_modes", 2.5), ("physics", "rho", 0),
        ("physics", "omega", -1), ("solver", "krylov_dim", "big")])
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
        ("inlet", "flow_samples", [1.0, "x", 2.0])])
    def test_validate_verb_names_non_numeric_table(self, tmp_path, capsys, bc, key, value):
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        block = raw["bcs"][bc]
        for data_key in [k for k in block if k.endswith(("_modes", "_samples"))]:
            del block[data_key]
        block[key] = value
        bad = tmp_path / "bad_table.yaml"
        bad.write_text(yaml.safe_dump(raw))
        assert main(["validate-config", str(bad)]) == 2
        assert f"bcs.{bc}.{key} must be finite numbers" in capsys.readouterr().err

    def test_run_verbose_prints_step_table(self, tmp_path, capsys):
        config = tmp_path / "steady.yaml"
        raw = yaml.safe_load((CONFIG_DIR / "steady_channel.yaml").read_text())
        raw["mesh"]["resolution"] = [4, 12]
        config.write_text(yaml.safe_dump(raw))
        code = main(["run", str(config), "--output-dir", str(tmp_path / "out"), "-v"])
        assert code == 0
        out = capsys.readouterr().out
        summary = yaml.safe_load((tmp_path / "out" / "summary.yaml").read_text())
        n_updates = len(summary["residuals"]) - 1
        assert n_updates >= 1
        assert len(summary["pseudo_dts"]) == len(summary["linear_iters"]) == n_updates
        assert len(summary["linear_residuals"]) == n_updates
        assert len(summary["assembly_s"]) == len(summary["linear_s"]) == n_updates
        assert summary["linear_unconverged"] == 0
        table = out[out.index("step  "):].splitlines()
        assert table[0].split() == ["step", "residual", "pseudo_dt", "matvecs", "linear_res",
                                    "assembly_s", "linear_s"]
        assert len(table) == n_updates + 2
        assert table[1].split()[3] == str(summary["linear_iters"][0])
        assert float(table[1].split()[4]) == pytest.approx(summary["linear_residuals"][0],
                                                           rel=1e-3)
        assert float(table[1].split()[5]) == pytest.approx(summary["assembly_s"][0], abs=1e-4)
        assert float(table[1].split()[6]) == pytest.approx(summary["linear_s"][0], abs=1e-4)
        assert table[-1].split()[2:] == ["-", "-", "-", "-", "-"]

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
