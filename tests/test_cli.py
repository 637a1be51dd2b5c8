import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coorbit import cli, coverings, discretization, frame_families
from coorbit.cli import main, run, validate_config


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
    return path


MINIMAL = {
    "family": {"tag": "gabor", "params": {}},
    "signal_grid": {"T": 8.0, "n": 64},
    "index_domain": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "resolution": [32, 32]},
    "weight": {"type": "trivial"},
    "tasks": ["frame-info", "norms"],
    "seed": 7,
    "stable_cut": 0.2,
}


def _on_family(tag):
    """MINIMAL on another family, with a signal grid whose default wavelet
    box validates."""
    if tag == "gabor":
        return MINIMAL
    cfg = dict(MINIMAL, family={"tag": tag, "params": {}})
    if tag in ("cwt", "inhom_wavelet"):
        cfg.update(signal_grid={"T": 16.0, "n": 64})
        del cfg["index_domain"]
    return cfg


class TestValidate:
    def test_valid_config_has_no_diagnostics(self):
        assert validate_config(MINIMAL) == []

    def test_unknown_family(self):
        cfg = dict(MINIMAL, family={"tag": "zernike"})
        assert any("unknown family" in d for d in validate_config(cfg))

    def test_unknown_task(self):
        cfg = dict(MINIMAL, tasks=["frame-info", "resample"])
        assert any("unknown task" in d for d in validate_config(cfg))

    def test_empty_tasks(self):
        cfg = dict(MINIMAL, tasks=[])
        assert any("tasks" in d for d in validate_config(cfg))

    def test_bandlimit_above_nyquist(self):
        cfg = dict(MINIMAL,
                   family={"tag": "sinc_rkhs", "params": {"bandlimit": 100.0}})
        assert any("Nyquist" in d for d in validate_config(cfg))

    def test_bad_signal_grid(self):
        cfg = dict(MINIMAL, signal_grid={"T": 8.0, "n": 100})
        assert any("power of two" in d for d in validate_config(cfg))

    @pytest.mark.parametrize("tag,key,value", [("gabor", k, v) for k, v in [
        ("battery_size", 0), ("battery_size", -2), ("battery_size", 2.5),
        ("battery_size", "3"), ("battery_size", True),
        ("stable_cut", -1e-3), ("stable_cut", 1.0), ("stable_cut", "0.2"),
        ("z_per_cell", 0), ("z_per_cell", 1.5),
        ("pu_flavor", "hat"),
        ("signal_grid", {"T": "abc", "n": 64}), ("signal_grid", {"T": 0.0}),
        ("signal_grid", {"T": 8.0, "n": "64"}),
        ("weight", {"type": "polynomial", "s": "1"}),
        ("weight", {"type": "polynomial", "s": None}),
        ("family", {"tag": "alpha_mod", "params": {"alpha": "0.5"}}),
        ("family", {"tag": "sinc_rkhs", "params": {"bandlimit": "2"}}),
        # blocks that are not objects
        ("weight", "trivial"), ("signal_grid", [1]), ("index_domain", "x"),
        ("family", {"tag": "gabor", "params": "x"}),
        ("family", {"tag": "sinc_rkhs", "params": [2.0]}),
        ("seed", "abc"), ("seed", [1]), ("seed", -1), ("seed", 1.5),
        ("seed", True), ("output", 5), ("output", ["out"]), ("output", "")]] + [
        # the index_domain keys each family's grid reads
        ("gabor", "index_domain", {"resolution": [[1], [2]]}),
        ("gabor", "index_domain", {"resolution": [0, 8]}),
        ("gabor", "index_domain", {"resolution": [[1]]}),
        ("gabor", "index_domain", {"resolution": "ab"}),
        ("gabor", "index_domain", {"resolution": 2.0}),
        ("gabor", "index_domain", {"bounds": [[1, 0], [0, 1]]}),
        ("gabor", "index_domain", {"bounds": [[-4, 4]]}),
        ("alpha_mod", "index_domain", {"bounds": [[-4, 4], [-4, "4"]]}),
        ("sinc_rkhs", "index_domain", {"resolution": [0]}),
        ("sinc_rkhs", "index_domain", {"bounds": [[-4, 4], [-4, 4]]}),
        ("cwt", "index_domain", {"band_spacing": "x"}),
        ("cwt", "index_domain", {"band_spacing": -1}),
        ("inhom_wavelet", "index_domain", {"band_spacing": 0}),
        ("cwt", "index_domain", {"scales_per_octave": 0}),
        ("cwt", "index_domain", {"scales_per_octave": 1.5}),
        # the banded wavelet grids read no resolution
        ("cwt", "index_domain", {"resolution": "junk"}),
        ("inhom_wavelet", "index_domain", {"resolution": [64, 64]})])
    def test_out_of_range_setting_exits_2(self, tmp_path, tag, key, value):
        cfg = dict(_on_family(tag), tasks=["discretize", "reconstruct"],
                   covering={"cell_size": 0.5}, **{key: value})
        assert any(key in d for d in validate_config(cfg)), validate_config(cfg)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(str(path), out_dir=str(out)) == 2
        assert not (out / "report.json").exists()
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("tag,key,value", [("gabor", k, v) for k, v in [
        ("battery_size", 1), ("stable_cut", 0), ("stable_cut", 0.5),
        ("z_per_cell", 1), ("pu_flavor", "tent"),
        ("signal_grid", {"T": 8, "n": 64}),
        ("weight", {"type": "polynomial", "s": 2}),
        ("seed", 0), ("seed", 2 ** 40), ("output", "results")]] + [
        ("gabor", "index_domain", {"resolution": 1}),
        ("gabor", "index_domain", {"resolution": [1, 1]}),
        ("gabor", "index_domain", {"bounds": [[-1, 1.5], [0, 1e-3]]}),
        ("alpha_mod", "index_domain", {"bounds": [[-4, 4], [-4, 4]],
                                       "resolution": [8, 16]}),
        ("sinc_rkhs", "index_domain", {"resolution": [1]}),
        ("sinc_rkhs", "index_domain", {"bounds": [[-8, 8]], "resolution": 16}),
        ("cwt", "index_domain", {"band_spacing": 1e-3}),
        ("cwt", "index_domain", {"scales_per_octave": 1}),
        ("inhom_wavelet", "index_domain", {"band_spacing": 2,
                                           "scales_per_octave": 24}),
        ("cwt", "index_domain", {"resolution": None})])
    def test_in_range_setting(self, tag, key, value):
        # `norms` reads no interior box, so boxes too small for the family's
        # interior are in range too (TestInteriorValidation)
        cfg = dict(_on_family(tag), tasks=["norms"], **{key: value})
        assert validate_config(cfg) == []

    @pytest.mark.parametrize("tag,tasks,covering,needle", [
        ("gabor", ["discretize"], None, "requires a 'covering' block"),
        ("gabor", ["localize"], None, "requires a 'covering' block"),
        ("gabor", ["frame-info", "discretize"], {}, "cell_size is required"),
        ("gabor", ["property-d"], {"overlap": 0.25}, "cell_size is required"),
        ("gabor", ["sequence-spaces"], {"refine": {"target": "full"}},
         "required by task 'sequence-spaces'"),
        ("gabor", ["discretize"], {"cell_size": -0.5}, "cell_size"),
        ("gabor", ["discretize"], {"cell_size": 0}, "cell_size"),
        ("gabor", ["discretize"], {"cell_size": "big"}, "cell_size"),
        ("gabor", ["discretize"], {"cell_size": True}, "cell_size"),
        ("gabor", ["discretize"], {"cell_size": [0.5, 0.5, 0.5]}, "cell_size"),
        ("gabor", ["discretize"], {"cell_size": [0.5]}, "cell_size"),
        ("gabor", ["discretize"], {"cell_size": [0.5, -1.0]}, "cell_size"),
        ("sinc_rkhs", ["discretize"], {"cell_size": [1.0, 1.0]}, "cell_size"),
        ("gabor", ["property-d"], {"cell_size": 1.0, "refine": {"target": "nope"}},
         "refine.target"),
        ("gabor", ["property-d"], {"cell_size": 1.0, "refine": "full"},
         "refine must be an object"),
        ("gabor", ["discretize"], [0.5], "covering must be an object"),
        ("gabor", ["discretize"], {"cell_size": 0.5, "overlap": "half"}, "overlap"),
        ("gabor", ["property-d"], {"cell_size": 1.0, "refine": {"max_levels": 0}},
         "refine.max_levels"),
        ("gabor", ["property-d"], {"cell_size": 1.0, "refine": {"max_levels": 2.5}},
         "refine.max_levels"),
        ("gabor", ["property-d"], {"cell_size": 1.0, "refine": {"max_levels": "8"}},
         "refine.max_levels"),
        ("gabor", ["property-d"], {"cell_size": 1.0, "refine": {"max_levels": True}},
         "refine.max_levels"),
    ])
    def test_bad_covering_block_exits_2(self, tmp_path, tag, tasks, covering, needle):
        cfg = dict(MINIMAL, tasks=tasks, family={"tag": tag, "params": {}})
        if tag == "sinc_rkhs":
            cfg.update(signal_grid={"T": 10.0, "n": 512},
                       index_domain={"resolution": [100]})
        if covering is not None:
            cfg["covering"] = covering
        assert any(needle in d for d in validate_config(cfg)), validate_config(cfg)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(str(path), out_dir=str(out)) == 2
        assert not (out / "report.json").exists()
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("tag,tasks,covering", [
        ("gabor", ["frame-info", "norms"], None),
        ("gabor", ["discretize"], {"cell_size": 0.5}),
        ("gabor", ["discretize"], {"cell_size": [0.5, 1]}),
        ("gabor", ["property-d"], {"refine": {"target": "banach"}}),
        ("gabor", ["property-d"], {"cell_size": 1.0, "refine": {"max_levels": 1}}),
        ("sinc_rkhs", ["discretize"], {"cell_size": 1.0}),
        ("sinc_rkhs", ["sequence-spaces"], {"cell_size": [1.0],
                                            "refine": {"target": "atomic"}}),
    ])
    def test_good_covering_block(self, tag, tasks, covering):
        cfg = dict(MINIMAL, tasks=tasks, family={"tag": tag, "params": {}})
        if tag == "sinc_rkhs":
            cfg.update(signal_grid={"T": 10.0, "n": 512},
                       index_domain={"resolution": [100]})
        if covering is not None:
            cfg["covering"] = covering
        assert validate_config(cfg) == []

    @pytest.mark.parametrize("tasks", ["frame-info", 5, {"norms": 1}])
    def test_tasks_not_a_list_exits_2(self, tmp_path, tasks):
        cfg = dict(MINIMAL, tasks=tasks)
        assert "tasks must be a nonempty list" in validate_config(cfg)
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 2
        assert main(["validate", str(path)]) == 2

    def test_config_that_is_not_an_object_exits_2(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert validate_config([1, 2]) == ["the configuration must be an object"]
        assert run(str(path), out_dir=str(tmp_path / "out")) == 2
        assert not (tmp_path / "out" / "report.json").exists()
        assert main(["validate", str(path)]) == 2

    def test_validate_entry_point(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_validate_entry_point_exits_2_on_diagnostics(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, tasks=["resample"]))
        assert main(["validate", str(path)]) == 2
        assert "unknown task" in capsys.readouterr().out


_WAVELET_PARAMS = [{"wavelet": "mexican_hat"}, {}, {"order": 1}, {"order": 2},
                   {"order": 4}, {"order": 8}, {"order": 12}]


@pytest.mark.parametrize("tag", ["cwt", "inhom_wavelet"])
@pytest.mark.parametrize("params", _WAVELET_PARAMS,
                         ids=lambda p: "-".join(map(str, p.values())) or "default")
@pytest.mark.parametrize("T, n", [(8.0, 64), (16.0, 64), (10.0, 512)])
def test_wavelet_default_box_runs_or_fails_validation(tmp_path, tag, params, T, n):
    # on its default index box every wavelet either runs, or `validate`
    # refuses it (exit 2) with the bounds its interior box needs; none passes
    # validation and then exits 3 from the geometry check
    cfg = {"family": {"tag": tag, "params": params},
           "signal_grid": {"T": T, "n": n}, "tasks": ["frame-info", "norms"],
           "stable_cut": 1e-6}
    path = write_config(tmp_path, cfg)
    diags = validate_config(cfg)
    rc = run(str(path), out_dir=str(tmp_path / "out"))
    if diags:
        assert rc == 2 and main(["validate", str(path)]) == 2
        assert all(d.startswith("index box too small") and "needs more than" in d
                   for d in diags), diags
    else:
        assert rc == 0


class TestWaveletValidation:
    def test_mexican_hat_names_the_scale_ratio_it_needs(self):
        cfg = {"family": {"tag": "cwt", "params": {"wavelet": "mexican_hat"}},
               "signal_grid": {"T": 16.0, "n": 64}, "tasks": ["frame-info"]}
        diag, = validate_config(cfg)
        assert "axis 0" in diag and "a_hi / a_lo > 2651" in diag, diag
        # scales spanning that ratio leave the position axis to fit
        narrow = dict(cfg, index_domain={"bounds": [[0.05, 150.0], [-12.0, 12.0]]})
        diag, = validate_config(narrow)
        assert "axis 1" in diag and "needs more than 31.47" in diag, diag
        wide = dict(cfg, index_domain={"bounds": [[0.05, 150.0], [-24.0, 24.0]]})
        assert validate_config(wide) == []

    def test_shipped_default_box_validates(self):
        cfg = json.loads((Path(cli.__file__).resolve().parents[2] / "configs" /
                          "cwt_reproducing.json").read_text())
        assert validate_config(cfg) == []

    @pytest.mark.parametrize("tag,params,domain,needle", [
        ("cwt", {"wavelet": "haar"}, {}, "unknown wavelet"),
        ("cwt", {"order": 0}, {}, "family.params.order"),
        ("inhom_wavelet", {"order": 2.5}, {}, "family.params.order"),
        ("cwt", {"order": "6"}, {}, "family.params.order"),
        ("cwt", {"order": True}, {}, "family.params.order"),
        ("cwt", {}, {"bounds": [[0.0, 10.0], [-8.0, 8.0]]}, "index_domain.bounds"),
        ("cwt", {}, {"bounds": [[0.2, 10.0]]}, "index_domain.bounds"),
        ("inhom_wavelet", {}, {"bounds": [[0.2, 1.0], [8.0, -8.0]]},
         "index_domain.bounds"),
    ])
    def test_bad_wavelet_settings_exit_2(self, tmp_path, tag, params, domain, needle):
        cfg = {"family": {"tag": tag, "params": params},
               "signal_grid": {"T": 16.0, "n": 64}, "index_domain": domain,
               "tasks": ["frame-info"]}
        assert any(needle in d for d in validate_config(cfg)), validate_config(cfg)
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 2
        assert main(["validate", str(path)]) == 2


class TestInteriorValidation:
    """A box whose interior is empty is refused, for every family, exactly
    when a task reads the interior (`cli.INTERIOR_TASKS`)."""

    THIN = dict(MINIMAL, index_domain={"bounds": [[-1.0, 1.0], [-1.0, 1.0]],
                                       "resolution": [16, 16]},
                covering={"cell_size": 0.5})

    @pytest.mark.parametrize("tasks", [["frame-info"], ["discretize"],
                                       ["norms", "reconstruct"]])
    def test_empty_gabor_interior_exits_2(self, tmp_path, tasks):
        cfg = dict(self.THIN, tasks=tasks)
        diag, = validate_config(cfg)
        assert diag == ("index box too small for interior margins on axis 0; "
                        "index box too small for interior margins on axis 1")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == 2
        assert run(str(path), out_dir=str(out)) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("tasks", [["norms"], ["property-d"], ["localize"],
                                       ["sequence-spaces"]])
    def test_tasks_that_read_no_interior_run(self, tmp_path, tasks):
        cfg = dict(self.THIN, tasks=tasks)
        assert validate_config(cfg) == []
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("tag,domain", [
        ("alpha_mod", {"bounds": [[-4.0, 4.0], [-4.0, 4.0]]}),
        ("cwt", {"bounds": [[1.0, 2.0], [-12.0, 12.0]]}),
        ("inhom_wavelet", {"bounds": [[0.9, 1.0], [-12.0, 12.0]]})])
    def test_every_family_checks_its_interior(self, tmp_path, tag, domain):
        cfg = dict(_on_family(tag), index_domain=domain)
        assert any(d.startswith("index box too small") for d in validate_config(cfg))
        assert validate_config(dict(cfg, tasks=["norms"])) == []
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("family,diag", [
        ({"tag": "gabor", "params": {"window": "hann"}}, "unknown gabor window 'hann'"),
        ({"tag": "sinc_rkhs", "params": {"bandlimit": -1.0}},
         "bandlimit must be positive")])
    def test_family_refusal_is_a_diagnostic_for_every_task(self, tmp_path, family,
                                                           diag):
        # the family is built whatever the tasks, so its refusal comes
        # before anything runs
        cfg = dict(MINIMAL, family=family, tasks=["norms"])
        if family["tag"] == "sinc_rkhs":
            del cfg["index_domain"]
        assert validate_config(cfg) == [diag]
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 2


class TestRun:
    def test_minimal_run_produces_report(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert run(str(path), out_dir=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        bounds = report["tasks"]["frame-info"]["frame_bounds"]
        assert 0.9 <= bounds["c1"] <= bounds["c2"] <= 1.1
        assert report["config_echo"] == path.read_text()
        assert report["seed"] == 7
        assert (out / "timings.json").exists()

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = tmp_path / "out_bad"
        assert run(str(path), out_dir=str(out)) == 2
        assert not (out / "report.json").exists()

    def test_invalid_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, dict(MINIMAL, tasks=[]))
        assert run(str(path), out_dir=str(tmp_path / "o")) == 2

    def test_empty_output_exits_2_without_writing_to_the_working_directory(
            self, tmp_path, monkeypatch):
        # Path("") is ".": a run used to write its outputs where it was started
        path = write_config(tmp_path, dict(MINIMAL, output=""), "empty.json")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert list(work.iterdir()) == []

    def test_threads_below_one_exits_2(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        out = tmp_path / "o0"
        assert run(str(path), out_dir=str(out), threads=0) == 2
        assert not (out / "report.json").exists()

    def test_negative_seed_exits_2(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        out = tmp_path / "o_seed"
        assert main(["run", str(path), "--out", str(out), "--seed", "-1"]) == 2
        assert not (out / "report.json").exists()

    def test_non_finite_report_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._TASKS, "norms",
                            lambda ctx: {"gramian": {"am_norm": float("nan")}})
        path = write_config(tmp_path, MINIMAL)
        out = tmp_path / "o_nan"
        assert run(str(path), out_dir=str(out)) == 3
        assert not (out / "report.json").exists()

    def test_non_finite_gramian_exits_3_on_the_pool(self, tmp_path, monkeypatch,
                                                    capsys):
        # a non-finite half-factor column (node 330, row block 5 of the 16
        # blocks of 64: a worker's block at two threads) fails am_norm's
        # factor check
        real = frame_families.FrameCalculus.half_factor

        def poisoned(self, rel_cut=1e-10, threads=1):
            c = real(self, rel_cut, threads).copy()
            c[:, 330] = float("nan")
            return c
        monkeypatch.setattr(frame_families.FrameCalculus, "half_factor",
                            poisoned)
        path = write_config(tmp_path, dict(MINIMAL, tasks=["norms"]))
        out = tmp_path / "o_pool"
        assert run(str(path), out_dir=str(out), threads=2) == 3
        assert "non-finite kernel value" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_non_finite_gramian_exits_3_in_a_property_d_tile(
            self, tmp_path, monkeypatch, capsys):
        # node 700 of the 1024 lies in row tile 1 of 2 of the oscillation
        # stream, a worker's at two threads; the one factor check rejects it
        real = frame_families.FrameCalculus.half_factor

        def poisoned(self, rel_cut=1e-10, threads=1):
            c = real(self, rel_cut, threads).copy()
            c[:, 700] = float("nan")
            return c
        monkeypatch.setattr(frame_families.FrameCalculus, "half_factor",
                            poisoned)
        cfg = dict(MINIMAL, tasks=["property-d"], covering={"cell_size": 1.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o_tile"
        assert run(str(path), out_dir=str(out), threads=2) == 3
        assert "non-finite kernel value" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # one level of refinement from cells of width 2 does not reach the
        # full discretization flag
        cfg = dict(MINIMAL, tasks=["property-d"], z_per_cell=2,
                   covering={"cell_size": 2.0,
                             "refine": {"target": "full", "max_levels": 1}})
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "o3")) == 3
        assert "not reached in 1 levels" in capsys.readouterr().err

    def test_refinement_task_reports_trajectory(self, tmp_path):
        cfg = dict(MINIMAL, tasks=["property-d"],
                   covering={"cell_size": 1.0,
                             "refine": {"target": "atomic", "max_levels": 4}})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out_ref"
        assert run(str(path), out_dir=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        ref = report["tasks"]["property-d"]["refinement"]
        assert ref["passing_level"] <= 4
        assert (out / "refinement.csv").exists()

    def test_discretize_and_reconstruct_tasks(self, tmp_path):
        cfg = dict(MINIMAL,
                   tasks=["discretize", "reconstruct"],
                   covering={"cell_size": 0.25},
                   battery_size=2)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out_disc"
        assert run(str(path), out_dir=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tasks"]["discretize"]["defect_estimate"] < 1.0
        assert report["tasks"]["reconstruct"]["atomic_max_relative_error"] <= 1e-3
        # the bytes csv.writer gives the index and the reprs of the parts
        text = (out / "coefficients.csv").read_bytes()
        rows = list(csv.reader(io.StringIO(text.decode(), newline="")))
        assert rows[0] == ["index", "re", "im"] and len(rows) > 2
        ref = io.StringIO(newline="")
        csv.writer(ref).writerows([rows[0]] + [
            [int(k), repr(float(x)), repr(float(y))] for k, x, y in rows[1:]])
        assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
        assert text == ref.getvalue().encode()

    @pytest.mark.parametrize("battery_size", [1, 3])
    def test_reconstruct_builds_one_uphi(self, tmp_path, monkeypatch, battery_size):
        """discretize and reconstruct share one U_Phi (which caches its
        spectrum) and build no Gramian kernel, counted at every module
        binding of the two functions."""
        calls = {}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            return wrapper

        for name, home in (("gram_kernel", frame_families),
                           ("build_uphi", discretization)):
            wrapped = counting(name, getattr(home, name))
            for mod in (cli, home):
                monkeypatch.setattr(mod, name, wrapped)
        cfg = dict(MINIMAL, tasks=["discretize", "reconstruct"],
                   covering={"cell_size": 0.5}, battery_size=battery_size)
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 0
        assert calls == {"build_uphi": 1}

    def test_reconstruct_forms_no_index_grid_half_factor(self, tmp_path,
                                                         monkeypatch):
        # U_Phi, the atomic coefficients and the Banach reconstruction run
        # in the coordinates of ran R, from the half map and the sampled
        # atoms alone: the index grid's r x M half factor C is not formed
        def refuse(self, rel_cut=1e-10, threads=1):
            raise AssertionError("half factor formed on the index grid")
        monkeypatch.setattr(frame_families.FrameCalculus, "half_factor", refuse)
        cfg = dict(MINIMAL, tasks=["discretize", "reconstruct"],
                   covering={"cell_size": 0.5})
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 0

    def test_localize_task(self, tmp_path):
        cfg = dict(MINIMAL, tasks=["localize"], covering={"cell_size": 2.0},
                   index_domain={"bounds": [[-4.0, 4.0], [-4.0, 4.0]],
                                 "resolution": [16, 16]})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out_loc"
        assert run(str(path), out_dir=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tasks"]["localize"]["a_flat"]["finite"]
        assert "gab_domination_violation" in report["tasks"]["localize"]
        assert (out / "decay_profile.csv").exists()

    def test_localize_passes_z_per_cell(self, tmp_path, monkeypatch):
        seen = []
        real = cli.gab_domination_check

        def spy(*args, **kwargs):
            seen.append(kwargs.get("z_per_cell"))
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "gab_domination_check", spy)
        cfg = dict(MINIMAL, tasks=["localize"], covering={"cell_size": 2.0},
                   z_per_cell=2,
                   index_domain={"bounds": [[-4.0, 4.0], [-4.0, 4.0]],
                                 "resolution": [16, 16]})
        path = write_config(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out_z")) == 0
        assert seen == [2]

    def test_deterministic_across_thread_counts(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        outs = []
        for threads, name in ((1, "t1"), (2, "t2")):
            out = tmp_path / name
            assert run(str(path), out_dir=str(out), threads=threads) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("overlap", [0.0, 0.25])
    def test_property_d_identical_across_thread_counts(self, tmp_path, overlap):
        cfg = dict(MINIMAL, tasks=["property-d"], z_per_cell=3,
                   covering={"cell_size": 1.0, "overlap": overlap})
        path = write_config(tmp_path, cfg)
        blobs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}"
            assert run(str(path), out_dir=str(out), threads=threads) == 0
            blobs.append((out / "report.json").read_bytes())
            timings = json.loads((out / "timings.json").read_text())
            assert timings["threads"] == threads
        assert "osc_report" in json.loads(blobs[0])["tasks"]["property-d"]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_tasks_off_the_covering_read_the_configured_grid(self, tmp_path):
        # a refining property-d builds its levels' own grids; frame-info,
        # norms and the sequence-spaces partition read the configured index
        # grid whether they run before it or after it
        cfg = {"family": {"tag": "gabor"}, "signal_grid": {"T": 8.0, "n": 64},
               "index_domain": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]]},
               "covering": {"cell_size": 0.9,
                            "refine": {"target": "banach"}},
               "stable_cut": 0.2, "z_per_cell": 3}
        others = ["frame-info", "norms", "sequence-spaces"]
        reports = []
        for name, tasks in (("last", others + ["property-d"]),
                            ("first", ["property-d"] + others)):
            path = write_config(tmp_path, dict(cfg, tasks=tasks), f"{name}.json")
            out = tmp_path / name
            assert run(str(path), out_dir=str(out)) == 0
            reports.append(json.loads((out / "report.json").read_text())["tasks"])
        last, first = reports
        assert first["property-d"]["refinement"]["passing_level"] > 0
        for task in others:
            assert first[task] == last[task]

    def test_property_d_takes_the_weight_sup_once(self, tmp_path, monkeypatch):
        # C_{m,U} enters the report's sigma and its moderation block; both
        # read one evaluation, counted at every module binding
        real = coverings.weight_sup_on_cells
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("coorbit") and \
                    getattr(mod, "weight_sup_on_cells", None) is real:
                monkeypatch.setattr(mod, "weight_sup_on_cells", spy)
        cfg = dict(MINIMAL, tasks=["property-d"], z_per_cell=2,
                   covering={"cell_size": 1.0},
                   weight={"type": "polynomial", "s": 1.0})
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), out_dir=str(out)) == 0
        task = json.loads((out / "report.json").read_text())["tasks"]["property-d"]
        assert len(calls) == 1
        assert task["moderation"]["c_m_u"] == task["osc_report"]["c_m_u"] > 1.0


    def test_threads_default_to_the_usable_cores(self, tmp_path, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        seen = []
        monkeypatch.setattr(cli, "run", lambda *a, **kw: seen.append(kw["threads"]) or 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert main(["run", str(write_config(tmp_path, MINIMAL))]) == 0
        assert seen == [3]

    def test_run_holds_blas_at_one_thread_and_restores_it(self, tmp_path,
                                                         monkeypatch):
        blas = cli._bundled_openblas()
        if blas is None:
            pytest.skip("numpy is not built on scipy-openblas")
        get, put = blas
        seen = []
        task = cli._TASKS["frame-info"]
        monkeypatch.setitem(cli._TASKS, "frame-info",
                            lambda ctx: seen.append(get()) or task(ctx))
        before = get()
        put(2)
        try:
            assert run(str(write_config(tmp_path, MINIMAL)),
                       out_dir=str(tmp_path / "out")) == 0
            assert get() == 2
        finally:
            put(before)
        assert seen == [1]


_LADDER_CONFIG_PROBE = """
import json, sys
from pathlib import Path
from workloads import operations
(name, cfg), = operations("ladder", 0, Path(sys.argv[1]))
Path(sys.argv[2]).write_text(json.dumps(cfg))
"""


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the benchmark's ladder config through the entry point, in fresh
    # interpreters whose OpenBLAS starts with 1 and with 2 threads: the
    # rounding of S at level 0 once differed between them
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench"),
                                         env.get("PYTHONPATH", "")])
    cfg = tmp_path / "ladder.json"
    subprocess.run([sys.executable, "-c", _LADDER_CONFIG_PROBE,
                    str(root / "configs"), str(cfg)], env=env, check=True,
                   timeout=300)
    blobs = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}"
        proc = subprocess.run([sys.executable, "-m", "coorbit.cli", "run", str(cfg),
                               "--out", str(out), "--threads", "1"],
                              env=dict(env, OPENBLAS_NUM_THREADS=blas),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


_SCIPY_BLOCKED_PROBE = """
import importlib.abc, json, sys, tempfile
from pathlib import Path


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"scipy is blocked: import {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())
import numpy as np
from coorbit import cli
from coorbit.frame_families import analyze_V, gram_kernel, make_family
from coorbit.kernel_algebra import compose, kernel_from_matrix
from coorbit.measure_space import SignalGrid, build_quad_grid

gabor = {"family": {"tag": "gabor", "params": {}},
         "signal_grid": {"T": 8.0, "n": 64},
         "index_domain": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]],
                          "resolution": [16, 16]},
         "covering": {"cell_size": 1.0}, "weight": {"type": "trivial"},
         "stable_cut": 0.2, "battery_size": 2, "z_per_cell": 2, "seed": 0,
         "tasks": list(cli.KNOWN_TASKS)}
cwt = {"family": {"tag": "cwt", "params": {"order": 6}},
       "signal_grid": {"T": 16.0, "n": 64}, "weight": {"type": "trivial"},
       "index_domain": {"scales_per_octave": 4, "band_spacing": 0.9},
       "stable_cut": 0.2, "seed": 0, "tasks": ["frame-info", "norms"]}
with tempfile.TemporaryDirectory() as tmp:
    for k, cfg in enumerate((gabor, cwt)):
        path = Path(tmp) / f"cfg{k}.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / f"out{k}"
        assert cli.run(str(path), str(out), threads=2) == 0, cfg["family"]
        tasks = json.loads((out / "report.json").read_text())["tasks"]
        assert set(tasks) == set(cfg["tasks"]), sorted(tasks)

fam = make_family("gabor", {}, SignalGrid(8.0, 64))
grid = build_quad_grid([[-4.0, 4.0], [-4.0, 4.0]], [12, 12])
f = fam.atom([0.5, -1.0])
assert np.array_equal(analyze_V(fam, f, grid).values,
                      fam.calculus(grid).analyze(f))
R = gram_kernel(fam, grid, rel_cut=0.2)
rows, cols = np.arange(0, 144, 7), np.arange(3, 144, 5)
for kern in (compose(R, R, grid), kernel_from_matrix(R.matrix(grid), grid)):
    assert np.array_equal(kern.block(grid.points[rows], grid.points[cols]),
                          kern.matrix(grid)[np.ix_(rows, cols)])
"""


def test_engine_runs_with_scipy_blocked():
    # numpy is the only runtime dependency: with every import of scipy
    # refused, a Gabor run of every task, a wavelet frame-info + norms run,
    # analyze_V on a tensor grid and composed kernels all work
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


_TRACED_PROBE = """
import json, sys
from pathlib import Path
import coorbit.cli as cli
import spans
cfg, out = sys.argv[1], Path(sys.argv[2])
assert cli.run(cfg, out_dir=str(out / "plain")) == 0
rec = spans.Recorder()
spans.install(rec)
assert cli.run(cfg, out_dir=str(out / "traced")) == 0
names = {s[0] for s in rec.spans}
assert "discretization.atomic_coefficients" in names, sorted(names)
assert (out / "plain" / "report.json").read_bytes() == \\
    (out / "traced" / "report.json").read_bytes(), "traced report bytes differ"
"""


def test_traced_harness_runs_reconstruct(tmp_path):
    # the benchmark's traced run wraps every public coorbit function by
    # name and binds their arguments; a fresh interpreter runs discretize +
    # reconstruct with and without the wrappers and compares report bytes
    root = Path(cli.__file__).resolve().parents[2]
    cfg = dict(MINIMAL, tasks=["discretize", "reconstruct"],
               covering={"cell_size": 0.5}, battery_size=2)
    path = write_config(tmp_path, cfg)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench"),
                                         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _TRACED_PROBE, str(path),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


_PROPERTY_D_IMPORT_PROBE = """
import sys
from pathlib import Path
import json, tempfile
from coorbit import cli
module = sys.argv[2]
if module in sys.modules:
    print("preloaded")
    sys.exit(0)
from workloads import operations
(name, cfg), = operations("ladder", 0, Path(sys.argv[1]))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "ladder.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(str(path), str(Path(tmp) / "out")) == 0
    rep = json.loads((Path(tmp) / "out" / "report.json").read_text())
assert rep["tasks"]["property-d"]["osc_report"]["banach_only"] is True
assert module not in sys.modules, f"property-d imported {module}"
"""


def _property_d_imports(module):
    """Run the benchmark's ladder (property-d to the banach flag) in a fresh
    interpreter; its stdout is "preloaded" if `import coorbit.cli` alone
    loads `module`, and it fails if the run loads it."""
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench"),
                                         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _PROPERTY_D_IMPORT_PROBE,
                           str(root / "configs"), module], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_property_d_does_not_import_numpy_random():
    # the z-streams are replayed in integer arithmetic: property-d runs
    # without numpy.random, which would add its import time and memory to
    # every property-d run
    assert _property_d_imports("numpy.random") == ""


def test_property_d_does_not_import_numpy_ma():
    # the column chunks dedupe their sorted cells without np.unique, whose
    # first plain call imports numpy.ma (16-20 ms on a 2-vCPU Xeon host)
    if _property_d_imports("numpy.ma") == "preloaded":
        pytest.skip("import coorbit.cli already loads numpy.ma")
