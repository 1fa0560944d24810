import csv
import hashlib
import json
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cachenet import experiment, simnet
from cachenet.cli import main
from cachenet.experiment import (
    PER_RUN_HEADER,
    SUMMARY_HEADER,
    ConfigError,
    demo_spec,
    alpha_sweep_spec,
    cache_size_sweep_spec,
    load_spec,
    run_experiment,
    spec_from_dict,
    summarize_rows,
    validate_spec,
)
from cachenet.netmodel import Topology
from cachenet.simnet import Scheme


# parameters that SimConfig rejects, and that used to pass validation and
# then raise mid-sweep or report impossible hops
UNRUNNABLE = [("nodes", 2), ("alpha", -1)]
# values of the wrong type, or numbers no run can use, that used to crash
# validate with a traceback or pass it and then crash the run
MISTYPED = [("nodes", "abc", "nodes_str"), ("values", ["0.1"], "values_str"),
            ("nodes", 5.5, "nodes_float"), ("seeds", [0.5], "seeds_float"),
            ("alpha", float("nan"), "alpha_nan"),
            ("alpha", 10**400, "alpha_huge_int")]
# values of a key SimConfig no longer has: validate rejects any of them as an
# unknown field, whatever the value, the defaults and values it once refused too
RETIRED = [("per_node_rate", 0, "per_node_rate"),
           ("per_node_rate", 5e-324, "per_node_rate_subnormal"),
           ("m_attach", 2, "m_attach"),
           ("origin_penalty", -3, "origin_penalty"), ("origin_penalty", 2**63 - 1, "origin_penalty_hop_total"),
           ("smoothing", -1, "smoothing"), ("smoothing", 1e308, "smoothing_overflow"),
           ("smoothing", 10**400, "smoothing_huge_int")]
# cells whose arrays no run could hold: rejected from the spec, without running
OVERSIZED = [("nodes", 200_000, "nodes_oversized"), ("requests_per_epoch", 10**12, "requests_oversized"),
             ("nodes", 10**400, "nodes_huge_int"), ("requests_per_epoch", 10**400, "requests_huge_int")]
BAD_SPECS = ([pytest.param("seeds", [2, 2], id="seeds"),
              pytest.param("seeds", [0, -1], id="seeds_negative"),
              pytest.param("schemes", ["NO_CACHE", "NO_CACHE"], id="schemes_dup"),
              pytest.param("cache_fraction", 0.5, id="swept_fixed")]
             + [pytest.param(f, v, id=f) for f, v in UNRUNNABLE]
             + [pytest.param(f, v, id=i) for f, v, i in MISTYPED + RETIRED + OVERSIZED])


def run_into(spec, out, jobs=1):
    """Run ``spec`` into the directory ``out``."""
    spec.output = str(out)
    return run_experiment(spec, jobs=jobs)


def tiny_spec_dict(**overrides):
    spec = {
        "sweep": "cache_fraction",
        "values": [0.1, 0.2],
        "schemes": ["OPTIMIZED", "NO_CACHE"],
        "seeds": [0, 1],
        "nodes": 6,
        "objects": 10,
        "requests_per_epoch": 200,
        "epochs": 3,
        "warmup_epochs": 1,
    }
    spec.update(overrides)
    return spec


class TestValidation:
    def test_well_formed_ok(self):
        spec = spec_from_dict(tiny_spec_dict())
        assert validate_spec(spec) == []

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError) as err:
            spec_from_dict(tiny_spec_dict(values=[]))
        assert any("values" in d for d in err.value.diagnostics)

    def test_decreasing_values_rejected(self):
        with pytest.raises(ConfigError) as err:
            spec_from_dict(tiny_spec_dict(values=[0.2, 0.1]))
        assert any("strictly increasing" in d for d in err.value.diagnostics)

    def test_duplicate_seeds_named(self):
        with pytest.raises(ConfigError) as err:
            spec_from_dict(tiny_spec_dict(seeds=[1, 1]))
        assert any("seeds" in d for d in err.value.diagnostics)

    def test_unknown_scheme_named(self):
        with pytest.raises(ConfigError) as err:
            spec_from_dict(tiny_spec_dict(schemes=["BOGUS"]))
        assert any("scheme" in d for d in err.value.diagnostics)

    def test_cache_fraction_invariant_surfaces(self):
        # fraction * objects < 1 is invalid for caching schemes
        with pytest.raises(ConfigError) as err:
            spec_from_dict(tiny_spec_dict(values=[0.01], schemes=["OPTIMIZED"]))
        assert any("cache_fraction" in d for d in err.value.diagnostics)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            spec_from_dict(tiny_spec_dict(bogus_field=3))
        assert any("unknown field" in d for d in err.value.diagnostics)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError) as err:
            load_spec(path)
        assert "line 2" in err.value.diagnostics[0]


class TestRunExperiment:
    def test_outputs_and_headers(self, tmp_path):
        spec = spec_from_dict(tiny_spec_dict())
        per_run, summary = run_into(spec, tmp_path / "out")
        with open(per_run) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == PER_RUN_HEADER
        assert len(rows) == 1 + 2 * 2 * 2  # values x schemes x seeds
        with open(summary) as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == SUMMARY_HEADER
        assert len(srows) == 1 + 2 * 2
        for row in srows[1:]:
            assert int(row[5]) == 2  # runs per point

    def test_summary_recomputable_from_per_run(self, tmp_path):
        spec = spec_from_dict(tiny_spec_dict())
        per_run, summary = run_into(spec, tmp_path / "out")
        with open(per_run) as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [[float(r[0]), r[1], int(r[2]), float(r[3]), float(r[4]), int(r[5])]
                    for r in reader]
        recomputed = summarize_rows(rows)
        with open(summary) as fh:
            reader = csv.reader(fh)
            next(reader)
            stored = [[float(r[0]), r[1], float(r[2]), float(r[3]), float(r[4]), int(r[5])]
                      for r in reader]
        assert recomputed == stored

    def test_rerun_byte_identical(self, tmp_path):
        spec = spec_from_dict(tiny_spec_dict())
        p1, s1 = run_into(spec, tmp_path / "a")
        p2, s2 = run_into(spec, tmp_path / "b")
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(s1, "rb").read() == open(s2, "rb").read()

    def test_parallel_matches_serial(self, tmp_path):
        """Workers keep their own topology memo and share fewer builds; the CSVs do not change."""
        spec = spec_from_dict(tiny_spec_dict(seeds=[0, 1, 2]))
        p1, s1 = run_into(spec, tmp_path / "serial")
        p2, s2 = run_into(spec, tmp_path / "parallel", jobs=2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(s1, "rb").read() == open(s2, "rb").read()

    def test_one_topology_build_per_seed(self, tmp_path, monkeypatch):
        """Cells run seed-major, so a seed's cells share one build, and a
        build constructs (and checks) one Topology."""
        builds, constructed = [], []
        generate = simnet.generate_power_law_topology
        check = Topology.__post_init__

        def counted(*args):
            builds.append(args)
            return generate(*args)

        def counted_check(topology):
            constructed.append(topology)
            check(topology)

        monkeypatch.setattr(simnet, "generate_power_law_topology", counted)
        monkeypatch.setattr(Topology, "__post_init__", counted_check)
        simnet._topology.cache_clear()
        spec = spec_from_dict(tiny_spec_dict(seeds=[0, 1, 2]))  # 2 values x 2 schemes x 3 seeds
        run_into(spec, tmp_path)
        assert len(builds) == 3
        assert len(set(builds)) == 3
        assert len(constructed) == 3

    def test_workers_capped_at_cell_count(self, tmp_path, monkeypatch):
        """Every worker is forked at the first submit, so there are no more than cells."""
        workers = []

        class InlineExecutor:  # records the pool size and maps in this process
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlineExecutor)
        spec = spec_from_dict(tiny_spec_dict())  # 2 values x 2 schemes x 2 seeds
        run_into(spec, tmp_path / "out", jobs=500)
        assert workers == [8]


# bounded sizes; each range reaches just past its field's valid edge
_SIZED = {
    "nodes": st.integers(1, 12),
    "objects": st.integers(1, 20),
    "alpha": st.floats(-0.1, 2.0),
    "requests_per_epoch": st.integers(0, 300),
    "epochs": st.integers(1, 2),
    "warmup_epochs": st.integers(0, 2),
    "cache_fraction": st.floats(0.0, 1.1),
}
_JUNK = st.sampled_from(["abc", "3", None, True, [1], {}, 1.5, float("nan"), float("inf"), -1])


@st.composite
def sweep_specs(draw):
    spec = {
        "sweep": draw(st.sampled_from(["cache_fraction", "alpha"])),
        "values": sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=2, unique=True))),
        "schemes": draw(st.lists(st.sampled_from([s.value for s in Scheme]), min_size=1, max_size=3,
                                 unique=True)),
        "seeds": draw(st.lists(st.integers(0, 20), min_size=1, max_size=2, unique=True)),
        "nodes": 8, "objects": 20, "requests_per_epoch": 200, "epochs": 2, "warmup_epochs": 0,
    }
    # the swept field takes its grid from values; fixing it too is rejected (BAD_SPECS)
    for name in draw(st.sets(st.sampled_from(sorted(set(_SIZED) - {spec["sweep"]})))):
        spec[name] = draw(_SIZED[name])
    if draw(st.integers(0, 3)) == 0:  # one key with a value of the wrong type
        spec[draw(st.sampled_from(sorted(spec)))] = draw(_JUNK)
    return spec


class TestAcceptedSpecsRun:
    @settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=sweep_specs())
    def test_accepted_spec_runs_with_sane_metrics(self, raw):
        """Anything validation accepts runs, and reports no impossible numbers."""
        try:
            spec = spec_from_dict(raw)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as out:
            per_run, _ = run_into(spec, out)
            with open(per_run) as fh:
                rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["avg_hops"]) >= 0
            assert 0 <= float(row["hit_ratio"]) <= 1


class TestRecipes:
    def test_cache_size_recipe_shape(self):
        spec = cache_size_sweep_spec()
        assert spec.sweep == "cache_fraction"
        assert spec.values == [0.01, 0.02, 0.03, 0.04, 0.05,
                               0.06, 0.07, 0.08, 0.09, 0.1]
        cell = spec.config(0.05, Scheme.OPTIMIZED, 0)  # SimConfig's defaults
        assert (cell.alpha, cell.nodes, cell.objects) == (0.8, 64, 200)
        assert validate_spec(spec) == []

    def test_alpha_recipe_shape(self):
        spec = alpha_sweep_spec()
        assert spec.sweep == "alpha"
        assert spec.values == [0.4, 0.6, 0.8, 1.0, 1.2]
        cell = spec.config(0.8, Scheme.OPTIMIZED, 0)  # SimConfig's defaults
        assert (cell.cache_fraction, cell.nodes, cell.objects) == (0.05, 64, 200)
        assert Scheme.OPTIMIZED in spec.schemes
        assert validate_spec(spec) == []

    @pytest.mark.parametrize("recipe,overrides", [
        (cache_size_sweep_spec, {"seeds": [-1]}),
        (alpha_sweep_spec, {"nodes": 1}),
        (demo_spec, {"bogus": 1}),
    ], ids=["seeds_negative", "nodes", "unknown_key"])
    def test_recipes_validated_like_files(self, recipe, overrides):
        with pytest.raises(ConfigError):
            recipe(**overrides)

    def test_recipe_names_int_beyond_str_digits(self):
        """A recipe override too long for str() is named in its field, by its size, once."""
        with pytest.raises(ConfigError) as raised:
            cache_size_sweep_spec(nodes=10**5000)
        assert raised.value.diagnostics == ["cache_fraction=0.01, scheme=OPTIMIZED and 49 more: "
                                            "nodes must be a 64-bit integer, got a 5001-digit int"]

    @pytest.mark.parametrize("overrides,diagnostic", [
        ({"values": [10**5000, "x"]}, "values: must be a list of numbers, got a 2-item list"),
        ({"sweep": 10**5000}, "sweep: must be one of ('cache_fraction', 'alpha'), got a 5001-digit int"),
    ], ids=["list", "sweep"])
    def test_recipe_names_axis_beyond_str_digits(self, overrides, diagnostic):
        """An axis holding an int too long for str() is named by its size, in one ConfigError line."""
        with pytest.raises(ConfigError) as raised:
            cache_size_sweep_spec(**overrides)
        assert raised.value.diagnostics == [diagnostic]

    @pytest.mark.parametrize("field", ["values", "seeds", "schemes", "output"])
    def test_long_bad_list_named_briefly(self, field):
        """A malformed list of 3,000 items gives one short diagnostic, not the list."""
        with pytest.raises(ConfigError) as raised:
            cache_size_sweep_spec(**{field: ["x"] * 3000})
        assert len(raised.value.diagnostics) == 1 and len(str(raised.value)) <= 80

    def test_recipe_overrides_win(self):
        spec = demo_spec(seeds=[3], output="elsewhere")
        assert (spec.seeds, spec.output) == ([3], "elsewhere")


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict()))
        assert main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("field,value", BAD_SPECS)
    def test_validate_bad_spec(self, tmp_path, capsys, field, value):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict(**{field: value})))
        assert main(["validate", str(path)]) == 1
        assert field in capsys.readouterr().out

    @pytest.mark.parametrize("sweep", ["cache_fraction", "alpha"])
    def test_validate_swept_value_beyond_float(self, tmp_path, capsys, sweep):
        """A sweep value that no float holds is INVALID in the swept field's name,
        on one line that names the value by its size."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict(sweep=sweep, values=[10**400])))
        assert main(["validate", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and len(lines[0]) <= 160
        assert lines[0].startswith("INVALID:") and f"{sweep} must be a finite float, got a 401-digit int" in lines[0]

    def test_validate_reports_each_problem_once(self, tmp_path, capsys):
        """A bad fixed field is one problem, however many (value, scheme) cells
        it breaks, and a value of hundreds of digits is named by its size."""
        raw = tiny_spec_dict(alpha=10**400)
        del raw["schemes"]  # the default schemes: five cells per value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and len(lines[0]) <= 160
        assert lines[0] == ("INVALID: cache_fraction=0.1, scheme=OPTIMIZED and 9 more: alpha must be a finite float, "
                            "got a 401-digit int")

    @pytest.mark.parametrize("field", ["m_attach", "origin_penalty", "smoothing"])
    def test_validate_rejects_retired_key(self, tmp_path, capsys, field):
        """A setting that became a constant is an unknown field and nothing else."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict(**{field: 1})))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"INVALID: unknown field: {field}\n"

    def test_validate_rejects_per_node_rate(self, tmp_path, capsys):
        """per_node_rate only scaled a demand that no output reads, so it is not a spec key."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict(per_node_rate=1.0)))
        assert main(["validate", str(path)]) == 1
        assert "unknown field: per_node_rate" in capsys.readouterr().out

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_run_writes_csvs(self, tmp_path, capsys):
        """Into the spec's output, or the --output directory that replaces it."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict(output=str(tmp_path / "from_spec"))))
        for argv, out in ((["run", str(path)], tmp_path / "from_spec"),
                          (["run", str(path), "--output", str(tmp_path / "results")], tmp_path / "results")):
            assert main(argv) == 0
            assert (out / "per_run.csv").exists()
            assert (out / "summary.csv").exists()

    def test_run_invalid_spec_nonzero(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict(values=[])))
        assert main(["run", str(path)]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_run_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict()))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--jobs", jobs, "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_spec_invalid(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(tiny_spec_dict()).encode("utf-16-le"))
        for argv in (["validate", str(path)], ["run", str(path), "--output", str(tmp_path / "out")]):
            assert main(argv) == 1
            out = capsys.readouterr().out
            assert out.startswith("INVALID:") and "not UTF-8" in out
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_parser_digits_invalid(self, tmp_path, capsys):
        """json refuses an integer past Python's str() digit limit (4,300 by
        default) with a plain ValueError: one INVALID line and exit 1, for
        both verbs."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict())[:-1] + ', "alpha": 1' + "0" * 5000 + "}")
        for argv in (["validate", str(path)], ["run", str(path), "--output", str(tmp_path / "out")]):
            assert main(argv) == 1
            limit = sys.get_int_max_str_digits()
            assert capsys.readouterr().out == f"INVALID: {path}: an integer has more than {limit} digits\n"
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_spec_invalid(self, tmp_path, capsys):
        """json gives up on deep nesting with a RecursionError: one INVALID
        line and exit 1, for both verbs."""
        path = tmp_path / "spec.json"
        path.write_text("[" * 200_000)
        for argv in (["validate", str(path)], ["run", str(path), "--output", str(tmp_path / "out")]):
            assert main(argv) == 1
            assert capsys.readouterr().out == f"INVALID: {path}: arrays or objects nested too deeply to parse\n"
        assert not (tmp_path / "out").exists()

    def test_demo_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["demo", "--output", str(blocker / "demo")]) == 1
        assert capsys.readouterr().out.startswith("error:")

    def test_demo(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--output", str(out)]) == 0
        assert (out / "summary.csv").exists()


class TestGoldenOutputs:
    """Pinned sha256 of the CSVs, so refactors cannot shift results unnoticed."""

    @pytest.mark.parametrize("make_spec,per_run_sha,summary_sha", [
        (demo_spec,
         "f5e59d90fe3b8aae6fd9da979591fd4779d9dc450f4bdbe6963d03dc46d06969",
         "83f845aa8495211996af9c2b573fa7b832a3044a43f0afb2f01c4a38fc532cd9"),
        (lambda: cache_size_sweep_spec(nodes=16, objects=100, seeds=[0, 1], requests_per_epoch=500,
                                       epochs=3, warmup_epochs=1),  # criterion 8's spec
         "4f225e00e08685953b2f93c0eebef48d6c77a9fca5db03e104f7b1d1558665fb",
         "e52af9ad211df8065a1a065a0b358278c2024f822cae31adb783217ce66f90c6"),
    ], ids=["demo", "criterion_8"])
    def test_csv_digests(self, tmp_path, make_spec, per_run_sha, summary_sha):
        per_run, summary = run_into(make_spec(), tmp_path)
        assert hashlib.sha256(open(per_run, "rb").read()).hexdigest() == per_run_sha
        assert hashlib.sha256(open(summary, "rb").read()).hexdigest() == summary_sha
