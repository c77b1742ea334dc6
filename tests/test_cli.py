"""Config ingestion, report emission, exit codes, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import pathlib
import tempfile
import warnings

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcontact.cli import (
    ConfigError,
    EXIT_INPUT_ERROR,
    EXIT_REFUTED,
    EXIT_VERIFIED,
    build_config,
    main,
    run,
)
from jetcontact.kernelexpr import BundleSpec, parse_kernel

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

FOCK_PAIR = {
    "bundles": [
        {"label": "a", "dimension": 2, "gram": [["exp(z1*zb1 + z2*zb2)"]]},
        {"label": "b", "dimension": 2, "gram": [["exp(z1*zb1 + z2*zb2)"]]},
    ]
}


def fock_config(**changes) -> dict:
    """A dim-2 pointwise Fock pair at one point, with `changes`."""
    return {"task": "pointwise", "order": 1, "points": [[0.0, 0.1]], **FOCK_PAIR, **changes}


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


class TestConfig:
    def test_minimal_along_z(self):
        cfg = build_config(
            {"task": "along-z", "order": 2, "points": [[0.0, 0.1]], **FOCK_PAIR}
        )
        assert cfg.order == 2
        assert cfg.points == [(0j, 0.1 + 0j)]

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="task"):
            build_config({"task": "frobnicate"})

    def test_missing_points(self):
        with pytest.raises(ConfigError, match="points"):
            build_config({"task": "pointwise", "order": 1, **FOCK_PAIR})

    def test_complex_point_formats(self):
        cfg = build_config(
            {
                "task": "pointwise",
                "order": 1,
                "points": [[0.5, "0.1+0.2i"], [[0.0, 0.0], 0.3]],
                **FOCK_PAIR,
            }
        )
        assert cfg.points[0][1] == pytest.approx(0.1 + 0.2j)
        assert cfg.points[1][0] == 0.0

    def test_off_slice_point_rejected(self):
        # refused by the contact problem, before any Gram is evaluated
        cfg = build_config({"task": "along-z", "order": 1, "points": [[0.2, 0.0]], **FOCK_PAIR})
        with pytest.raises(ValueError, match="does not lie on the slice z1 = 0"):
            run(cfg)

    def test_grid_expansion(self):
        cfg = build_config(
            {
                "task": "along-z",
                "order": 1,
                "grid": {"z2": {"re": [-0.2, 0.2], "count_re": 5}},
                **FOCK_PAIR,
            }
        )
        assert len(cfg.points) == 5
        assert all(p[0] == 0.0 for p in cfg.points)

    def test_bad_expression_located(self):
        with pytest.raises(ConfigError, match="bundles\\[0\\]"):
            build_config(
                {
                    "task": "curvature",
                    "order": 1,
                    "points": [[0.0]],
                    "bundles": [{"label": "x", "dimension": 1, "gram": [["1 +* z1"]]}],
                }
            )

    @pytest.mark.parametrize("key", ["gram", "candidate"])
    @pytest.mark.parametrize("value", [["exp(z1*zb1)"], [[1]], [1], 1.0])
    def test_expression_grids_are_matrices_of_strings(self, key, value):
        bundle = {"label": "g", "dimension": 1, "gram": [["exp(z1*zb1)"]]}
        raw = {"task": "pointwise", "points": [[0.1]], "bundles": [bundle, dict(bundle)]}
        (raw["bundles"][0] if key == "gram" else raw)[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be an expression or a matrix"):
            build_config(raw)

    def test_one_expression_is_a_one_by_one_matrix(self):
        bundle = {"label": "g", "dimension": 1, "gram": "exp(z1*zb1)"}
        cfg = build_config({"task": "pointwise", "points": [[0.1]], "candidate": "1 + z1",
                            "bundles": [bundle, dict(bundle)]})
        assert cfg.bundles[0].entries == [[parse_kernel("exp(z1*zb1)")]]
        assert cfg.candidate == [["1 + z1"]]

    def test_env_var_default_tolerance(self, monkeypatch):
        monkeypatch.setenv("JETCONTACT_TOLERANCE", "1e-6")
        cfg = build_config(
            {"task": "pointwise", "order": 1, "points": [[0.0, 0.0]], **FOCK_PAIR}
        )
        assert cfg.tolerance == 1e-6


class TestRun:
    def test_identical_bundles_verified(self):
        cfg = build_config(
            {"task": "along-z", "order": 2, "points": [[0.0, 0.1]], **FOCK_PAIR}
        )
        doc = run(cfg)
        assert doc["verdict"] == "verified"
        assert doc["exit_code"] == EXIT_VERIFIED
        assert doc["schema_version"] == "1"
        residuals = doc["results"]["points"][0]["residuals"]
        assert max(residuals.values()) < 1e-12

    def test_bergman_mismatch_refuted(self):
        cfg = build_config(
            {
                "task": "pointwise",
                "order": 1,
                "points": [[0.0]],
                "candidate": "1",
                "bundles": [
                    {"label": "b1", "dimension": 1, "gram": [["pow(1 - z1*zb1, -1)"]]},
                    {"label": "b2", "dimension": 1, "gram": [["pow(1 - z1*zb1, -2)"]]},
                ],
            }
        )
        doc = run(cfg)
        assert doc["verdict"] == "refuted"
        assert doc["exit_code"] == EXIT_REFUTED

    def test_appendix_task(self):
        cfg = build_config({"task": "verify-appendix", "appendix_bound": 5, "seed": 3})
        doc = run(cfg)
        assert doc["verdict"] == "verified"
        assert all(c["passed"] for c in doc["results"]["checks"])

    def test_rkhs_task(self):
        cfg = build_config(
            {
                "task": "rkhs-quotient",
                "order": 2,
                "points": [[0.0]],
                "bundles": [
                    {"label": "hardy", "dimension": 1, "gram": [["pow(1 - z1*zb1, -1)"]]},
                    {"label": "fock", "dimension": 1, "gram": [["exp(z1*zb1)"]]},
                ],
            }
        )
        doc = run(cfg)
        assert doc["verdict"] == "refuted"
        assert doc["results"]["agreement"] is True

    def test_recursions_task(self):
        cfg = build_config(
            {
                "task": "verify-recursions",
                "order": 2,
                "points": [[0.1, -0.2]],
                "tolerance": 1e-9,
                "bundles": [
                    {
                        "label": "c",
                        "dimension": 2,
                        "gram": [["exp(z1*zb1 + 0.5*z2*zb2) + 0.2*z1*z2*zb1*zb2"]],
                    }
                ],
            }
        )
        doc = run(cfg)
        assert doc["verdict"] == "verified"

    @pytest.mark.parametrize(
        "task,per_pass",
        [
            # the table's connections, and one of the jet on the z1-line for
            # the transverse tower
            ("curvature", [(1, 2), (2, 2), (1, 1)]),
            ("verify-recursions", [(1, 2), (2, 2)]),
        ],
    )
    def test_each_connection_formed_once_per_pass(self, monkeypatch, task, per_pass):
        import jetcontact.geometry as geometry

        calls = []
        real = geometry.connection

        def spy(H, i):
            calls.append((i, H.dim))
            return real(H, i)

        monkeypatch.setattr(geometry, "connection", spy)
        points = [[0.05 * k, [0.0, -0.1]] for k in range(10)]
        doc = run(build_config({**_task_configs()[task], "points": points}))
        assert doc["exit_code"] == EXIT_VERIFIED
        assert calls == per_pass * 2  # passes of 8 and 2 points

    @pytest.mark.parametrize("bad_order", [0, 1])
    def test_recursions_nan_residual_is_inconclusive(self, monkeypatch, bad_order):
        import numpy as np

        import jetcontact.cli as cli

        real = cli.Q_recursion

        def q_with_nan(h, j, order):
            out = real(h, j, order)
            return np.full_like(out, np.nan) if (j, order) == (1, bad_order) else out

        monkeypatch.setattr(cli, "Q_recursion", q_with_nan)
        cfg = build_config(
            {
                "task": "verify-recursions",
                "order": 2,
                "points": [[0.1, -0.2]],
                "tolerance": 1e-9,
                "bundles": [
                    {
                        "label": "c",
                        "dimension": 2,
                        "gram": [["exp(z1*zb1 + 0.5*z2*zb2) + 0.2*z1*z2*zb1*zb2"]],
                    }
                ],
            }
        )
        doc = run(cfg)
        assert doc["verdict"] == "inconclusive"

    def test_curvature_task_values(self):
        cfg = build_config(
            {
                "task": "curvature",
                "order": 1,
                "points": [[0.0]],
                "bundles": [
                    {"label": "b3", "dimension": 1, "gram": [["pow(1 - z1*zb1, -3)"]]}
                ],
            }
        )
        doc = run(cfg)
        assert doc["verdict"] == "completed"
        k = doc["results"]["points"][0]["curvature"]["K(1,1bar)"]
        assert k[0][0][0] == pytest.approx(3.0)

    def test_determinism(self):
        payload = {
            "task": "rkhs-quotient",
            "order": 2,
            "seed": 9,
            "points": [[0.0]],
            "bundles": [
                {"label": "hardy", "dimension": 1, "gram": [["pow(1 - z1*zb1, -1)"]]},
                {"label": "fock", "dimension": 1, "gram": [["exp(z1*zb1)"]]},
            ],
        }
        a = json.dumps(run(build_config(payload)), sort_keys=True)
        b = json.dumps(run(build_config(payload)), sort_keys=True)
        assert a == b


class TestShippedConfigs:
    CONFIG_CODES = [
        ("alongz-fock-pair.yaml", EXIT_VERIFIED),
        ("alongz-disc-rank2.yaml", EXIT_VERIFIED),
        ("pointwise-bergman-weights.yaml", EXIT_REFUTED),
        ("rkhs-hardy-vs-fock.yaml", EXIT_REFUTED),
        ("verify-appendix.yaml", EXIT_VERIFIED),
        ("curvature-bergman3.yaml", EXIT_VERIFIED),
        ("recursions-rank2-grid.yaml", EXIT_VERIFIED),
        ("pointwise-rank2-candidate.yaml", EXIT_VERIFIED),
        ("alongz-rank2-grid10.yaml", EXIT_VERIFIED),
        ("pointwise-long-sum.yaml", EXIT_VERIFIED),
        ("pointwise-integer-powers.yaml", EXIT_VERIFIED),
    ]

    @pytest.mark.parametrize("name,expected", CONFIG_CODES)
    def test_sample_config(self, name, expected, tmp_path):
        config = CONFIG_DIR / name
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--out", str(out)]) == expected
        assert json.loads(out.read_text())["schema_version"] == "1"


class TestMain:
    def test_end_to_end_report_file(self, tmp_path):
        path = write_config(
            tmp_path,
            {"task": "along-z", "order": 1, "points": [[0.0, 0.1]], **FOCK_PAIR},
        )
        out = tmp_path / "report.json"
        code = main(["--config", path, "--out", str(out)])
        assert code == EXIT_VERIFIED
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "verified"
        assert doc["tool"]["name"] == "jetcontact"

    def test_overrides(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "task": "rkhs-quotient",
                "order": 1,
                "points": [[0.0]],
                "bundles": [
                    {"label": "hardy", "dimension": 1, "gram": [["pow(1 - z1*zb1, -1)"]]},
                    {"label": "fock", "dimension": 1, "gram": [["exp(z1*zb1)"]]},
                ],
            },
        )
        out = tmp_path / "r.json"
        assert main(["--config", path, "--out", str(out)]) == EXIT_VERIFIED
        assert main(["--config", path, "--order", "2", "--out", str(out)]) == EXIT_REFUTED

    def test_help_and_bad_flags_exit_from_argparse(self, capsys):
        # the flag parser is built once and shared by every call
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(["--help"])
            assert stop.value.code == 0
            assert capsys.readouterr().out.startswith("usage: jetcontact [-h] --config CONFIG")
            with pytest.raises(SystemExit) as stop:
                main(["--config", "run.yaml", "--bogus"])
            assert stop.value.code == 2
            assert "jetcontact: error: unrecognized arguments: --bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("config,flags,message", [
        ("verify-appendix.yaml", ["--task", "pointwise"], "needs 2 bundle(s)"),
        ("alongz-fock-pair.yaml", ["--tolerance", "0"], "tolerance must be positive"),
        ("alongz-fock-pair.yaml", ["--tolerance", "-1"], "tolerance must be positive"),
    ])
    def test_overrides_are_validated_with_the_config(self, capsys, config, flags, message):
        assert main(["--config", str(CONFIG_DIR / config), *flags]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config,line,message", [
        ("alongz-fock-pair.yaml", "order: 2.5", "order must be an integer; got 2.5"),
        ("alongz-fock-pair.yaml", "order: true", "order must be an integer; got True"),
        ("alongz-fock-pair.yaml", "order: null", "order must be an integer; got None"),
        ("alongz-fock-pair.yaml", "seed: 1.0", "seed must be an integer; got 1.0"),
        ("alongz-fock-pair.yaml", "seed: false", "seed must be an integer; got False"),
        ("alongz-fock-pair.yaml", "seed: -1", "seed must be a non-negative integer; got -1"),
        ("alongz-fock-pair.yaml", "tolerance: .inf", "tolerance must be finite; got inf"),
        ("alongz-fock-pair.yaml", "tolerance: .nan", "tolerance must be finite; got nan"),
        pytest.param("alongz-fock-pair.yaml", f"tolerance: {'9' * 400}",
                     f"tolerance: cannot read {'9' * 400} as a number",
                     id="alongz-fock-pair.yaml-tolerance: 400 digits"),
        ("alongz-fock-pair.yaml", "tolerance: true", "tolerance: cannot read True"),
        ("alongz-fock-pair.yaml", "tolerance: null", "tolerance: cannot read None"),
        ("verify-appendix.yaml", "appendix_bound: 6.0", "appendix_bound must be an integer"),
        ("verify-appendix.yaml", "appendix_bound: true", "appendix_bound must be an integer"),
    ])
    def test_config_numbers_are_checked(self, tmp_path, capsys, config, line, message):
        key = line.split(":")[0]
        text = (CONFIG_DIR / config).read_text(encoding="utf-8")
        kept = [row for row in text.splitlines() if not row.startswith(f"{key}:")]
        path = tmp_path / config
        path.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
        assert main(["--config", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("z2,message", [
        ({"re": [-0.2, 0.2], "count_re": 2.5}, "grid.z2.count_re must be an integer; got 2.5"),
        ({"re": [-0.2, 0.2], "count_re": True}, "grid.z2.count_re must be an integer; got True"),
        ({"re": [-0.2, 0.2], "count_re": -1}, "grid.z2.count_re must be a positive integer; got -1"),
        ({"im": [0.0, 0.1], "count_im": 0}, "grid.z2.count_im must be a positive integer; got 0"),
        ({"re": [-0.2, math.inf], "count_re": 2}, "grid.z2.re must be finite; got inf"),
        ({"im": [math.nan, 0.1], "count_im": 2}, "grid.z2.im must be finite; got nan"),
        ({"re": [-0.2, True], "count_re": 2}, "grid.z2.re: cannot read True as a number"),
        ({"re": [-0.2], "count_re": 2}, "grid.z2.re: expected a [low, high] pair; got [-0.2]"),
        (5, "grid.z2 must be a mapping with re, im, count_re, count_im"),
    ])
    def test_grid_numbers_are_checked(self, tmp_path, capsys, z2, message):
        path = write_config(tmp_path, {"task": "along-z", "order": 1, "grid": {"z2": z2},
                                       **FOCK_PAIR})
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"jetcontact: input error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("coordinate,message", [
        (math.inf, "points[1] must be finite; got inf"),
        ([0.0, math.nan], "points[1] must be finite; got nan"),
        ("1e400", "points[1] must be finite; got '1e400'"),
        ("0.1+nani", "points[1] must be finite; got '0.1+nani'"),
        ([0.1, "x"], "points[1]: cannot read 'x' as a number"),
        ([True, 0.0], "points[1]: cannot read True as a number"),
        (True, "points[1]: expected a number, 'a+bi' string, or [re, im] pair"),
    ])
    def test_point_coordinates_are_checked(self, tmp_path, capsys, coordinate, message):
        path = write_config(tmp_path, {"task": "pointwise", "order": 1,
                                       "points": [[0.0, 0.1], [0.0, coordinate]], **FOCK_PAIR})
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"jetcontact: input error: {message}\n"

    # a tie at one point: bundle a fails its Gram check, b's program its log
    TIE = [{"label": "a", "dimension": 1, "gram": [["1 - 4*z1*zb1"]]},
           {"label": "b", "dimension": 1, "gram": [["2 + log(0.5 - z1*zb1)"]]}]
    LOG = "log needs a constant term with positive real part"
    # x^0 is 1, but its base is still evaluated and must be defined
    DEAD = {"label": "g", "dimension": 1, "gram": [["2 + (log(z1*zb1 - 1))^0"]]}

    @pytest.mark.parametrize("payload,message", [
        ([1, 2], "config root must be a mapping"),
        (fock_config(bundles=["x", "y"]),
         "bundles[0]: expected a mapping with label/dimension/gram"),
        (fock_config(bundles=[{"label": "a", "dimension": 2}, FOCK_PAIR["bundles"][1]]),
         "bundles[0]: missing key 'gram'"),
        (fock_config(points=[[0.0]]), "points[0]: expected 2 coordinates"),
        (fock_config(points=[[0.0, "abc"]]), "points[0]: cannot read 'abc' as a number"),
        (fock_config(task="along-z", grid=[1]), "grid must be a mapping from z2..zm to ranges"),
        (fock_config(grid={"z2": {"re": [-0.2, 0.2], "count_re": 2}}),
         "grid specifications only apply to along-z"),
        (fock_config(order=0), "order must be a positive integer; got 0"),
        (fock_config(bundles=[FOCK_PAIR["bundles"][0],
                              {"label": "b", "dimension": 1, "gram": "exp(z1*zb1)"}]),
         "bundles must share dimension and rank"),
        (fock_config(task="rkhs-quotient", points=[[0.0, 0.1], [0.0, 0.2]]),
         "rkhs-quotient expects exactly one base point"),
        (fock_config(bundles=[{"label": "a", "dimension": 2, "gram": [["1", "0"], ["0"]]},
                              FOCK_PAIR["bundles"][1]]),
         "bundles[0]: bundle 'a': gram is not square"),
        (fock_config(bundles=[{"label": "a", "dimension": 2, "gram": "exp(z3*zb3)"},
                              FOCK_PAIR["bundles"][1]]),
         "bundles[0]: bundle 'a': gram[0][0]: uses a variable beyond z2"),
        # at one point the error is the first failing step's: the merged
        # program's groups in schedule order, the Gram checks of a then b,
        # then the later stages
        ({"task": "pointwise", "order": 2, "points": [[0.9]], "bundles": TIE}, LOG),
        ({"task": "rkhs-quotient", "order": 2, "points": [[0.9]], "bundles": TIE}, LOG),
        # the inverse of z1*zb1 is scheduled before the log, which comes first in op order
        ({"task": "curvature", "order": 1, "points": [[0.0]],
          "bundles": [{"label": "g", "dimension": 1,
                       "gram": [["log(exp(z1*zb1) - 3)", "0"], ["0", "1/(z1*zb1)"]]}]},
         "constant term is singular"),
        (fock_config(order=1, points=[[0.0]], bundles=[DEAD, DEAD]), LOG),
        # every key is read by name: a value of the wrong type or out of
        # bounds, and a key the config does not have, are refused
        (fock_config(bundles=[dict(FOCK_PAIR["bundles"][0], dimension=2.7),
                              FOCK_PAIR["bundles"][1]]),
         "bundles[0].dimension must be an integer; got 2.7"),
        (fock_config(bundles=[dict(FOCK_PAIR["bundles"][0], dimension=True),
                              FOCK_PAIR["bundles"][1]]),
         "bundles[0].dimension must be an integer; got True"),
        (fock_config(task="along-z", points=[[]],
                     bundles=[{"label": label, "dimension": 0, "gram": "1"} for label in "ab"]),
         "bundles[0].dimension must be a positive integer; got 0"),
        (fock_config(bundles=[dict(FOCK_PAIR["bundles"][0], dimension=-1),
                              FOCK_PAIR["bundles"][1]]),
         "bundles[0].dimension must be a positive integer; got -1"),
        (fock_config(bundles=5), "bundles must be a list; got 5"),
        (fock_config(points=5), "points must be a list; got 5"),
        (fock_config(task="along-z", points=None, grid={"z2": {"re": [0.0, 0.1], "count_re": 2}}),
         "points must be a list; got None"),
        (fock_config(tolerence=1e-30), "config: unknown key 'tolerence'"),
        (fock_config(task="along-z", points=[], grid={"z3": {"re": [0.0, 0.1], "count_re": 2}}),
         "grid: unknown key 'z3'"),
        (fock_config(task="along-z", grid={"z2": {"re": [0.0, 0.1], "count": 2}}),
         "grid.z2: unknown key 'count'"),
        (fock_config(bundles=[dict(FOCK_PAIR["bundles"][0], rank=7), FOCK_PAIR["bundles"][1]]),
         "bundles[0].rank must be 1, the size of its gram; got 7"),
        (fock_config(bundles=[FOCK_PAIR["bundles"][0], dict(FOCK_PAIR["bundles"][1], ranks=1)]),
         "bundles[1]: unknown key 'ranks'"),
        (fock_config(bundles=[dict(FOCK_PAIR["bundles"][0], label=5), FOCK_PAIR["bundles"][1]]),
         "bundles[0].label must be a string; got 5"),
    ])
    def test_config_input_errors(self, tmp_path, capsys, payload, message):
        path = write_config(tmp_path, payload)
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"jetcontact: input error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("out,flags,message", [
        (5, [], "out must be a string; got 5"),
        (None, ["--out", "missing/r.json"], "cannot write report 'missing/r.json': "
         "[Errno 2] No such file or directory: 'missing/r.json'"),
        (None, ["--out", "."], "cannot write report '.': [Errno 21] Is a directory: '.'"),
    ])
    def test_report_that_cannot_be_written_is_input_error(self, tmp_path, capsys, monkeypatch,
                                                          out, flags, message):
        # the whole task runs first; then writing the report fails
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, fock_config(out=out))
        assert main(["--config", "run.yaml", *flags]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"jetcontact: input error: {message}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.yaml"]

    def test_grid_of_z2_only_sets_z3_to_zero(self, tmp_path):
        bundle = {"label": "f", "dimension": 3, "gram": "exp(z1*zb1 + z2*zb2 + z3*zb3)"}
        path = write_config(tmp_path, {
            "task": "along-z", "order": 1, "bundles": [bundle, dict(bundle, label="g")],
            "grid": {"z2": {"re": [-0.2, 0.2], "count_re": 3}}})
        out = tmp_path / "r.json"
        assert main(["--config", path, "--out", str(out)]) == EXIT_VERIFIED
        points = json.loads(out.read_text(encoding="utf-8"))["config"]["points"]
        assert len(points) == 3 and all(point[2] == [0.0, 0.0] for point in points)

    def test_overflowing_gram_is_input_error(self, tmp_path, capsys):
        # finite inputs, but exp(800) overflows at z1 = 1
        bundles = [{"label": "a", "dimension": 1, "gram": "exp(800*z1*zb1)"},
                   {"label": "b", "dimension": 1, "gram": "exp(z1*zb1)"}]
        path = write_config(tmp_path, {"task": "pointwise", "order": 1,
                                       "points": [[0.5], [1.0]], "bundles": bundles})
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "jetcontact: input error: bundle 'a': Gram jet is not finite at ((1+0j),)\n")

    def test_overflowing_candidate_is_input_error(self, tmp_path, capsys):
        # exp(80) is finite at z1 = 0.1; exp(800) overflows at z1 = 1
        bundles = [{"label": label, "dimension": 1, "gram": "exp(z1*zb1)"} for label in "ab"]
        path = write_config(tmp_path, {"task": "pointwise", "order": 2, "bundles": bundles,
                                       "points": [[0.1], [1.0]], "candidate": "exp(800*z1)"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "jetcontact: input error: candidate jet is not finite at ((1+0j),)\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_tolerance_override_must_be_finite(self, capsys, value):
        config = str(CONFIG_DIR / "alongz-fock-pair.yaml")
        assert main(["--config", config, f"--tolerance={value}"]) == EXIT_INPUT_ERROR
        message = (f"tolerance must be finite; got {float(value)!r}" if value != "0" else
                   "tolerance must be positive and finite; got 0.0")
        assert capsys.readouterr().err == f"jetcontact: input error: {message}\n"

    @pytest.mark.parametrize("config", sorted(path.name for path in CONFIG_DIR.glob("*.yaml")))
    def test_negative_seed_is_refused_by_name(self, tmp_path, capsys, config):
        # refused while the config is read, whatever the task
        out = tmp_path / "r.json"
        assert main(["--config", str(CONFIG_DIR / config), "--seed", "-1",
                     "--out", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "jetcontact: input error: seed must be a non-negative integer; got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("value,message", [
        ("nan", "tolerance (from JETCONTACT_TOLERANCE) must be finite; got 'nan'"),
        ("inf", "tolerance (from JETCONTACT_TOLERANCE) must be finite; got 'inf'"),
        ("tiny", "tolerance (from JETCONTACT_TOLERANCE): cannot read 'tiny' as a number"),
    ])
    def test_tolerance_from_the_environment_is_checked(self, tmp_path, capsys, monkeypatch,
                                                       value, message):
        monkeypatch.setenv("JETCONTACT_TOLERANCE", value)
        path = write_config(tmp_path, {"task": "along-z", "order": 1, "points": [[0.0, 0.1]],
                                       **FOCK_PAIR})
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err
        # a tolerance in the config or on the command line wins over the environment
        assert main(["--config", path, "--tolerance", "1e-8",
                     "--out", str(tmp_path / "r.json")]) == EXIT_VERIFIED

    def test_seed_and_task_overrides_reach_the_report(self, tmp_path):
        base = {"order": 1, "points": [[0.0, 0.1]], **FOCK_PAIR}
        path = write_config(tmp_path, {"task": "pointwise", **base})
        written = write_config(tmp_path, {"task": "along-z", "seed": 5, **base}, "along-z.yaml")
        out, want = tmp_path / "r.json", tmp_path / "want.json"
        main(["--config", path, "--task", "along-z", "--seed", "5", "--out", str(out)])
        main(["--config", written, "--out", str(want)])
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert (doc["task"], doc["seed"], doc["results"]["mode"]) == ("along-z", 5, "along-z")
        assert out.read_bytes() == want.read_bytes()

    def test_missing_config_is_input_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.yaml")]) == EXIT_INPUT_ERROR

    def test_invalid_yaml_is_input_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("task: [unclosed", encoding="utf-8")
        assert main(["--config", str(path)]) == EXIT_INPUT_ERROR

    def test_singular_center_is_input_error(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "task": "curvature",
                "order": 1,
                "points": [[1.0]],
                "bundles": [
                    {"label": "b", "dimension": 1, "gram": [["pow(1 - z1*zb1, -1)"]]}
                ],
            },
        )
        assert main(["--config", path]) == EXIT_INPUT_ERROR

    def test_byte_identical_reports(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "task": "verify-appendix",
                "appendix_bound": 4,
                "seed": 21,
            },
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["--config", path, "--out", str(out1)])
        main(["--config", path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
    def test_byte_identical_shipped_configs(self, tmp_path, name):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        config = str(CONFIG_DIR / name)
        main(["--config", config, "--out", str(out1)])
        main(["--config", config, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_non_finite_residual_is_named_in_strict_json(self, tmp_path, monkeypatch):
        import math

        import jetcontact.rkhs as rkhs

        monkeypatch.setattr(rkhs, "unitary_intertwiner",
                            lambda a, b, seed, **kw: (None, math.inf))
        out = tmp_path / "report.json"
        code = main(["--config", str(CONFIG_DIR / "rkhs-hardy-vs-fock.yaml"),
                     "--out", str(out)])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
        assert doc["results"]["residuals"]["shift-intertwiner"] == "inf"
        assert doc["results"]["direct_verdict"] == "inconclusive"
        assert code == doc["exit_code"]

    def test_direct_check_size_refused_before_evaluation(self, tmp_path, capsys,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(BundleSpec, "gram_jet", lambda *args: calls.append(args))
        bundle = {"label": "g", "dimension": 2,
                  "gram": [["exp(z1*zb1 + z2*zb2)", "0"], ["0", "exp(z1*zb1)"]]}
        path = write_config(
            tmp_path,  # table_size(2, 7) * 2 = 72 basis jets
            {"task": "rkhs-quotient", "order": 7, "points": [[0.0, 0.0]],
             "bundles": [bundle, bundle]},
        )
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert "direct check limited to dimension 64" in capsys.readouterr().err
        assert calls == []

    def test_variable_index_zero_is_input_error(self, tmp_path, capsys):
        bundle = {"label": "g", "dimension": 1, "gram": [["exp(z1*zb0)"]]}
        path = write_config(
            tmp_path,
            {"task": "pointwise", "order": 1, "points": [[0.0]], "bundles": [bundle, bundle]},
        )
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert "indices start at 1" in capsys.readouterr().err

    def test_asymmetry_beyond_order_two_is_input_error(self, tmp_path, capsys):
        # the asymmetry sits at degree 3, so a Gram checked only at orders
        # (2, 2) would pass; the order-3 tasks evaluate orders (3, 3)
        bad = {"label": "g", "dimension": 1, "gram": [["2", "z1^3"], ["0", "2"]]}
        for task in ("pointwise", "along-z"):
            path = write_config(
                tmp_path,
                {"task": task, "order": 3, "points": [[0.0]], "bundles": [bad, bad],
                 "candidate": [["1", "0"], ["0", "1"]]},
            )
            assert main(["--config", path]) == EXIT_INPUT_ERROR, task
            assert "not Hermitian-symmetric" in capsys.readouterr().err, task

    # positive definite for |z2| < 5: fails at the last grid point only
    WIDE = [["1", "0.2*z2"], ["0.2*zb2", "1"]]
    B_FIRST = ("bundle 'b': Gram matrix not positive definite at (0j, (1.5+0j)) "
               "(min eigenvalue -5.00e-01)")
    # the tasks of one bundle read bundle a alone, which fails at the last point
    A_LAST = ("bundle 'a': Gram matrix not positive definite at (0j, (6+0j)) "
              "(min eigenvalue -2.00e-01)")

    @pytest.mark.parametrize("task", ["along-z", "pointwise", "curvature", "verify-recursions"])
    @pytest.mark.parametrize(
        "b_gram,corner,messages",
        [
            # bundle b fails at the first point, bundle a only at the last
            pytest.param([["1", "z2"], ["zb2", "1"]], "1",
                         {"along-z": B_FIRST, "pointwise": B_FIRST}, id="b-fails-first"),
            # both Grams hold at the first point, where the corner map is
            # singular (along Z it is inverted); both fail at the last point
            pytest.param(WIDE, "z2 - 1.5",
                         {"along-z": "candidate value is singular at (0j, (1.5+0j))"},
                         id="singular-corner"),
        ],
    )
    def test_along_z_error_of_the_first_failing_point(self, tmp_path, capsys, task,
                                                      b_gram, corner, messages):
        # the error is the one the points give one at a time, in order: at a
        # point, bundle a's Gram, then bundle b's, then the routes
        bundles = [
            {"label": "a", "dimension": 2, "gram": self.WIDE},
            {"label": "b", "dimension": 2, "gram": b_gram},
        ]
        path = write_config(
            tmp_path,
            {"task": task, "order": 1, "points": [[0.0, 1.5], [0.0, 0.5], [0.0, 6.0]],
             "bundles": bundles, "candidate": [[corner, "0"], ["0", "1"]]},
        )
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        message = messages.get(task, self.A_LAST)
        assert capsys.readouterr().err == f"jetcontact: input error: {message}\n"

    @pytest.mark.parametrize("points,corner,where", [
        ([[0, 0.1]], "0", "(0j, (0.1+0j))"),
        # singular at the second point only: the first point's routes run
        ([[0, 0.1], [0, 0.2], [0, 0.3]], "z2 - 0.2", "(0j, (0.2+0j))"),
    ])
    def test_singular_candidate_names_its_point(self, tmp_path, capsys, points, corner, where):
        # along Z the gluing conditions invert the candidate's value
        raw = yaml.safe_load((CONFIG_DIR / "pointwise-rank2-candidate.yaml").read_text())
        raw.update(task="along-z", points=points, candidate=[[corner, "0"], ["0", corner]])
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            f"jetcontact: input error: candidate value is singular at {where}\n")

    @staticmethod
    def run_pointwise(tmp_path, gram, candidate):
        """Exit code and report bytes of a pointwise run on two copies of `gram`."""
        bundle = {"label": "g", "dimension": 1, "gram": gram}
        path = write_config(tmp_path, {"task": "pointwise", "order": 1, "points": [[0.0]],
                                       "bundles": [bundle, bundle], "candidate": candidate})
        out = tmp_path / "r.json"
        return main(["--config", path, "--out", str(out)]), out.read_bytes()

    def test_deeply_nested_gram_entry_reports_as_flat(self, tmp_path):
        # the echo prints the canonical text exp((z1 * zb1)) either way
        nested = "(" * 5000 + "z1" + ")" * 5000
        flat = self.run_pointwise(tmp_path, "exp(z1*zb1)", "1")
        assert flat[0] == EXIT_VERIFIED
        assert self.run_pointwise(tmp_path, f"exp({nested}*zb1)", "1") == flat

    def test_deeply_nested_candidate_decides_as_flat(self, tmp_path):
        # the candidate echo keeps the raw text, so only the results compare
        def decision(candidate):
            code, report = self.run_pointwise(tmp_path, "exp(z1*zb1)", candidate)
            doc = json.loads(report)
            return code, doc["verdict"], doc["results"]

        nested = "(" * 5000 + "z1" + ")" * 5000
        assert decision(f"1 + {nested}") == decision("1 + z1")

    def test_long_sum_evaluates(self, tmp_path):
        # the parser reads a sum of many terms in a loop into a flat program
        def residuals(gram):
            path = write_config(tmp_path, {
                "task": "pointwise", "order": 1, "points": [[0.01]], "candidate": "1",
                "bundles": [{"label": "a", "dimension": 1, "gram": gram},
                            {"label": "b", "dimension": 1, "gram": "exp(1501*z1*zb1)"}]})
            out = tmp_path / "r.json"
            assert main(["--config", path, "--out", str(out)]) == EXIT_REFUTED
            [point] = json.loads(out.read_text(encoding="utf-8"))["results"]["points"]
            return point["residuals"]

        long_sum = residuals("exp(" + " + ".join(["z1*zb1"] * 1500) + ")")
        product = residuals("exp(1500*z1*zb1)")
        assert long_sum.keys() == product.keys() and len(long_sum) == 2
        for key, value in product.items():
            assert long_sum[key] == pytest.approx(value, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("zb1", "conjugated variable in a holomorphic expression"),
            ("z1 +* 2", "unexpected token '*' (at position 4)"),
            ("z7", "uses a variable beyond z2"),
        ],
    )
    def test_candidate_error_names_its_entry(self, tmp_path, capsys, entry, message):
        gram = [["exp(z1*zb1 + z2*zb2)", "0"], ["0", "exp(z1*zb1)"]]
        bundle = {"label": "g", "dimension": 2, "gram": gram}
        path = write_config(tmp_path, {
            "task": "pointwise", "order": 1, "points": [[0.0, 0.0]],
            "bundles": [bundle, bundle], "candidate": [["1", entry], ["0", "1"]]})
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"jetcontact: input error: candidate[0][1]: {message}")

    @pytest.mark.parametrize(
        "which,entry,message",
        [
            (0, "1 + z1*zb1 + $",
             "bundles[0]: bundle 'a': gram[1][0]: unexpected character '$' (at position 13)"),
            (1, "z3*zb3", "bundles[1]: bundle 'b': gram[1][0]: uses a variable beyond z2"),
        ],
    )
    def test_gram_error_names_its_entry(self, tmp_path, capsys, which, entry, message):
        # Gram and candidate entries are read under one set of rules
        bundles = [{"label": label, "dimension": 2,
                    "gram": [["exp(z1*zb1 + z2*zb2)", "0"], ["0", "exp(z1*zb1)"]]}
                   for label in "ab"]
        bundles[which]["gram"][1][0] = entry
        path = write_config(tmp_path, {"task": "pointwise", "order": 1,
                                       "points": [[0.0, 0.0]], "bundles": bundles})
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"jetcontact: input error: {message}\n"

    @pytest.mark.parametrize(
        "candidate,lengths",
        [([["1", "0"]], [2]), ([[]], [0]), ([["1", "0"], ["0", "1"]], [2, 2])],
    )
    def test_candidate_grid_must_be_rank_by_rank(self, tmp_path, capsys, candidate, lengths):
        # the bundles of this config have rank 1
        raw = yaml.safe_load((CONFIG_DIR / "pointwise-bergman-weights.yaml").read_text())
        path = write_config(tmp_path, {**raw, "candidate": candidate})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "jetcontact: input error: candidate must be a 1 x 1 grid (the bundles' rank "
            f"is 1); got rows of lengths {lengths}\n")

    @pytest.mark.parametrize("grams", [([], [["1"]]), ([], [])])
    def test_empty_gram_grid_is_input_error(self, tmp_path, capsys, grams):
        bundles = [{"label": label, "dimension": 1, "gram": gram}
                   for label, gram in zip("ab", grams)]
        path = write_config(tmp_path, {"task": "pointwise", "order": 1, "points": [[0.0]],
                                       "bundles": bundles})
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "jetcontact: input error: bundles[0]: bundle 'a': gram is empty\n")

    @pytest.mark.parametrize(
        "expr,message",
        [
            ("log(-1)", "log needs a constant term with positive real part"),
            ("pow(-2, 0.5)", "real power needs a constant term with positive real part"),
            ("log(0)", "log needs a constant term with positive real part"),
            ("exp(z1*zb1)/0", "constant term is singular"),
            ("0^-1*exp(z1*zb1)", "constant term is singular"),
            ("exp(z1*zb1)/(1-1)", "constant term is singular"),
        ],
    )
    def test_literal_only_operand_guards(self, tmp_path, capsys, expr, message):
        bundle = {"label": "g", "dimension": 1, "gram": [[expr]]}
        path = write_config(
            tmp_path,
            {"task": "pointwise", "order": 1, "points": [[0.0]], "bundles": [bundle, bundle]},
        )
        assert main(["--config", path]) == EXIT_INPUT_ERROR
        assert f"input error: {message}" in capsys.readouterr().err


# a small along-z config that holds every key and is verified; the property
# below puts a value of any type at one of its keys, bundle or grid fields, or
# point coordinates
SMALL = {
    "task": "along-z", "order": 1, "tolerance": 1e-8, "seed": 0, "appendix_bound": 3,
    "bundles": [{"label": label, "dimension": 2, "rank": 1, "gram": "exp(z1*zb1 + z2*zb2)"}
                for label in "ab"],
    "points": [[0.0, 0.1]],
    "grid": {"z2": {"re": [-0.1, 0.1], "im": [0.0, 0.0], "count_re": 2, "count_im": 1}},
    "candidate": [["1"]], "out": "r.json",
}
SMALL_PATHS = ([(key,) for key in SMALL]
               + [("bundles", k, key) for k in (0, 1) for key in SMALL["bundles"][0]]
               + [("grid", "z2")] + [("grid", "z2", key) for key in SMALL["grid"]["z2"]]
               + [("points", 0, 0), ("points", 0, 1)])
# YAML values of every type; integers stay small, so no order or count makes
# a large computation, and texts hold no path separator
YAML_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text("az01.+-i ", max_size=4), st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.sampled_from(["re", "z2", "label"]), st.integers(-1, 2), max_size=2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(path=st.sampled_from(SMALL_PATHS), value=YAML_VALUES)
@example(path=("seed",), value=0)  # SMALL itself
def test_any_value_gives_a_verdict_or_one_input_error(path, value):
    raw = copy.deepcopy(SMALL)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        pathlib.Path("run.yaml").write_text(yaml.safe_dump(raw), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", "run.yaml"])
        left = sorted(os.listdir())
    if code == EXIT_INPUT_ERROR:
        assert err.getvalue().startswith("jetcontact: input error: ")
        assert err.getvalue().count("\n") == 1 and left == ["run.yaml"]
    else:
        assert code in (0, 1, 2) and err.getvalue() == ""
    if yaml.safe_dump(raw) == yaml.safe_dump(SMALL):  # == would take False for 0
        assert code == EXIT_VERIFIED and left == ["r.json", "run.yaml"]


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
def test_libyaml_and_python_loaders_agree(name):
    text = (CONFIG_DIR / name).read_text(encoding="utf-8")
    loaded = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert loaded == yaml.load(text, Loader=yaml.SafeLoader)


def _text_grid(grid):
    return [[e.text() for e in row] for row in grid]


def _task_configs() -> dict:
    """Small configs of every task that evaluates Gram jets, at order 2."""
    from conftest import PAIR_GRAMS_M2, conjugated_gram, unitriangular_pair

    corner = "0.3*z1 + 0.1*z2"
    _, a_inv = unitriangular_pair(corner)
    rank2 = [
        {"label": "h", "dimension": 2, "gram": PAIR_GRAMS_M2[0]},
        {"label": "ht", "dimension": 2,
         "gram": _text_grid(conjugated_gram(PAIR_GRAMS_M2[0], a_inv))},
    ]
    pair = {"bundles": rank2, "candidate": [["1", corner], ["0", "1"]]}
    line = {"bundles": [
        {"label": "a", "dimension": 2, "gram": [["exp(z1*zb1 + z2*zb2)"]]},
        {"label": "b", "dimension": 2, "gram": [["pow(1 - 0.5*z1*zb1 - 0.4*z2*zb2, -1)"]]},
    ]}
    grid = {"points": [[0.0, 0.1], [0.0, [-0.2, 0.1]], [0.0, 0.0]]}
    point = {"points": [[0.1, [0.0, -0.2]]]}
    single = {"bundles": rank2[:1], **point}
    hardy_fock = {"points": [[0.0]], "bundles": [
        {"label": "hardy", "dimension": 1, "gram": [["pow(1 - z1*zb1, -1)"]]},
        {"label": "fock", "dimension": 1, "gram": [["exp(z1*zb1)"]]},
    ]}
    configs = {
        "along-z": {"task": "along-z", **pair, **grid},
        "along-z-line": {"task": "along-z", **line, **grid},
        "pointwise": {"task": "pointwise", **pair, **point},
        "pointwise-line": {"task": "pointwise", **line, **point},
        "curvature": {"task": "curvature", **single},
        "verify-recursions": {"task": "verify-recursions", **single},
        "rkhs-quotient": {"task": "rkhs-quotient", **hardy_fock},
    }
    return {name: {**cfg, "order": 2} for name, cfg in configs.items()}


class TestJetOrders:
    """Each task evaluates Gram jets at the orders it reads.  Jets are exact
    up to their orders, so longer jets give the same report; a shorter one
    would raise OrderError rather than a wrong value."""

    # extra order over the contact order n that each task asks for
    EXTRA = {"along-z": 0, "along-z-line": 0, "pointwise": 0, "pointwise-line": 0,
             "curvature": 0, "verify-recursions": 1, "rkhs-quotient": 0}

    @pytest.mark.parametrize("name", sorted(EXTRA))
    def test_gram_jets_at_the_orders_read(self, monkeypatch, name):
        asked = []
        real = BundleSpec.gram_jet

        def spy(self, center, holo_order, anti_order, *partner):
            asked.append((holo_order, anti_order))
            return real(self, center, holo_order, anti_order, *partner)

        monkeypatch.setattr(BundleSpec, "gram_jet", spy)
        cfg = _task_configs()[name]
        run(build_config(cfg))
        n = 2 + self.EXTRA[name]
        assert asked and set(asked) == {(n, n)}

    @pytest.mark.parametrize("name", sorted(EXTRA))
    def test_longer_jets_give_the_same_report(self, monkeypatch, name):
        cfg = _task_configs()[name]
        want = json.dumps(run(build_config(cfg)), sort_keys=True)
        real = BundleSpec.gram_jet
        monkeypatch.setattr(
            BundleSpec, "gram_jet",
            lambda self, c, p, q, *partner: real(self, c, p + 1, q + 1, *partner)
        )
        assert json.dumps(run(build_config(cfg)), sort_keys=True) == want
