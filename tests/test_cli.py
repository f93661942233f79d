"""Command line interface: exit codes, file outputs, determinism, CSV round trip."""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import bundlemin
from bundlemin import cli
from bundlemin.analysis import approximate_minimal_set
from bundlemin.base_systems import (
    CircleAngle,
    DoubledCode,
    SymbolicWord,
    TernaryCode,
    circle_rotation,
    coding_word,
    doubled_cantor,
    sturmian,
)
from bundlemin.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    csv_to_points,
    main,
)
from bundlemin.constructions import (
    MAX_STURMIAN_PRECISION,
    MAX_THEOREM_D_PRECISION,
    MIN_THEOREM_D_PRECISION,
)
from bundlemin.errors import BundleMinError, InvalidPoint, SchemaError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _tag_bases():
    """One base per tag kind: a rotation, a K = 40 doubled odometer and a
    K = 8 Sturmian base."""
    return [circle_rotation(GOLDEN), doubled_cantor(precision=40), sturmian(GOLDEN, 8)[0]]


class TestBasePointTags:
    @pytest.mark.parametrize(
        "base, pt",
        [
            (circle_rotation(GOLDEN), CircleAngle(0.123456789)),
            (circle_rotation(GOLDEN), CircleAngle(GOLDEN)),
            # the doubled pair over the code 1234567, centred just above it
            (doubled_cantor(TernaryCode(1234568, 40)), DoubledCode(TernaryCode(1234567, 40), 1)),
            (doubled_cantor(TernaryCode(1234568, 40)), DoubledCode(TernaryCode(1234567, 40), -1)),
            (doubled_cantor(precision=40), DoubledCode(TernaryCode(98765, 40), 0)),
            (sturmian(GOLDEN, 400)[0], SymbolicWord((1 << 300) - 7, 400)),
        ],
        ids=[f"pt{i}" for i in range(6)],
    )
    def test_roundtrip_exact(self, base, pt):
        assert base.decode(pt.tag()) == pt

    def test_bad_tag_rejected(self):
        for base in _tag_bases():
            with pytest.raises((InvalidPoint, ValueError)):
                base.decode("martian:1:2")
            with pytest.raises((InvalidPoint, ValueError)):
                base.decode("dcode:zz")

    @pytest.mark.parametrize(
        "tag",
        ["word:ff:-3", "word:ff:0", "word:1ff:8", "dcode:ff:0:0", "dcode:-ff:40:0", "dcode:ff:40:2",
         "tern:ff:40", "per:1:2",
         # sides off the K = 40 base's doubled backward orbit
         "dcode:181cd:40:-1", "dcode:12d687:40:1"],
    )
    def test_out_of_range_or_removed_kind_rejected(self, tag):
        # no base decodes it, the base of its own kind included
        for base in _tag_bases():
            with pytest.raises((InvalidPoint, ValueError)):
                base.decode(tag)


class TestExitCodes:
    def test_unknown_construction(self, tmp_path, capsys):
        assert main(["build", "nosuch", "--out", str(tmp_path)]) == EXIT_CONFIG

    MALFORMED = {
        "not-json": lambda path: path.write_text("{oops"),
        "directory": lambda path: path.mkdir(),
        "not-utf8": lambda path: path.write_bytes(b'{"construction": "mob\xffius"}'),
    }

    @pytest.mark.parametrize("make", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_config(self, tmp_path, capsys, make):
        cfg = tmp_path / "cfg.json"
        make(cfg)
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        TestConfigBoundary.assert_one_config_error(capsys)

    def test_step_cap(self, tmp_path, monkeypatch):
        assert main(["build", "mobius", "--out", str(tmp_path)]) == EXIT_OK
        monkeypatch.setattr(cli, "STEP_CAP", 100)
        rc = main(["minimal-set", "--out", str(tmp_path), "--steps", "20000"])
        assert rc == EXIT_CAP

    @pytest.mark.parametrize("transient, rc", [(100, EXIT_OK), (101, EXIT_CAP), (1e30, EXIT_CAP)])
    def test_transient_cap(self, tmp_path, monkeypatch, capsys, transient, rc):
        monkeypatch.setattr(cli, "STEP_CAP", 100)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": "mobius", "transient": transient}))
        args = ["minimal-set", "--config", str(cfg), "--out", str(tmp_path), "--steps", "10"]
        assert main(args) == rc
        assert (tmp_path / "sample.csv").exists() == (rc == EXIT_OK)
        if rc == EXIT_CAP:
            err = capsys.readouterr().err
            assert err.startswith("refused: transient ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_nonpositive_steps(self, tmp_path, capsys, steps):
        assert main(["build", "mobius", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["minimal-set", "--out", str(tmp_path), "--steps", steps]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_negative_transient(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": "mobius", "transient": -1}))
        assert main(["minimal-set", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_missing_sample(self, tmp_path):
        assert main(["build", "mobius", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["classify", "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("args, err", [
        (["minimal-set", "--steps", "abc"], "config error: argument --steps: invalid int value: 'abc'\n"),
        (["classify", "--bogus"], "config error: unrecognized arguments: --bogus\n"),
        (["nosuch"], None),
        ([], None),
    ], ids=["steps-not-an-int", "unknown-flag", "unknown-command", "no-command"])
    def test_malformed_command_line(self, capsys, args, err):
        # argparse's usage block is not printed: the error is one line
        assert main(args) == EXIT_CONFIG
        printed = capsys.readouterr().err
        assert printed.startswith("config error: ") and printed.count("\n") == 1, printed
        assert err is None or printed == err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bundlemin classify")

    def test_build_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main(["build", "mobius", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot create --out directory {out}: File exists\n"

    def test_minimal_set_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert main(["minimal-set", "mobius", "--out", str(out), "--steps", "100"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot create --out directory {out}: Not a directory\n"

    @pytest.mark.parametrize("command, output", [("classify", "dichotomy.json"), ("plot", "sample.svg")])
    def test_output_that_cannot_be_written(self, tmp_path, capsys, command, output):
        assert main(["build", "mobius", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(tmp_path), "--steps", "500"]) == EXIT_OK
        (tmp_path / output).mkdir()
        capsys.readouterr()
        assert main([command, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot write {tmp_path / output}: Is a directory\n"
        assert not (tmp_path / (output + ".tmp")).exists()


class TestConfigBoundary:
    """A config the construction rejects exits 2 with one line, whether it
    comes from --config at build time or from a reloaded system.json."""

    BAD = {
        "alpha-out-of-range": {"construction": "sturmian-cylinder", "params": {"alpha": 2}},
        "alpha-not-a-number": {"construction": "sturmian-cylinder", "params": {"alpha": "x"}},
        "config-not-an-object": ["x"],
        "no-circles": {"construction": "m-circles", "params": {"m": 0}},
        "zero-edge-length": {"construction": "circle-product", "params": {"length": 0}},
        "zero-precision": {"construction": "sturmian-cylinder", "params": {"precision": 0}},
        "unknown-param": {"construction": "mobius", "params": {"alhpa": 0.3}},
        "precision-boolean": {"construction": "sturmian-cylinder", "params": {"precision": True}},
        "precision-fractional": {"construction": "sturmian-cylinder", "params": {"precision": 40.7}},
        "m-fractional": {"construction": "m-circles", "params": {"m": 2.5}},
        "m-too-large": {"construction": "m-circles", "params": {"m": 1500}},
        "doubling-precision-too-small": {"construction": "theorem-d-1", "params": {"precision": 3}},
        "theta0-on-two-points": {"construction": "theorem-d-2:two", "params": {"theta0": -5}},
        "theorem-d-1-orbit-can-close": {"construction": "theorem-d-1", "params": {"precision": 24}},
        "theorem-d-2-orbit-can-close": {"construction": "theorem-d-2:arc", "params": {"precision": 24}},
        "angle-nan": {"construction": "circle-product", "params": {"angle": math.nan}},
        "angle-infinite": {"construction": "m-circles", "params": {"angle": math.inf}},
        "length-infinite": {"construction": "circle-product", "params": {"length": math.inf}},
        "angle-nan-string": {"construction": "circle-product", "params": {"angle": "nan"}},
        "sturmian-precision-above-ceiling": {
            "construction": "sturmian-cylinder", "params": {"precision": MAX_STURMIAN_PRECISION + 1}},
        "theorem-d-precision-above-ceiling": {
            "construction": "theorem-d-1", "params": {"precision": MAX_THEOREM_D_PRECISION + 1}},
        # a rotation angle within 2^-52 of 0 or 1 leaves some float angle fixed
        **{
            f"alpha-{label}-{name}": {"construction": name, "params": {"alpha": alpha}}
            for name in ("mobius", "torus-on-mobius", "circle-product", "sturmian-cylinder")
            for label, alpha in (("1e-300", 1e-300), ("1-2^-53", 1.0 - 2.0**-53))
        },
    }

    def test_theorem_d_precision_floor(self):
        # the smallest K whose 2^K base codes outnumber the orbit points of
        # one run (transient and steps, each at most STEP_CAP)
        K = MIN_THEOREM_D_PRECISION
        assert 2 ** K > 2 * cli.STEP_CAP >= 2 ** (K - 1)

    @staticmethod
    def assert_one_config_error(capsys, start=""):
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {start}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("cfg", list(BAD.values()), ids=list(BAD))
    def test_build(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["build", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        self.assert_one_config_error(capsys)
        assert not (out / "system.json").exists()

    @pytest.mark.parametrize("command", ["minimal-set", "classify", "plot"])
    @pytest.mark.parametrize("cfg", list(BAD.values()), ids=list(BAD))
    def test_reloaded_system_json(self, tmp_path, capsys, cfg, command):
        (tmp_path / "system.json").write_text(json.dumps(cfg))
        assert main([command, "--out", str(tmp_path), "--steps", "100"]) == EXIT_CONFIG
        self.assert_one_config_error(capsys)

    @pytest.mark.parametrize("name", ["mobius", "torus-on-mobius", "circle-product", "sturmian-cylinder"])
    def test_alpha_of_one_ulp_builds(self, tmp_path, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": name, "params": {"alpha": 2.0**-52}}))
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_fibre_too_long_for_the_thinning_grid(self, tmp_path, capsys):
        # the fibre builds, but the delta / 4 grid cannot index its edge
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": "circle-product", "params": {"length": 1e300}}))
        out = str(tmp_path / "out")
        assert main(["build", "--config", str(cfg), "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert main(["minimal-set", "--out", out, "--steps", "200"]) == EXIT_CONFIG
        self.assert_one_config_error(capsys)


class TestParamBoundaryGrid:
    """Each float param of each construction, at the edges of the float
    line, runs build -> minimal-set -> classify to exit 0, 2 or 3, with one
    stderr line on an exit 2; no exception escapes main."""

    # every declared param that is not a whole number (m and precision
    # have their own entries in TestConfigBoundary.BAD)
    FLOAT_PARAMS = [
        ("mobius", "alpha"), ("torus-on-mobius", "alpha"), ("torus-on-mobius", "beta"),
        ("sturmian-cylinder", "alpha"), ("circle-product", "alpha"), ("circle-product", "length"),
        ("circle-product", "angle"), ("m-circles", "alpha"), ("m-circles", "angle"),
        ("theorem-d-2:arc", "theta0"),
    ]
    VALUES = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0, -1, 1, "0.3"]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("construction, key", FLOAT_PARAMS, ids=lambda v: v)
    def test_exits_cleanly(self, tmp_path, capsys, construction, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": construction, "params": {key: value}}))
        out = str(tmp_path / "out")
        for command in (["build", "--config", str(cfg)], ["minimal-set", "--steps", "200"], ["classify"]):
            capsys.readouterr()
            rc = main([*command, "--out", out])
            assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_INCONCLUSIVE), (command, rc)
            if rc == EXIT_CONFIG:
                err = capsys.readouterr().err
                assert err.startswith(("config error: ", "schema error: ")) and err.count("\n") == 1, err
                return


class TestRunSettings:
    """Bad run settings exit 2 with one line from every command that reads them."""

    BAD_FLAGS = {
        "delta-zero": ["--delta", "0"],
        "delta-negative": ["--delta", "-1"],
        "delta-nan": ["--delta", "nan"],
        "delta-too-large": ["--delta", "0.5"],
        "seed-negative": ["--seed", "-1"],
        "seed-too-large": ["--seed", "1000"],
    }
    BAD_CONFIG = {
        "delta-not-a-number": {"delta": "x"},
        "steps-not-a-number": {"steps": "x"},
        "transient-not-a-number": {"transient": "x"},
        "delta-null": {"delta": None},
        "steps-boolean": {"steps": True},
        "transient-boolean": {"transient": True},
        "steps-fractional": {"steps": 2.7},
        "transient-fractional": {"transient": 2.7},
    }

    @pytest.fixture(scope="class")
    def sampled(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sampled")
        assert main(["build", "mobius", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "2000"]) == EXIT_OK
        return out

    @pytest.mark.parametrize("command", ["minimal-set", "classify", "plot"])
    @pytest.mark.parametrize("flags", list(BAD_FLAGS.values()), ids=list(BAD_FLAGS))
    def test_flags(self, sampled, capsys, command, flags):
        capsys.readouterr()
        assert main([command, "--out", str(sampled), "--steps", "2000", *flags]) == EXIT_CONFIG
        TestConfigBoundary.assert_one_config_error(capsys)

    @pytest.mark.parametrize("command", ["minimal-set", "classify", "plot"])
    @pytest.mark.parametrize("cfg", list(BAD_CONFIG.values()), ids=list(BAD_CONFIG))
    def test_config(self, sampled, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out", str(sampled)]) == EXIT_CONFIG
        TestConfigBoundary.assert_one_config_error(capsys)

    def test_sample_untouched(self, sampled):
        before = (sampled / "sample.csv").read_bytes()
        assert main(["minimal-set", "--out", str(sampled), "--seed", "-1"]) == EXIT_CONFIG
        assert (sampled / "sample.csv").read_bytes() == before


class TestSampleDelta:
    """classify and plot read the sample at the delta it was thinned at,
    from provenance.json; a flag or config delta that differs exits 2."""

    @pytest.fixture(scope="class")
    def sampled(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sampled")
        assert main(["build", "torus-on-mobius", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "20000", "--delta", "0.1"]) == EXIT_OK
        return out

    def test_classify_without_a_flag_reads_the_sample_delta(self, sampled, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(sampled, out)
        # read at delta 0.02, this sample gave a confident wrong A1 (exit 0)
        assert main(["classify", "--out", str(out)]) == EXIT_INCONCLUSIVE
        assert json.loads((out / "dichotomy.json").read_text())["scales"]["delta"] == 0.1
        unflagged = (out / "verdict.txt").read_bytes()
        assert main(["classify", "--out", str(out), "--delta", "0.1"]) == EXIT_INCONCLUSIVE
        assert (out / "verdict.txt").read_bytes() == unflagged

    @pytest.mark.parametrize("command", ["classify", "plot"])
    def test_other_flag_delta_refused(self, sampled, capsys, command):
        capsys.readouterr()
        assert main([command, "--out", str(sampled), "--delta", "0.02"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: delta 0.02 is not 0.1, the delta of the sample in {sampled}\n"

    def test_other_config_delta_refused(self, sampled, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.05}))
        capsys.readouterr()
        assert main(["classify", "--config", str(cfg), "--out", str(sampled)]) == EXIT_CONFIG
        TestConfigBoundary.assert_one_config_error(capsys)


def _replace_row(path, row, field, value):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    if value is None:
        del cells[field]
    else:
        cells[field] = value
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _append_to_row(path, row, text):
    lines = path.read_text().splitlines(keepends=True)
    lines[row] = lines[row].rstrip("\n") + text + "\n"
    path.write_text("".join(lines))


def _swap_rows(path, a, b):
    lines = path.read_text().splitlines(keepends=True)
    lines[a], lines[b] = lines[b], lines[a]
    path.write_text("".join(lines))


def _replace_provenance(out, key, value):
    prov = json.loads((out / "provenance.json").read_text())
    prov[key] = value
    (out / "provenance.json").write_text(json.dumps(prov))


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


class TestDamagedOut:
    """A damaged sample.csv or provenance.json in --out exits 2 with one
    line from every command that loads the sample."""

    DAMAGE = {
        "four-fields": lambda out: _replace_row(out / "sample.csv", 2, 4, None),
        "parameter-not-a-number": lambda out: _replace_row(out / "sample.csv", 2, 4, "abc"),
        "unknown-edge": lambda out: _replace_row(out / "sample.csv", 2, 3, "ZZ"),
        "parameter-too-large": lambda out: _replace_row(out / "sample.csv", 2, 4, "1.5"),
        "parameter-negative": lambda out: _replace_row(out / "sample.csv", 5, 4, "-0.25"),
        "parameter-nan": lambda out: _replace_row(out / "sample.csv", 5, 4, "nan"),
        "sample-not-utf8": lambda out: (out / "sample.csv").write_bytes(
            (out / "sample.csv").read_bytes() + b"\xff\n"),
        "no-points": lambda out: (out / "sample.csv").write_text("step,base,tag,edge,parameter\n"),
        "provenance-not-json": lambda out: (out / "provenance.json").write_text("{oops"),
        "tag-wrong-kind": lambda out: _replace_row(out / "sample.csv", 2, 2, "dcode:ff:40:0"),
        "tag-malformed": lambda out: _replace_row(out / "sample.csv", -1, 2, "angle:xyz"),
        "base-not-a-number": lambda out: _replace_row(out / "sample.csv", 2, 1, "abc"),
        "base-disagrees-with-tag": lambda out: _replace_row(out / "sample.csv", 2, 1, "0.5"),
        "step-not-an-integer": lambda out: _replace_row(out / "sample.csv", 3, 0, "x"),
        "rows-swapped": lambda out: _swap_rows(out / "sample.csv", 2, 3),
        # longer than the csv module's field limit of 131,072 characters
        "field-over-the-csv-limit": lambda out: _append_to_row(out / "sample.csv", 3, "x" * 200_000),
        "sample-is-a-directory": lambda out: _replace_with_directory(out / "sample.csv"),
        "provenance-is-a-directory": lambda out: _replace_with_directory(out / "provenance.json"),
        "provenance-not-an-object": lambda out: (out / "provenance.json").write_text("[1, 2]"),
        "provenance-other-system": lambda out: _replace_provenance(out, "system", "mobius(alpha=0.5)"),
        "provenance-missing": lambda out: (out / "provenance.json").unlink(),
        "provenance-steps-below-rows": lambda out: _replace_provenance(out, "steps", 5),
        "provenance-separation-not-quarter-delta": lambda out: _replace_provenance(out, "separation", 0.01),
        "provenance-seed-index-out-of-range": lambda out: _replace_provenance(out, "seed_index", 1000),
        # separation is delta / 4, so only the range check refuses it
        "provenance-delta-out-of-range": lambda out: (
            _replace_provenance(out, "delta", 0.5), _replace_provenance(out, "separation", 0.125)),
    }

    @pytest.fixture(scope="class")
    def sampled(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sampled")
        assert main(["build", "mobius", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "2000"]) == EXIT_OK
        return out

    @pytest.mark.parametrize("command", ["classify", "plot"])
    @pytest.mark.parametrize("damage", list(DAMAGE.values()), ids=list(DAMAGE))
    def test_exits_2_with_one_line(self, sampled, tmp_path, capsys, damage, command):
        out = tmp_path / "out"
        shutil.copytree(sampled, out)
        damage(out)
        capsys.readouterr()
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("construction, params", [
        ("theorem-d-2:arc", {"theta0": 1.0}),
        ("circle-product", {"length": 2.0}),
        ("m-circles", {"alpha": 0.3}),
    ])
    def test_sample_of_another_build(self, tmp_path, capsys, construction, params):
        # the sample was drawn under other params than the rebuilt system's
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": construction, "params": params}))
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "3000"]) == EXIT_OK
        assert main(["build", construction, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["classify", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["classify", "plot"])
    def test_side_tag_off_the_doubled_orbit(self, tmp_path, capsys, command):
        # a doubled-code tag of the right type whose side the base refuses
        out = tmp_path / "out"
        assert main(["build", "theorem-d-1", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "500"]) == EXIT_OK
        tag = (out / "sample.csv").read_text().splitlines()[2].split(",")[2]
        _replace_row(out / "sample.csv", 2, 2, tag.rpartition(":")[0] + ":1")
        capsys.readouterr()
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["classify", "plot"])
    def test_word_tag_below_precision_one(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(["build", "sturmian-cylinder", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "2000"]) == EXIT_OK
        tag = (out / "sample.csv").read_text().splitlines()[2].split(",")[2]
        _replace_row(out / "sample.csv", 2, 2, tag.rpartition(":")[0] + ":-3")
        capsys.readouterr()
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["classify", "plot"])
    @pytest.mark.parametrize("construction, steps, retag", [
        # the same code read at precision 39, not the base's 40: it embeds
        # to the same float, so the base cell still agrees with the tag
        ("theorem-d-1", 500, lambda tag: tag.replace(":40:", ":39:")),
        # the word cut to the 35 digits its embedding reads
        ("sturmian-cylinder", 2000, lambda tag: f"word:{int(tag.split(':')[1], 16) & (1 << 35) - 1:x}:35"),
        # side -1 off the doubled backward orbit embeds like side 0
        ("theorem-d-1", 500, lambda tag: tag.rpartition(":")[0] + ":-1"),
    ], ids=["dcode", "word", "dcode-side"])
    def test_tag_of_another_precision(self, tmp_path, capsys, construction, steps, retag, command):
        out = tmp_path / "out"
        assert main(["build", construction, "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", str(steps)]) == EXIT_OK
        tag = (out / "sample.csv").read_text().splitlines()[2].split(",")[2]
        _replace_row(out / "sample.csv", 2, 2, retag(tag))
        capsys.readouterr()
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and err.count("\n") == 1, err


def _reference_csv_to_points(text, base, fibre):
    """The column-at-a-time sample reader that ``cli.csv_to_points``
    replaced: the whole text parsed into rows, then each check run over
    every row before the next; it raises the same SchemaError texts."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != cli.SAMPLE_HEADER:
        raise SchemaError("sample CSV header mismatch")
    body = rows[1:]

    def first_false(ok):
        bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
        return int(bad[0]) if len(bad) else None

    def read_column(cells, read, what):
        out = []
        try:
            for cell in cells:
                out.append(read(cell))
        except (ValueError, BundleMinError) as exc:
            raise SchemaError(f"sample CSV line {len(out) + 2}: {what} {cell!r}: {exc}") from exc
        return out

    i = first_false([len(row) == 5 for row in body])
    if i is not None:
        raise SchemaError(f"sample CSV line {i + 2}: {len(body[i])} fields, expected 5")
    step_cells, base_cells, tags, edge_cells, t_cells = zip(*body) if body else ((),) * 5
    i = first_false([cell == str(k) for k, cell in enumerate(step_cells)])
    if i is not None:
        raise SchemaError(f"sample CSV line {i + 2}: step {step_cells[i]!r}, expected {i}")
    bases = read_column(tags, base.decode, "tag")
    written = np.array(read_column(base_cells, float, "base"), dtype=float)
    fibre_edges = {e.id: k for k, e in enumerate(fibre.edges)}
    edge_idx = list(map(fibre_edges.get, edge_cells))
    i = first_false([k is not None for k in edge_idx])
    if i is not None:
        raise SchemaError(f"sample CSV line {i + 2}: unknown fibre edge {edge_cells[i]!r}")
    ts = np.array(read_column(t_cells, float, "parameter"), dtype=float)
    i = first_false((ts >= 0.0) & (ts <= 1.0))
    if i is not None:
        raise SchemaError(f"sample CSV line {i + 2}: parameter {float(ts[i])!r} outside [0, 1]")
    return bases, np.array(edge_idx, dtype=int), ts, written


def _set_cell(field, value):
    """A damage that sets (or, for None, deletes) one field of a line."""

    def damage(lines, row, rng):
        cells = lines[row].split(",")
        if field < len(cells):
            if value is None:
                del cells[field]
            else:
                cells[field] = value
        lines[row] = ",".join(cells)

    return damage


def _swap_with_next(lines, row, rng):
    lines[row], lines[row + 1] = lines[row + 1], lines[row]


def _carriage_return(lines, row, rng):
    # a lone CR ends a line under universal newlines
    at = rng.randrange(len(lines[row]) + 1)
    lines[row] = lines[row][:at] + "\r" + lines[row][at:]


def _quoted_over_two_lines(lines, row, rng):
    cells = lines[row].split(",")
    field = rng.randrange(len(cells))
    cell = cells[field]
    at = rng.randrange(len(cell) + 1)
    cells[field] = '"' + cell[:at] + "\n" + cell[at:] + '"'
    lines[row] = ",".join(cells)


class TestSampleStream:
    """``csv_to_points`` reads the sample in one pass, ``sample_to_csv``
    writes it one row at a time, ``plot`` writes ``sample.svg`` one element
    at a time, and none of them holds a copy of the file."""

    # TestDamagedOut's row damages, less the over-long field the reference
    # reader cannot parse, plus line breaks inside a row
    ROW_DAMAGES = {
        "four-fields": _set_cell(4, None),
        "parameter-not-a-number": _set_cell(4, "abc"),
        "unknown-edge": _set_cell(3, "ZZ"),
        "parameter-too-large": _set_cell(4, "1.5"),
        "parameter-negative": _set_cell(4, "-0.25"),
        "parameter-nan": _set_cell(4, "nan"),
        "tag-wrong-kind": _set_cell(2, "dcode:ff:40:0"),
        "tag-malformed": _set_cell(2, "angle:xyz"),
        "base-not-a-number": _set_cell(1, "abc"),
        "base-disagrees-with-tag": _set_cell(1, "0.5"),
        "step-not-an-integer": _set_cell(0, "x"),
        "rows-swapped": _swap_with_next,
        "carriage-return-in-a-field": _carriage_return,
        "quoted-field-over-two-lines": _quoted_over_two_lines,
    }

    # the check each SchemaError text comes from
    CHECK_OF = [
        ("header", r"header mismatch$"),
        ("fields", r"line \d+: \d+ fields, expected 5$"),
        ("step", r"line \d+: step "),
        ("tag", r"line \d+: tag "),
        ("base", r"line \d+: base "),
        ("edge", r"line \d+: unknown fibre edge "),
        ("range", r"line \d+: parameter \S+ outside \[0, 1\]$"),
        ("parameter", r"line \d+: parameter "),
    ]

    @pytest.fixture(scope="class")
    def mobius_sample(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("mobius")
        assert main(["build", "mobius", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "2000"]) == EXIT_OK
        return (out / "sample.csv").read_text()

    @staticmethod
    def _outcome(read):
        try:
            return "columns", read()
        except SchemaError as exc:
            return "error", str(exc)

    def test_damaged_copies_read_as_the_reference_reads_them(self, mobius_sample, tmp_path):
        s = cli.CONSTRUCTIONS["mobius"]({}).system
        damages = list(self.ROW_DAMAGES.values())
        rng = random.Random(20261019)
        path = tmp_path / "sample.csv"
        errors = set()
        columns = 0
        for _ in range(240):
            lines = mobius_sample.split("\n")
            # the last line is the empty one after the final newline
            for damage in rng.choices(damages, k=rng.randint(1, 3)):
                damage(lines, rng.randrange(len(lines) - 2), rng)
            path.write_bytes("\n".join(lines).encode())
            ref = self._outcome(lambda: _reference_csv_to_points(
                path.read_text(encoding="utf-8"), s.base, s.bundle.fibre))
            with closing(cli._read_out_lines(path)) as stream:
                got = self._outcome(lambda: csv_to_points(stream, s.base, s.bundle.fibre))
            assert got[0] == ref[0], (got, ref)
            if ref[0] == "error":
                assert got[1] == ref[1]
                errors.add(next(check for check, pattern in self.CHECK_OF if re.search(pattern, ref[1])))
            else:
                columns += 1
                assert got[1][0] == ref[1][0]
                for a, b in zip(got[1][1:], ref[1][1:]):
                    assert a.dtype == b.dtype and a.tolist() == b.tolist()
        # every check on the rows was reached, and some copies still load
        assert errors >= set(cli.SAMPLE_CHECKS) - {"header"}, errors
        assert columns > 0

    @pytest.mark.parametrize("data", [
        b"step\n\xff\n",
        b"a,b\r\nc\xe2\x28\xa1,d\n",
        b"abc\n\xe2\x82",
        b"x,y\n" * 5000 + b"z\xc3\n",
    ], ids=["invalid-start", "invalid-continuation", "truncated-at-end", "past-the-first-block"])
    def test_not_utf8_names_the_offset_in_the_file(self, tmp_path, data):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text(encoding="utf-8")
        exc = whole.value
        with pytest.raises(SchemaError) as streamed:
            "".join(cli._read_out_lines(path))
        assert str(streamed.value) == f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"

    @pytest.mark.parametrize("data", [
        b"", b"a", b"a\n", b"a\r", b"a\r\n", b"a\rb\r\nc\n\rd", b"\r\r\n\n\r", b"x\x0by\x0cz\n",
        "\u2028\u00e9\r".encode(),
    ])
    def test_lines_are_read_text_with_universal_newlines(self, tmp_path, data):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        lines = list(cli._read_out_lines(path))
        assert "".join(lines) == path.read_text(encoding="utf-8")
        assert all(line.count("\n") == line.endswith("\n") for line in lines), lines

    @pytest.fixture(scope="class")
    def torus_sample(self):
        res = cli.CONSTRUCTIONS["torus-on-mobius"]({})
        s = res.system
        return s, approximate_minimal_set(s, res.seed(0), 100, 20_000, 0.02)

    def test_memory_per_row(self, torus_sample, tmp_path):
        # the whole-file reader held a UCS-4 copy of the text and one list
        # per row, about 740 B a row; the writer held the text three times,
        # about 290 B a row
        s, sample = torus_sample
        path = tmp_path / "sample.csv"
        tracemalloc.start()
        try:
            cli.write_out(tmp_path, {"sample.csv": lambda f: cli.sample_to_csv(sample, f)})
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with closing(cli._read_out_lines(path)) as lines:
                loaded = csv_to_points(lines, s.base, s.bundle.fibre)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = len(sample.bases)
        assert len(loaded[0]) == rows
        assert write_peak / rows < 150, (write_peak, rows)
        assert load_peak / rows < 300, (load_peak, rows)

    def test_plot_memory_per_row(self, tmp_path, monkeypatch):
        # what plot allocates beyond the sample it loaded; rendering the
        # whole document held a (base, edge, t) tuple per row and the SVG
        # text, about 355 B a row
        out = str(tmp_path)
        assert main(["build", "torus-on-mobius", "--out", out]) == EXIT_OK
        assert main(["minimal-set", "--out", out, "--steps", "20000"]) == EXIT_OK
        load = cli._load_sample
        loaded = {}

        def load_then_reset_peak(args):
            result = load(args)
            loaded["rows"] = len(result[3].bases)
            loaded["held"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(cli, "_load_sample", load_then_reset_peak)
        tracemalloc.start()
        try:
            assert main(["plot", "--out", out]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_row = (peak - loaded["held"]) / loaded["rows"]
        assert per_row < 40, (peak, loaded)

    def test_failed_write_leaves_the_sample_as_it_was(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main(["build", "mobius", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "2000"]) == EXIT_OK
        before = (out / "sample.csv").read_bytes()

        def half_written(sample, f):
            f.write("step,base")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "sample_to_csv", half_written)
        capsys.readouterr()
        assert main(["minimal-set", "--out", str(out), "--steps", "3000"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot write {out / 'sample.csv'}: No space left on device\n"
        assert (out / "sample.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["provenance.json", "sample.csv", "summary.txt", "system.json"]


class TestOutHoldsOneSample:
    """No file in --out is derived from a sample other than its sample.csv."""

    def test_new_sample_removes_the_old_verdicts_and_plot(self, tmp_path):
        out = str(tmp_path)
        assert main(["build", "mobius", "--out", out]) == EXIT_OK
        assert main(["minimal-set", "--out", out, "--steps", "2000"]) == EXIT_OK
        assert main(["classify", "--out", out]) in (EXIT_OK, EXIT_INCONCLUSIVE)
        assert main(["plot", "--out", out]) == EXIT_OK
        derived = ("dichotomy.json", "trichotomy.json", "circles.json", "verdict.txt", "sample.svg")
        assert all((tmp_path / name).exists() for name in derived)
        assert main(["minimal-set", "--out", out, "--steps", "500", "--delta", "0.05"]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "provenance.json", "sample.csv", "summary.txt", "system.json"]

    def test_failed_verdict_write_leaves_no_verdict(self, tmp_path, capsys):
        assert main(["build", "mobius", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(tmp_path), "--steps", "500"]) == EXIT_OK
        (tmp_path / "circles.json").mkdir()
        capsys.readouterr()
        assert main(["classify", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot write {tmp_path / 'circles.json'}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "circles.json", "provenance.json", "sample.csv", "summary.txt", "system.json"]


class TestWriteFailures:
    """A command whose output cannot be written, or whose stale file cannot
    be removed, exits 2 with one line; it leaves behind no .tmp or
    set-aside file of its own, and --out holds exactly the files it held
    before."""

    OUTPUTS = {
        "build": ("system.json", "summary.txt"),
        "minimal-set": ("sample.csv", "provenance.json"),
        "classify": cli.VERDICT_FILES,
        "plot": ("sample.svg",),
    }
    ARGS = {
        "build": ["build", "mobius"],
        "minimal-set": ["minimal-set", "--steps", "500", "--delta", "0.05"],
        "classify": ["classify"],
        "plot": ["plot"],
    }
    # (command, blocked name, what fails): a directory stands at the name;
    # at <name>.old it stops the old file from being set aside
    CASES = [
        *((command, name + suffix, "write")
          for command, names in OUTPUTS.items() for suffix in ("", ".tmp", ".old") for name in names),
        *(("minimal-set", name + suffix, "remove")
          for suffix in ("", ".old") for name in (*cli.VERDICT_FILES, "sample.svg")),
    ]

    @pytest.fixture(scope="class")
    def previous(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("previous")
        assert main(["build", "mobius", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "--out", str(out), "--steps", "2000"]) == EXIT_OK
        assert main(["classify", "--out", str(out)]) == EXIT_OK
        assert main(["plot", "--out", str(out)]) == EXIT_OK
        return out

    @pytest.mark.parametrize("command, blocked, fails", CASES, ids=["-".join(case) for case in CASES])
    def test_keeps_the_previous_set(self, previous, tmp_path, capsys, command, blocked, fails):
        out = tmp_path / "out"
        shutil.copytree(previous, out)
        # outputs the command would write again byte for byte are marked,
        # so that a new file left in place shows
        for name in self.OUTPUTS[command]:
            (out / name).write_text(f"previous {name}\n")
        (out / blocked).unlink(missing_ok=True)
        (out / blocked).mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        capsys.readouterr()
        assert main([*self.ARGS[command], "--out", str(out)]) == EXIT_CONFIG
        TestConfigBoundary.assert_one_config_error(capsys, f"cannot {fails} {out / blocked}: ")
        assert (out / blocked).is_dir()
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert after == before

    def test_failed_provenance_write_keeps_the_old_sample(self, tmp_path, capsys):
        # a new sample.csv beside the old provenance.json read as a sample
        # thinned at the old delta, and classify exited 0 on it
        out = str(tmp_path)
        assert main(["build", "mobius", "--out", out]) == EXIT_OK
        assert main(["minimal-set", "--out", out, "--steps", "2000"]) == EXIT_OK
        assert main(["classify", "--out", out]) == EXIT_OK
        verdicts = {name: (tmp_path / name).read_bytes() for name in cli.VERDICT_FILES}
        (tmp_path / "provenance.json.tmp").mkdir()
        capsys.readouterr()
        assert main(["minimal-set", "--out", out, "--steps", "2000", "--delta", "0.05"]) == EXIT_CONFIG
        TestConfigBoundary.assert_one_config_error(capsys, f"cannot write {tmp_path / 'provenance.json.tmp'}: ")
        assert len((tmp_path / "sample.csv").read_text().splitlines()) == 1 + 235
        assert {name: (tmp_path / name).read_bytes() for name in cli.VERDICT_FILES} == verdicts
        assert main(["classify", "--out", out]) == EXIT_OK
        assert {name: (tmp_path / name).read_bytes() for name in cli.VERDICT_FILES} == verdicts


class TestOtherConstruction:
    """After a build, a construction name or params other than system.json's
    exit 2 with one line; the same ones are accepted."""

    @pytest.fixture(scope="class")
    def sampled(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sampled")
        assert main(["build", "mobius", "--out", str(out)]) == EXIT_OK
        assert main(["minimal-set", "mobius", "--out", str(out), "--steps", "500"]) == EXIT_OK
        return out

    OTHER = {
        "name": (["torus-on-mobius"], None),
        "config-name-and-params": ([], {"construction": "m-circles", "params": {"m": 5}}),
        "config-params": ([], {"construction": "mobius", "params": {"alpha": 0.3}}),
        "params-without-a-name": ([], {"params": {"alpha": 0.3}}),
    }

    @pytest.mark.parametrize("command", ["minimal-set", "classify", "plot"])
    @pytest.mark.parametrize("name, cfg", list(OTHER.values()), ids=list(OTHER))
    def test_refused(self, sampled, tmp_path, capsys, command, name, cfg):
        flags = []
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            flags = ["--config", str(tmp_path / "cfg.json")]
        before = {p.name: p.read_bytes() for p in sampled.iterdir()}
        capsys.readouterr()
        assert main([command, *name, *flags, "--out", str(sampled), "--steps", "500"]) == EXIT_CONFIG
        TestConfigBoundary.assert_one_config_error(capsys)
        assert {p.name: p.read_bytes() for p in sampled.iterdir()} == before

    @pytest.mark.parametrize("command", ["minimal-set", "classify", "plot"])
    def test_the_same_accepted(self, sampled, tmp_path, command):
        out = tmp_path / "out"
        shutil.copytree(sampled, out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": "mobius", "params": {}}))
        for flags in (["mobius"], ["--config", str(cfg)]):
            assert main([command, *flags, "--out", str(out), "--steps", "500"]) == EXIT_OK


class TestPipeline:
    def test_mobius_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["build", "mobius", "--out", out]) == EXIT_OK
        assert main(["minimal-set", "--out", out, "--steps", "20000", "--delta", "0.02"]) == EXIT_OK
        assert main(["classify", "--out", out]) == EXIT_OK
        assert main(["plot", "--out", out]) == EXIT_OK

        dich = json.loads((tmp_path / "dichotomy.json").read_text())
        assert dich["verdict"] == "A1"
        assert dich["endpoint_fraction"] == 1.0
        tri = json.loads((tmp_path / "trichotomy.json").read_text())
        assert tri["typical"] == "FiniteN(2)"
        assert (tmp_path / "sample.svg").read_text().startswith("<svg")
        assert (tmp_path / "verdict.txt").exists()

    def test_config_file_params(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": "mobius", "params": {"alpha": 0.3333}}))
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        sysjson = json.loads((tmp_path / "system.json").read_text())
        assert sysjson["params"]["alpha"] == 0.3333

    def test_sample_csv_roundtrip(self, tmp_path):
        out = str(tmp_path)
        main(["build", "mobius", "--out", out])
        main(["minimal-set", "--out", out, "--steps", "20000"])
        text = (tmp_path / "sample.csv").read_text()
        # re-encoding reproduces the original rows byte for byte
        from bundlemin.cli import sample_to_csv
        from bundlemin.analysis import SampledSet
        from bundlemin.constructions import build_mobius

        res = build_mobius(GOLDEN)
        s = res.system
        bases, edge_idx, ts, written = csv_to_points(io.StringIO(text), s.base, s.bundle.fibre)
        assert len(bases) > 10
        sample = SampledSet(0.02, bases, edge_idx, ts, {}, s.base, s.bundle)
        assert written.tolist() == sample.base_embed.tolist()
        buf = io.StringIO()
        sample_to_csv(sample, buf)
        assert buf.getvalue() == text

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["build", "torus-on-mobius", "--out", str(out)])
            main(["minimal-set", "--out", str(out), "--steps", "20000"])
            main(["classify", "--out", str(out)])
            main(["plot", "--out", str(out)])
        for name in (
            "system.json",
            "sample.csv",
            "provenance.json",
            "dichotomy.json",
            "trichotomy.json",
            "circles.json",
            "verdict.txt",
            "sample.svg",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_rerun_is_byte_identical_across_hash_seeds(self, tmp_path):
        # string hash order differs between processes; no output may follow it
        script = (
            "import sys\n"
            "from bundlemin.cli import main\n"
            "for cmd in (['build', 'mobius'], ['minimal-set', '--steps', '2000'], ['classify'], ['plot']):\n"
            "    assert main([*cmd, '--out', sys.argv[1]]) in (0, 3), cmd\n"
        )
        src = str(Path(bundlemin.__file__).parents[1])
        runs = []
        for seed in ("0", "1"):
            out = tmp_path / f"hashseed-{seed}"
            path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
            runs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert sorted(runs[0]) == [
            "circles.json", "dichotomy.json", "provenance.json", "sample.csv", "sample.svg",
            "summary.txt", "system.json", "trichotomy.json", "verdict.txt",
        ]
        assert runs[0] == runs[1]

    def test_word_tag_survives_pipeline(self, tmp_path):
        # symbolic-word bases rely on exact big-integer tags in the CSV
        w = coding_word(0.2, GOLDEN, 500)
        assert sturmian(GOLDEN, 500)[0].decode(w.tag()) == w
