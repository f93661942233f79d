"""Command line interface: exit codes, file outputs, determinism, CSV round trip."""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bundlemin
from bundlemin import cli
from bundlemin.base_systems import (
    CircleAngle,
    DoubledCode,
    SymbolicWord,
    TernaryCode,
    coding_word,
    default_blowup_center,
)
from bundlemin.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_OK,
    csv_to_points,
    decode_base_point,
    encode_base_point,
    main,
)
from bundlemin.errors import SchemaError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestBasePointTags:
    @pytest.mark.parametrize(
        "pt",
        [
            CircleAngle(0.123456789),
            CircleAngle(GOLDEN),
            DoubledCode(TernaryCode(1234567, 40), 1),
            DoubledCode(TernaryCode(98765, 40), -1),
            DoubledCode(TernaryCode(98765, 40), 0),
            SymbolicWord((1 << 300) - 7, 400),
        ],
    )
    def test_roundtrip_exact(self, pt):
        assert decode_base_point(encode_base_point(pt)) == pt

    def test_bad_tag_rejected(self):
        with pytest.raises(SchemaError):
            decode_base_point("martian:1:2")
        with pytest.raises(SchemaError):
            decode_base_point("dcode:zz")

    @pytest.mark.parametrize(
        "tag",
        ["word:ff:-3", "word:ff:0", "word:1ff:8", "dcode:ff:0:0", "dcode:-ff:40:0", "dcode:ff:40:2",
         "tern:ff:40", "per:1:2"],
    )
    def test_out_of_range_or_removed_kind_rejected(self, tag):
        with pytest.raises(SchemaError):
            decode_base_point(tag)


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
    }

    @staticmethod
    def assert_one_config_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

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


def _replace_row(path, row, field, value):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    if value is None:
        del cells[field]
    else:
        cells[field] = value
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _swap_rows(path, a, b):
    lines = path.read_text().splitlines(keepends=True)
    lines[a], lines[b] = lines[b], lines[a]
    path.write_text("".join(lines))


def _replace_provenance_system(out, system):
    prov = json.loads((out / "provenance.json").read_text())
    prov["system"] = system
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
        "sample-is-a-directory": lambda out: _replace_with_directory(out / "sample.csv"),
        "provenance-is-a-directory": lambda out: _replace_with_directory(out / "provenance.json"),
        "provenance-not-an-object": lambda out: (out / "provenance.json").write_text("[1, 2]"),
        "provenance-other-system": lambda out: _replace_provenance_system(out, "mobius(alpha=0.5)"),
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
        bases, edge_idx, ts, written = csv_to_points(text, s.base, s.bundle.fibre)
        assert len(bases) > 10
        sample = SampledSet(0.02, bases, edge_idx, ts, {}, s.base, s.bundle)
        assert written.tolist() == sample.base_embed.tolist()
        assert sample_to_csv(sample) == text

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
        tag = encode_base_point(w)
        assert decode_base_point(tag) == w
