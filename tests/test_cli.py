"""Command line interface: exit codes, file outputs, determinism, CSV round trip."""
from __future__ import annotations

import json
import math

import pytest

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
            TernaryCode(1234567, 40),
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


class TestExitCodes:
    def test_unknown_construction(self, tmp_path, capsys):
        assert main(["build", "nosuch", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_step_cap(self, tmp_path, monkeypatch):
        assert main(["build", "mobius", "--out", str(tmp_path)]) == EXIT_OK
        monkeypatch.setenv("BUNDLEMIN_CAP", "100")
        rc = main(["minimal-set", "--out", str(tmp_path), "--steps", "20000"])
        assert rc == EXIT_CAP

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
        pts = csv_to_points(text)
        assert len(pts) > 10
        # re-encoding reproduces the original rows byte for byte
        from bundlemin.cli import sample_to_csv
        from bundlemin.analysis import SampledSet
        from bundlemin.constructions import build_mobius

        res = build_mobius(GOLDEN)
        s = res.system
        sample = SampledSet(0.02, pts, {}, s.base, s.bundle)
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

    def test_word_tag_survives_pipeline(self, tmp_path):
        # symbolic-word bases rely on exact big-integer tags in the CSV
        w = coding_word(0.2, GOLDEN, 500)
        tag = encode_base_point(w)
        assert decode_base_point(tag) == w
