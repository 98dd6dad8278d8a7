import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

import divcalc
from divcalc import cli, criteria
from divcalc.enumeration import FIXTURES, CaseFixture
from divcalc.surfaces import (
    get_config,
    get_surface,
    list_configs,
    list_surfaces,
)


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, argv):
    rc, out = run(capsys, argv)
    return rc, json.loads(out)


@pytest.fixture(scope="module")
def schema():
    path = (resources.files("divcalc") / "data" / "schemas"
            / "runreport.schema.json")
    return json.loads(path.read_text())


GOOD_JSON_COMMANDS = [
    ["pair", "--surface", "sigma2", "--curve", "H", "--curve", "G1"],
    ["self", "--surface", "sigma1", "--curve", "-2K"],
    ["genus", "--surface", "blq", "--curve", "-2K"],
    ["chi", "--surface", "sigma3", "--curve", "-2K"],
    ["phi", "--config", "pencil-pair-1", "--curve", "E+2E1"],
    ["reflect", "--surface", "enriques", "--curve", "U1+U2",
     "--nodal", "U1-U2"],
    ["enumerate", "--surface", "blq", "--curve", "-2K", "--k", "4"],
    ["destab"],
    ["gonality", "--l2", "30", "--phi", "5"],
    ["cliff", "--d", "8", "--h0", "3"],
    ["gaussian", "--rule", "main", "--l2", "12", "--phi", "2",
     "--deg-m", "8", "--h1-m", "0", "--h0-residual", "1"],
    ["corank", "--g", "3", "--h1-m", "0", "--cork-mu", "0",
     "--aux", "4K-M=8"],
    ["scroll", "--g", "7", "--b1", "2"],
    ["b2rule", "--l2", "12", "--phi", "2"],
    ["verify", "--case", "g1kondelp-b"],
    ["surface", "--surface", "sigma3"],
]


@pytest.mark.parametrize(
    "argv", GOOD_JSON_COMMANDS, ids=lambda a: a[0])
def test_every_subcommand_emits_a_valid_report(capsys, schema, argv):
    rc, doc = run_json(capsys, argv + ["--json"])
    assert rc == 0
    validate(doc, schema)
    assert doc["command"][1] == argv[0]


class TestArithmeticCommands:
    def test_pair_value(self, capsys):
        rc, doc = run_json(
            capsys,
            ["pair", "--surface", "sigma2", "--curve", "H", "--curve",
             "G1", "--json"],
        )
        assert rc == 0 and doc["result"]["value"] == 0

    def test_self_fuses_leading_dash(self, capsys):
        rc, out = run(
            capsys, ["self", "--surface", "sigma1", "--curve", "-2K"])
        assert rc == 0
        assert "32" in out

    def test_pair_needs_exactly_two(self, capsys):
        rc, _ = run(capsys, ["pair", "--surface", "sigma2", "--curve", "H"])
        assert rc == 1

    def test_genus_text_output(self, capsys):
        rc, out = run(capsys, ["genus", "--surface", "blq", "--curve", "-2K"])
        assert rc == 0 and "9" in out

    def test_phi_has_no_box_option(self, capsys):
        # phi prints the certified value only: an uncertified bound would
        # read like phi itself in gonality --phi
        for argv in (["--box", "2"], ["--box=2"], ["--json", "--box", "2"]):
            rc = cli.main(["phi", "--surface", "enriques", "--curve",
                           "U1+2U2", *argv])
            cap = capsys.readouterr()
            assert rc == 1 and cap.out == ""
            assert cap.err.startswith("usage: divcalc phi ")
            assert cap.err.endswith(
                "divcalc phi: error: unrecognized arguments: --box"
                f"{' ' if '--box' in argv else '='}2\n")
        rc, out = run(capsys, ["phi", "--surface", "enriques", "--curve",
                               "U1+2U2"])
        assert rc == 0 and out.splitlines()[0] == "phi(U1+2U2) = 1"

    def test_enumerate_text_output(self, capsys):
        rc, out = run(
            capsys,
            ["enumerate", "--surface", "blq", "--curve", "-2K", "--k", "4"],
        )
        assert rc == 0
        assert "2 candidates visited" in out
        assert out.splitlines()[-1] == "rejected: none"

    @pytest.mark.parametrize("argv, out", [
        (["enumerate", "--surface", "sigma1", "--curve", "2H", "--k", "3"],
         "curve 2H, k = 3, parity filter off, 0 candidates visited\n"
         "  no survivors\nrejected: none\n"),
        (["cliff", "--g", "7"], "Cliff(C) <= 3\n"),
        (["surface"],
         "surfaces: " + ", ".join(list_surfaces()) + "\n"
         "configs:  " + ", ".join(list_configs()) + "\n"),
    ], ids=["enumerate-no-survivors", "cliff-upper-bound", "surface-list"])
    def test_text_output(self, capsys, argv, out):
        assert run(capsys, argv) == (0, out)

    def test_cliff_upper_bound_json(self, capsys):
        rc, doc = run_json(capsys, ["cliff", "--g", "7", "--json"])
        assert rc == 0
        assert doc["result"] == {"mode": "upper_bound", "g": 7, "value": 3}

    def test_reflect_swaps_the_hyperbolic_pair(self, capsys):
        rc, doc = run_json(
            capsys,
            ["reflect", "--surface", "enriques", "--curve", "U1",
             "--nodal", "U1-U2", "--json"],
        )
        assert rc == 0
        assert doc["result"]["image"] == "U2"


class TestSurfaceLoading:
    def test_surface_listing(self, capsys):
        rc, doc = run_json(capsys, ["surface", "--json"])
        assert rc == 0
        assert "enriques" in doc["result"]["surfaces"]
        assert "pencil-pair-1" in doc["result"]["configs"]

    def test_unknown_surface(self, capsys):
        rc, _ = run(capsys, ["self", "--surface", "sigma99", "--curve", "H"])
        assert rc == 1

    @pytest.mark.parametrize("name, err", [
        ("blc\u0663", "unknown surface 'blc\u0663'"),
        ("blc" + "9" * 30, "30 digits exceeds the 64-bit envelope"),
        ("blc" + "9" * 5000, "5000 digits exceeds the 64-bit envelope"),
    ], ids=["non-ascii", "30-digits", "5000-digits"])
    def test_blc_index_is_ascii_inside_the_envelope(self, capsys, name, err):
        rc = cli.main(["surface", "--surface", name])
        cap = capsys.readouterr()
        assert rc == 1
        assert cap.err.startswith("divcalc: error: ") and err in cap.err

    @pytest.mark.parametrize("argv, err", [
        (["surface", "--surface="], "unknown surface ''"),
        (["surface", "--config="], "unknown config ''"),
        (["phi", "--surface", "sigma3", "--config=", "--curve", "H"],
         "pass either --surface or --config, not both"),
        (["self", "--surface=", "--curve", "H"], "unknown surface ''"),
        (["reflect", "--surface", "enriques", "--curve", "U1", "--nodal="],
         "empty divisor expression"),
        (["verify", "--case="], "unknown case ''"),
    ], ids=["surface", "config", "phi-both", "self", "reflect", "verify"])
    def test_an_empty_value_is_given(self, capsys, argv, err):
        # an empty name is refused like any unknown one, not read as absent
        rc = cli.main(argv)
        cap = capsys.readouterr()
        assert rc == 1 and cap.out == ""
        assert cap.err.startswith(f"divcalc: error: {err}")

    def test_surface_and_config_conflict(self, capsys):
        rc, _ = run(
            capsys,
            ["self", "--surface", "blq", "--config", "pencil-pair-1",
             "--curve", "E"],
        )
        assert rc == 1

    def test_config_from_file(self, capsys, tmp_path):
        doc = {
            "labels": ["E", "F"],
            "pairs": [[0, 1, 2]],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        rc, rep = run_json(
            capsys,
            ["self", "--config", str(p), "--curve", "E+F", "--json"],
        )
        assert rc == 0 and rep["result"]["square"] == 4
        assert rep["surface"] == "cfg"

    # A file that does not decode or parse is named in the message, a
    # config file as well as a model file: both go through one reader.
    @pytest.mark.parametrize("argv, content, err", [
        (["phi", "--config", "{path}", "--curve", "E+F"],
         {"labels": ["E", "F"], "pairs": [[0, 1]]}, "bad "),
        (["phi", "--config", "{path}", "--curve", "E+F"],
         {"labels": ["E", "F"], "pairs": [[0, 1, "x"]]}, "bad "),
        (["phi", "--config", "{path}", "--curve", "E"],
         {"labels": [1, None], "pairs": [[0, 1, 1]]}, "bad "),
        (["phi", "--config", "{path}", "--curve", "E"], b"\xff{}",
         "{path}: not valid JSON ("),
        (["surface", "--surface", "{path}"], b"\xff{}",
         "{path}: not valid JSON ("),
        (["phi", "--config", "{path}", "--curve", "E"], b"{labels",
         "{path}: not valid JSON ("),
        (["phi", "--config", "{path}", "--curve", "E"],
         {"labels": "EF", "pairs": [[0, 1, 1]]}, "bad "),
        (["surface", "--surface", "{path}"],
         {"name": "toy", "basis": "AB", "gram": [[0, 1], [1, 0]],
          "canonical": [0, 0], "chi": 1}, "bad "),
        (["surface", "--surface", "{path}"],
         {"name": "toy", "basis": ["A", "B"], "gram": [[0, 1], [1, 0]],
          "canonical": [0, 0], "chi": 1, "effective": "A"}, "bad "),
        (["surface", "--surface", "{path}"],
         {"name": 5, "basis": ["A", "B"], "gram": [[0, 1], [1, 0]],
          "canonical": [0, 0], "chi": 1}, "bad "),
        (["phi", "--surface", "{path}", "--curve", "H"], [1, 2],
         "bad lattice definition: a lattice document is a JSON object, "
         "got list\n"),
        (["phi", "--config", "{path}", "--curve", "E"], [1, 2],
         "bad config definition: a config document is a JSON object, "
         "got list\n"),
    ], ids=["short-pair", "non-integer-pair", "non-string-labels",
            "undecodable-config", "undecodable-model", "non-json-config",
            "string-labels", "string-basis", "string-effective",
            "non-string-name", "list-model", "list-config"])
    def test_malformed_file_is_a_usage_error(
            self, capsys, tmp_path, argv, content, err):
        p = tmp_path / "bad.json"
        if isinstance(content, bytes):
            p.write_bytes(content)
        else:
            p.write_text(json.dumps(content))
        rc = cli.main([a.format(path=p) for a in argv])
        cap = capsys.readouterr()
        assert rc == 1
        assert cap.err.startswith("divcalc: error: " + err.format(path=p))
        assert cap.out == ""

    @pytest.mark.parametrize("name", list_surfaces() + list_configs())
    def test_builtin_json_round_trips_through_a_file(self, capsys, tmp_path,
                                                     name):
        # the document `surface --json` writes holds no ample_ref and,
        # saved to a file, loads back to the same model
        is_config = name in list_configs()
        model = (get_config if is_config else get_surface)(name)
        doc = model.to_json_dict()
        assert "ample_ref" not in doc
        flag = "--config" if is_config else "--surface"
        rc, rep = run_json(capsys, ["surface", flag, name, "--json"])
        assert rc == 0 and rep["result"] == doc
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        assert get_surface(str(p)) == model
        rc, rep = run_json(capsys, ["surface", "--surface", str(p), "--json"])
        assert rc == 0 and rep["result"] == doc

    def test_surface_path_env(self, capsys, tmp_path, monkeypatch):
        doc = {
            "name": "toy",
            "basis": ["A", "B"],
            "gram": [[0, 1], [1, 0]],
            "canonical": [0, 0],
            "chi": 1,
        }
        (tmp_path / "toy.json").write_text(json.dumps(doc))
        monkeypatch.setenv("DIVCALC_SURFACE_PATH", str(tmp_path))
        rc, rep = run_json(
            capsys, ["self", "--surface", "toy", "--curve", "A+B", "--json"])
        assert rc == 0 and rep["result"]["square"] == 2
        assert rep["surface"] == "toy"


class TestExitCodes:
    def test_usage_error(self, capsys):
        rc = cli.main(["gonality", "--l2", "12"])
        capsys.readouterr()
        assert rc == 1

    def test_validation_error(self, capsys):
        rc = cli.main(["gonality", "--l2", "4", "--phi", "3"])
        cap = capsys.readouterr()
        assert rc == 1
        assert "phi" in cap.err

    @pytest.mark.parametrize("argv, err", [
        (["gonality", "--l2", "7", "--phi", "2"],
         "--l2 must be even on these lattices, got 7"),
        (["b2rule", "--l2", "4", "--phi", "3"],
         "--phi must satisfy phi^2 <= L2 = 4, got 3"),
    ], ids=["gonality-odd-l2", "b2rule-phi-square"])
    def test_class_refusals(self, capsys, argv, err):
        rc = cli.main(argv)
        cap = capsys.readouterr()
        assert rc == 1 and cap.out == ""
        assert cap.err == f"divcalc: error: {err}\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_a_closed_stdout_exits_1_without_a_traceback(self, flags):
        # the reader takes the text report's first line, or the first two
        # bytes of the one-line JSON report, and goes, as `| head -1` or
        # `| head -c 2` does; neither report (0.7 MB of text, 3.5 MB of
        # JSON) fits in the pipe
        src = os.path.dirname(os.path.dirname(divcalc.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "divcalc.cli", "enumerate", "--surface",
                "enriques", "--curve", "U1+U2", "--k", "2", *flags]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        first = proc.stdout.read(2) if flags else proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first == (b'{"' if flags else
                         b"curve U1+U2, k = 2, parity filter off, 11282 "
                         b"candidates visited\n")
        assert err == b""

    @pytest.mark.parametrize("expr", ["\u0663H", "\uff13H-G1", "H+\u0662G1"])
    def test_coefficients_are_ascii_digits(self, capsys, expr):
        rc = cli.main(["self", "--surface", "sigma3", "--curve", expr])
        cap = capsys.readouterr()
        assert rc == 1 and cap.out == ""
        assert cap.err.startswith(
            "divcalc: error: cannot parse divisor expression at position ")

    def test_strict_no_conclusion(self, capsys):
        argv = ["gaussian", "--rule", "main", "--l2", "10", "--phi", "2",
                "--deg-m", "8", "--h0-residual", "1"]
        rc, _ = run(capsys, argv)
        assert rc == 0
        rc, _ = run(capsys, argv + ["--strict"])
        assert rc == 2

    def test_strict_b2rule_unknown(self, capsys):
        rc, _ = run(capsys, ["b2rule", "--l2", "10", "--phi", "2",
                             "--strict"])
        assert rc == 2

    def test_strict_leaves_success_alone(self, capsys):
        rc, _ = run(capsys, ["b2rule", "--l2", "12", "--phi", "2",
                             "--strict"])
        assert rc == 0

    def test_oversize_coefficient(self, capsys):
        rc = cli.main(["self", "--surface", "sigma3",
                       "--curve", "5" * 5000 + "H"])
        cap = capsys.readouterr()
        assert rc == 1
        assert cap.err.startswith("divcalc: error: ")
        assert "64-bit envelope" in cap.err

    @pytest.mark.parametrize("argv, err", [
        (["chi", "--surface", "sigma3", "--curve", "--"],
         "divcalc: error: cannot parse divisor expression"),
        (["pair", "--surface", "sigma3", "--curve", "H", "--curve=--"],
         "divcalc: error: cannot parse divisor expression"),
        (["corank", "--g", "3", "--aux=--"],
         "divcalc: error: --aux expects KEY=INT, got '--'"),
        (["corank", "--g", "3", "--aux", "--"],
         "divcalc: error: --aux expects KEY=INT, got '--'"),
        (["gonality", "--l2=--", "--phi", "5"],
         "argument --l2: invalid int value: '--'"),
        (["enumerate", "--surface", "blq", "--curve", "-2K", "--k=--"],
         "argument --k: invalid int value: '--'"),
        (["verify", "--case=--"], "divcalc: error: unknown case '--'"),
    ], ids=["curve", "curve-eq", "aux", "aux-sep", "int", "k", "case"])
    def test_double_dash_value_is_a_string(self, capsys, argv, err):
        """--opt=-- gives the option the string "--", as do --curve -- and
        --aux --, which main() joins into --curve=-- and --aux=--;
        argparse alone stores an empty list there, which no handler
        expects."""
        rc = cli.main(argv)
        cap = capsys.readouterr()
        assert rc == 1
        assert err in cap.err

    def test_unknown_subcommand(self, capsys):
        rc = cli.main(["frobnicate"])
        capsys.readouterr()
        assert rc == 1

    def test_oversize_aux_value(self, capsys):
        rc = cli.main(["corank", "--g", "3", "--h1-m", "0", "--cork-mu", "0",
                       "--aux", "4K-M=" + "9" * 5000])
        cap = capsys.readouterr()
        assert rc == 1
        assert cap.err == ("divcalc: error: --aux value of 5000 digits is "
                           "too long\n")

    def test_aux_key_may_start_with_a_minus(self, capsys):
        # -M is a key that low-(a) to low-(c) read for their equality note
        argv = ["corank", "--g", "4", "--h1-m", "0", "--cork-mu", "0",
                "--h0-2k-minus-m", "0", "--aux", "3K-M=0"]
        for aux in (["--aux", "-M=0"], ["--aux=-M=0"]):
            rc, out = run(capsys, argv + aux)
            assert rc == 0
            assert out.endswith("note: equality holds: h0(-M) = 0\n")

    def test_bad_aux_syntax(self, capsys):
        # The value must be ASCII -?[0-9]+: a doubled sign, a superscript,
        # a bare sign and a non-ASCII decimal digit are all refused.
        for aux in ("4K-M", "4K-M=--5", "4K-M=\u00b2", "4K-M=-",
                    "4K-M=\u0663"):
            rc = cli.main(["corank", "--g", "3", "--aux", aux])
            cap = capsys.readouterr()
            assert rc == 1, aux
            assert "KEY=INT" in cap.err, aux

    @pytest.mark.parametrize("argv, err", [
        (["gonality", "--l2", 12, "--phi", "2"],
         "argument 3 is of type int, not str"),
        ([b"gonality"], "argument 1 is of type bytes, not str"),
        (["--version", None], "argument 2 is of type NoneType, not str"),
        (["corank", "--g", "3", "--h1-m", "0", "--cork-mu", "0",
          "--h0-2k-minus-m", "0", "--aux", "4K-M=5", "--aux", "4K-M=0"],
         "--aux key '4K-M' given twice"),
        (["cliff", "--d", "4", "--h0", "2", "--g", "7"],
         "pass either --d and --h0, or --g, not both"),
        (["cliff", "--h0", "2", "--g", "7", "--json"],
         "pass either --d and --h0, or --g, not both"),
        (["corank", "--g", "3"],
         "missing required evidence: --h1-m, --cork-mu, --aux 4K-M=INT"),
        (["phi", "--curve", "U1"],
         "this subcommand needs --surface or --config"),
        (["reflect", "--surface", "enriques", "--curve", "U1"],
         "reflect needs --nodal <divexpr>"),
        (["enumerate", "--surface", "sigma3", "--curve", "H"],
         "enumerate needs --k <int>"),
        (["cliff"], "cliff needs --d and --h0, or --g"),
        (["gonality"], "missing required evidence: --l2, --phi"),
        (["b2rule"], "missing required evidence: --l2, --phi"),
        (["scroll"], "missing required evidence: --g, --b1"),
        (["cliff", "--d", "3"], "missing required evidence: --h0"),
        (["cliff", "--h0", "2"], "missing required evidence: --d"),
        (["corank"], "missing required evidence: --g"),
        (["corank", "--g", "4"], "missing required evidence: --h1-m, "
         "--h0-2k-minus-m, --cork-mu, --aux 3K-M=INT"),
        (["corank", "--g", "5"],
         "genus 5 needs the trigonal or nontrigonal flag"),
        (["corank", "--g", "5", "--nontrigonal"],
         "missing required evidence: --h1-m, --h0-2k-minus-m, --cork-mu"),
        (["corank", "--g", "6", "--trigonal"],
         "missing required evidence: --aux 3K-(g-4)A-M=INT"),
        (["corank", "--g", "6", "--plane-quintic"],
         "missing required evidence: --aux 5A-M=INT"),
        (["corank", "--aux", "4K-M"],
         "--aux expects KEY=INT, got '4K-M' (e.g. --aux 4K-M=5)"),
        (["corank", "--aux", "--json"],
         "--aux expects KEY=INT, got '--json' (e.g. --aux 4K-M=5)"),
        (["gaussian"], "missing required evidence: --l2, --h0-residual"),
        (["gaussian", "--rule", "main", "--h0-residual", "0"],
         "missing required evidence: --l2"),
        (["gaussian", "--rule", "cliff"],
         "missing required evidence: --cliff, --h0-2k-minus-m"),
        (["gaussian", "--rule", "bel"], "missing required evidence: --g, "
         "--deg-m, --h1-m, --h0-2k-minus-m, --cliff"),
        (["gaussian", "--rule", "degree"],
         "missing required evidence: --g, --deg-m"),
        (["gaussian", "--rule", "tetragonal"], "missing required evidence: "
         "--h0-2k-minus-m, --h0-2k-minus-m-b2a"),
        (["cliff", "--d", "-1", "--h0", "2"], "--d must be >= 0, got -1"),
        (["corank", "--g", "3", "--h1-m", "-1", "--cork-mu", "0",
          "--aux", "4K-M=1"], "--h1-m must be >= 0, got -1"),
        (["corank", "--g", "3", "--h1-m", "0", "--cork-mu", "0",
          "--aux", "4K-M=-1"], "--aux 4K-M=INT must be >= 0, got -1"),
        (["gaussian", "--rule", "cliff", "--cliff", "-1",
          "--h0-2k-minus-m", "0"], "--cliff must be >= 0, got -1"),
        # each of these four exited 0, or named the library's input
        (["gaussian", "--rule", "tetragonal", "--h0-2k-minus-m", "1",
          "--h0-2k-minus-m-b2a", "0", "--h1-m", "-5"],
         "--h1-m must be >= 0, got -5"),
        (["enumerate", "--surface", "sigma3", "--curve", "H", "--k", "1"],
         "--k must be >= 2, got 1"),
        (["scroll", "--g", "7", "--b1", "-1"], "--b1 must be >= 0, got -1"),
        (["scroll", "--g", "7", "--b1", "0"],
         "--b1 must satisfy b1 >= b2 >= 0; got b1 = 0, b2 = 2 at g = 7"),
        (["scroll", "--g", "5", "--b1", "0"], "--g must be >= 6, got 5"),
        (["cliff", "--g", "3"], "--g must be >= 4, got 3"),
        # these four named the library's input
        (["gaussian", "--rule", "bel", "--g", "7", "--deg-m", "1000",
          "--h1-m", "0", "--h0-2k-minus-m", "0", "--cliff", "3"],
         "--deg-m = 1000 is implausibly large for genus 7 (cap 40)"),
        (["gaussian", "--rule", "main", "--l2", "2", "--phi", "2",
          "--h0-residual", "1"],
         "--phi must satisfy phi^2 <= L2 = 2, got 2"),
        (["gaussian", "--rule", "main", "--l2", "12", "--g", "3",
          "--h0-residual", "1"], "--g = 3 does not match L2 = 12: on an "
         "Enriques surface 2g - 2 = L2 gives g = 7"),
        (["corank", "--g", "3", "--aux", "foo=1"],
         "--aux has unknown keys ['foo']; known: ['-M', '3K-(g-4)A-M', "
         "'3K-M', '4A-M', '4K-M', '5A-M']"),
        # the first two exited 0 with low-(b) and low-(a); the third
        # said no curve-type flag was given
        (["corank", "--g", "4", "--h1-m", "0", "--cork-mu", "0",
          "--h0-2k-minus-m", "1", "--aux", "3K-M=2", "--nontrigonal"],
         "--nontrigonal needs g >= 5, got 4: every nonhyperelliptic curve "
         "of genus 3 or 4 is trigonal"),
        (["corank", "--g", "3", "--h1-m", "0", "--cork-mu", "0",
          "--aux", "4K-M=2", "--nontrigonal"],
         "--nontrigonal needs g >= 5, got 3: every nonhyperelliptic curve "
         "of genus 3 or 4 is trigonal"),
        (["corank", "--g", "7", "--h1-m", "0", "--cork-mu", "0",
          "--nontrigonal"],
         "--g = 7: no low-genus branch applies; from genus 6 on, only the "
         "trigonal and plane quintic branches do"),
        # said no low-genus branch applies, as from genus 6 on
        (["corank", "--g", "2", "--h1-m", "0", "--cork-mu", "0"],
         "--g = 2: every curve of genus 2 is hyperelliptic, and the "
         "low-genus rules are stated for nonhyperelliptic curves"),
        # these four named no input, so the library's wording was printed
        (["corank", "--g", "4", "--trigonal", "--h1-m", "0", "--cork-mu",
          "0"], "--g must be >= 5 for the trigonal branch, got 4"),
        (["gaussian", "--rule", "degree", "--g", "7", "--deg-m", "30",
          "--plane-quintic"], "--g = 7: a smooth plane quintic has genus 6"),
        (["gaussian", "--rule", "degree", "--g", "6", "--deg-m", "30",
          "--plane-quintic", "--trigonal"],
         "--trigonal conflicts with the plane quintic flag"),
        (["corank", "--g", "6", "--h1-m", "0", "--cork-mu", "0"],
         "--g = 6: no low-genus branch applies; from genus 6 on, only the "
         "trigonal and plane quintic branches do"),
    ], ids=["int-item", "bytes-item", "none-item", "aux-key-twice",
            "cliff-mixed", "cliff-h0-and-g", "corank-missing", "no-model",
            "reflect-no-nodal", "enumerate-no-k", "cliff-bare",
            "gonality-bare", "b2rule-bare", "scroll-bare", "cliff-no-h0",
            "cliff-no-d", "corank-bare", "corank-g4", "corank-g5",
            "corank-g5-nontrigonal", "corank-g6-trigonal",
            "corank-g6-quintic", "corank-bad-aux-before-g",
            "corank-aux-json", "gaussian-main", "gaussian-main-no-l2",
            "gaussian-cliff", "gaussian-bel", "gaussian-degree",
            "gaussian-tetragonal", "cliff-negative-d", "corank-negative-h1m",
            "corank-negative-aux", "gaussian-negative-cliff",
            "tetragonal-negative-h1m", "enumerate-low-k",
            "scroll-negative-b1", "scroll-low-b1", "scroll-low-g",
            "cliff-bound-low-g", "bel-degm-cap", "main-phi-square",
            "main-genus", "corank-unknown-aux", "corank-g4-nontrigonal",
            "corank-g3-nontrigonal", "corank-g7-nontrigonal", "corank-g2",
            "corank-g4-trigonal", "degree-g7-quintic",
            "degree-trigonal-quintic", "corank-g6-no-flag"])
    def test_input_refusals(self, capsys, argv, err):
        """A non-str argv item, a repeated --aux key (the last value would
        win and change the verdict), cliff's two modes at once (--g
        would be ignored), and an option a subcommand cannot do without
        exit 1 with one error line and no output. Every input a rule
        requires and lacks is named at once, by its option, and so is an
        input out of range; a malformed --aux is refused before a missing
        --g."""
        rc = cli.main(argv)
        cap = capsys.readouterr()
        assert rc == 1 and cap.out == ""
        assert cap.err == f"divcalc: error: {err}\n"


class TestCommandContract:
    """Each subcommand declares only the options it reads, and refuses
    any other argv with its own usage line."""

    @pytest.mark.parametrize("argv", [
        ["pair", "--strict", "--surface", "sigma2", "--curve", "H",
         "--curve", "G1"],
        ["gonality", "--l2", "30", "--phi", "5", "--strict"],
        ["verify", "--all", "--strict", "--json"],
    ], ids=lambda a: a[0])
    def test_strict_is_refused_with_the_subcommands_usage(self, capsys, argv):
        # phi --box, test_phi_has_no_box_option, is refused the same way
        rc = cli.main(argv)
        cap = capsys.readouterr()
        assert rc == 1 and cap.out == ""
        assert cap.err.startswith(f"usage: divcalc {argv[0]} [-h]")
        assert cap.err.endswith(f"divcalc {argv[0]}: error: unrecognized "
                                "arguments: --strict\n")

    def test_strict_belongs_to_the_verdict_commands(self):
        parser = cli.build_parser()
        assert {name for name, sub in parser._commands.items()
                if "--strict" in sub._option_string_actions} == {
                    "gaussian", "corank", "b2rule"}

    def test_every_declared_option_is_read(self, capsys, monkeypatch):
        """main reads, on some sample command, every option that its
        subcommand declares: a namespace records each attribute read."""
        parse = cli._parse_args
        read = set()

        def recording(argv):
            name = argv[0]

            class Recording(argparse.Namespace):
                def __getattribute__(self, attr):
                    read.add((name, attr))
                    return super().__getattribute__(attr)

            return Recording(**vars(parse(argv)))

        monkeypatch.setattr(cli, "_parse_args", recording)
        for argv in GOOD_JSON_COMMANDS:
            for json_flag in ([], ["--json"]):
                assert cli.main(argv + json_flag) == 0
        capsys.readouterr()
        declared = {(name, a.dest)
                    for name, sub in cli.build_parser()._commands.items()
                    for a in sub._actions
                    if not isinstance(a, argparse._HelpAction)}
        assert len(declared) == 79
        assert declared - read == set()


def _row_inputs(rows):
    """The names of the inputs that the _READS rows read, aux_h0 among
    them when a row reads aux_h0 keys."""
    names = {n for r in rows for n, _ in criteria._READS[r][0]}
    return names | ({"aux_h0"} if any(criteria._READS[r][1] for r in rows)
                    else set())


_LOW = tuple(f"low-({c})" for c in "abcde")
# per rule command, and per --rule of gaussian: an argv that reaches its
# call, the rows of criteria._READS that declare its options, the rows
# its call reads, and the function it calls, as cli names it (for
# gaussian, its key in cli._GAUSSIAN_RULES)
_RULE_COMMANDS = {
    **{f"gaussian-{r}": (["gaussian", "--rule", r],
                         ("main", "cliff", "bel", "degree", "tetragonal"),
                         (r,), r)
       for r in ("main", "cliff", "bel", "degree", "tetragonal")},
    "corank": (["corank"], ("curve-type", *_LOW), ("curve-type", *_LOW),
               "corank_low_genus"),
    "b2rule": (["b2rule"], ("class",), ("class",), "b2_rule_enriques"),
    "scroll": (["scroll"], ("scroll",), ("scroll",), "scroll_invariants"),
    "cliff-series": (["cliff", "--d", "8", "--h0", "3"],
                     ("series", "cliff-bound"), ("series",),
                     "clifford_of_series"),
    "cliff-bound": (["cliff", "--g", "7"], ("series", "cliff-bound"),
                    ("cliff-bound",), "cliff_upper_bound"),
}


class TestRuleCommands:
    """Each rule command declares the options of the inputs its rows of
    criteria._READS read, and calls its function with those inputs."""

    @pytest.mark.parametrize("argv, declared, rows, name",
                             _RULE_COMMANDS.values(), ids=list(_RULE_COMMANDS))
    def test_options_and_call_are_those_its_rows_read(
            self, monkeypatch, argv, declared, rows, name):
        sub = cli.build_parser()._commands[argv[0]]
        # json, strict on a verdict command and gaussian's rule, then
        # the rows' inputs in _OPTIONS order: the usage order
        head = ["help", "json"]
        if argv[0] in ("gaussian", "corank", "b2rule"):
            head.append("strict")
        if argv[0] == "gaussian":
            head.append("rule")
        dests = [a.dest for a in sub._actions]
        assert dests == head + list(cli._reading(*declared))
        # so the refusal covers every option the command declares, and
        # every input the rows name has an option
        assert set(dests[len(head):]) == {
            cli._INPUT_DESTS[n] for n in _row_inputs(declared)}
        assert cli._reading(*rows) == tuple(
            d for d in dests if d in {cli._INPUT_DESTS[n]
                                      for n in _row_inputs(rows)})
        if argv[0] == "gaussian":
            choices = sub._option_string_actions["--rule"].choices
            assert set(choices) == set(cli._GAUSSIAN_RULES) == set(
                declared) <= set(criteria._READS)
            real = cli._GAUSSIAN_RULES[name]
        else:
            real = getattr(cli, name)
        # the function is criteria's, and takes its rows' inputs by name
        assert getattr(criteria, real.__name__) is real

        class Called(Exception):
            pass

        calls = []

        def fake(*args, **kwargs):
            calls.append((args, kwargs))
            raise Called

        if argv[0] == "gaussian":
            monkeypatch.setitem(cli._GAUSSIAN_RULES, name, fake)
        else:
            monkeypatch.setattr(cli, name, fake)
        args = cli._parse_args(argv)
        with pytest.raises(Called):
            args.handler(args)
        [(positional, keywords)] = calls
        assert positional == () and set(keywords) == _row_inputs(rows)
        inspect.signature(real).bind(**keywords)

    def test_corank_declares_its_rows_in_usage_order(self):
        # the inputs of the low-genus rows, then the aux_h0 keys and the
        # curve-type flags that pick a row
        dests = [a.dest for a in
                 cli.build_parser()._commands["corank"]._actions]
        assert dests == ["help", "json", "strict", "g", "h1_m", "cork_mu",
                         "h0_2k_minus_m", "aux", "plane_quintic", "trigonal",
                         "nontrigonal"]
        assert [r for r in criteria._READS if r.startswith("low-")] == list(
            _LOW)

    def test_gonality_is_the_one_exception(self):
        # its flag --two-d-special is the negation of its row's input
        # not_2D_special, which no option gives by name
        dests = [a.dest for a in
                 cli.build_parser()._commands["gonality"]._actions]
        assert dests == ["help", "json", "l2", "phi", "two_d_special"]
        assert [n for n, _ in criteria._READS["gonality"][0]] == [
            "L2", "phi", "not_2D_special"]
        assert "not_2D_special" not in cli._INPUT_DESTS
        # every other function cli calls from criteria is covered above
        called = {v for v in vars(cli).values() if inspect.isfunction(v)
                  and v.__module__ == criteria.__name__}
        covered = {getattr(cli, name) for argv, _, _, name in
                   _RULE_COMMANDS.values() if argv[0] != "gaussian"}
        assert called == covered | set(cli._GAUSSIAN_RULES.values()) | {
            criteria.gonality}


class TestGaussianCommand:
    def test_main_derives_genus_from_l2(self, capsys):
        rc, doc = run_json(
            capsys,
            ["gaussian", "--rule", "main", "--l2", "12", "--phi", "2",
             "--deg-m", "8", "--h1-m", "0", "--h0-residual", "1", "--json"],
        )
        assert rc == 0
        assert doc["result"]["rule"] == "main-(iv)"
        assert doc["result"]["inputs_echo"]["g"] == 7

    def test_main_refuses_a_genus_that_l2_does_not_give(self, capsys):
        rc = cli.main(["gaussian", "--rule", "main", "--l2", "12", "--g", "3",
                       "--h0-residual", "1"])
        cap = capsys.readouterr()
        assert rc == 1 and cap.out == ""
        assert cap.err == ("divcalc: error: --g = 3 does not match L2 = 12: "
                           "on an Enriques surface 2g - 2 = L2 gives g = 7\n")
        rc, doc = run_json(capsys, ["gaussian", "--rule", "main", "--l2", "12",
                                    "--g", "7", "--h0-residual", "1",
                                    "--json"])
        assert rc == 0 and doc["result"]["rule"] == "main-(iv)"

    def test_tetragonal_rule(self, capsys):
        rc, doc = run_json(
            capsys,
            ["gaussian", "--rule", "tetragonal", "--h0-2k-minus-m", "1",
             "--h0-2k-minus-m-b2a", "0", "--json"],
        )
        assert rc == 0 and doc["result"]["status"] == "SURJECTIVE"

    def test_bel_rule(self, capsys):
        rc, doc = run_json(
            capsys,
            ["gaussian", "--rule", "bel", "--g", "7", "--deg-m", "9",
             "--h1-m", "0", "--h0-2k-minus-m", "0", "--cliff", "3",
             "--json"],
        )
        assert rc == 0 and doc["result"]["rule"] == "bel2"
        assert doc["result"]["inputs_echo"] == {
            "g": 7, "degM": 9, "h1M": 0, "h0_2K_minus_M": 0, "cliff": 3}

    def test_degree_rule(self, capsys):
        rc, doc = run_json(
            capsys,
            ["gaussian", "--rule", "degree", "--g", "6", "--deg-m", "20",
             "--json"],
        )
        assert rc == 0 and doc["result"]["rule"] == "degree-general"

    def test_missing_evidence(self, capsys):
        rc = cli.main(
            ["gaussian", "--rule", "main", "--l2", "10", "--phi", "2",
             "--deg-m", "8"])
        cap = capsys.readouterr()
        assert rc == 1
        assert cap.err == ("divcalc: error: missing required evidence: "
                           "--h0-residual\n")

    @pytest.mark.parametrize("argv, unread", [
        # these two printed SURJECTIVE with exit 0, the genus or class
        # never reaching the verdict
        (["cliff", "--cliff", "2", "--h0-2k-minus-m", "0", "--l2", "12",
          "--phi", "2"], "--l2, --phi"),
        (["tetragonal", "--h0-2k-minus-m", "0", "--h0-2k-minus-m-b2a", "0",
          "--g", "99"], "--g"),
        # a value of 0 is given, and so is a flag
        (["tetragonal", "--h0-2k-minus-m", "0", "--h0-2k-minus-m-b2a", "0",
          "--g", "0", "--trigonal"], "--g, --trigonal"),
        (["main", "--l2", "12", "--h0-residual", "1", "--mu-surjective"],
         "--mu-surjective"),
        (["bel", "--g", "7", "--deg-m", "8", "--h1-m", "0",
          "--h0-2k-minus-m", "0", "--cliff", "2", "--l2", "12"], "--l2"),
        (["degree", "--g", "6", "--deg-m", "20", "--h1-m", "0",
          "--h0-2k-minus-m-b2a", "1"], "--h1-m, --h0-2k-minus-m-b2a"),
        # named in the command's usage order, whatever the argv order
        (["tetragonal", "--h0-2k-minus-m", "1", "--h0-2k-minus-m-b2a", "0",
          "--plane-quintic", "--l2", "12", "--mu-surjective", "--g", "7"],
         "--g, --l2, --plane-quintic"),
    ])
    def test_options_the_rule_does_not_read_are_refused(self, capsys, argv,
                                                         unread):
        for json_flag in ([], ["--json"]):
            rc = cli.main(["gaussian", "--rule", *argv, *json_flag])
            cap = capsys.readouterr()
            assert rc == 1 and cap.out == ""
            assert cap.err == (f"divcalc: error: --rule {argv[0]} does not "
                               f"read {unread}\n")

    @pytest.mark.parametrize("rule, inputs", [
        ("main", ["--l2", "12", "--h0-residual", "1"]),
        ("cliff", ["--cliff", "2", "--h0-2k-minus-m", "0"]),
        ("bel", ["--g", "7", "--deg-m", "9", "--h1-m", "0",
                 "--h0-2k-minus-m", "0", "--cliff", "3"]),
        ("degree", ["--g", "6", "--deg-m", "20"]),
        ("tetragonal", ["--h0-2k-minus-m", "1", "--h0-2k-minus-m-b2a", "0"]),
    ])
    def test_each_call_reads_its_inputs_once(self, capsys, rule, inputs):
        # once when the rule answers, and once when it refuses a missing
        # input; a profile hook sees every call of _read, by any name
        calls = []
        code = criteria._read.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame.f_locals["rule"])

        for argv, rc in ((inputs, 0), ([], 1)):
            calls.clear()
            sys.setprofile(profile)
            try:
                got = cli.main(["gaussian", "--rule", rule, *argv])
            finally:
                sys.setprofile(None)
            assert got == rc and calls == [rule]
        capsys.readouterr()

    def test_tetragonal_echoes_h1m_as_given(self, capsys):
        # the bound reads h1(M) = 0; the echo holds h1M only when given
        base = ["gaussian", "--rule", "tetragonal", "--h0-2k-minus-m", "3",
                "--h0-2k-minus-m-b2a", "2", "--mu-surjective", "--json"]
        rc, doc = run_json(capsys, base + ["--h1-m", "0"])
        assert rc == 0 and doc["result"]["status"] == "CORANK_BOUND(2)"
        assert doc["result"]["inputs_echo"] == {
            "h0_2K_minus_M": 3, "h0_2K_minus_M_minus_b2A": 2, "h1M": 0,
            "mu_surjective": True}
        for extra in (["--h1-m", "1"], []):
            rc, doc = run_json(capsys, base + extra)
            assert rc == 0 and doc["result"]["status"] == "NO_CONCLUSION"
            assert ("h1M" in doc["result"]["inputs_echo"]) == bool(extra)

    @pytest.mark.parametrize("argv, lines", [
        (["--rule", "cliff", "--cliff", "1", "--h0-2k-minus-m", "0"],
         ["NO_CONCLUSION via cliff",
          "note: needs cliff >= 2, have cliff = 1"]),
        (["--rule", "bel", "--g", "3", "--deg-m", "10", "--h1-m", "0",
          "--h0-2k-minus-m", "0", "--cliff", "3"],
         ["NO_CONCLUSION via bel2", "note: needs g >= 4, have g = 3"]),
        (["--rule", "degree", "--g", "4", "--deg-m", "20"],
         ["NO_CONCLUSION via degree-general",
          "note: needs g >= 5, have g = 4"]),
    ], ids=["cliff", "bel", "degree"])
    def test_a_failed_hypothesis_is_no_conclusion(self, capsys, argv, lines):
        # each of these was refused with exit 1; --strict exits 2
        for strict, code in (([], 0), (["--strict"], 2)):
            rc, out = run(capsys, ["gaussian", *argv, *strict])
            assert rc == code and out.splitlines() == lines


# Per command, and per rule of gaussian: an argv that it answers, every
# value in its input's domain
_IN_DOMAIN = [
    ["gonality", "--l2", "12", "--phi", "2"],
    ["cliff", "--g", "7"],
    ["gaussian", "--rule", "main", "--g", "7", "--l2", "12", "--phi", "2",
     "--deg-m", "8", "--h1-m", "0", "--h0-residual", "1", "--cliff", "3"],
    ["gaussian", "--rule", "cliff", "--cliff", "3", "--h0-2k-minus-m", "1"],
    ["gaussian", "--rule", "bel", "--g", "7", "--deg-m", "8", "--h1-m", "0",
     "--h0-2k-minus-m", "0", "--cliff", "3"],
    ["gaussian", "--rule", "degree", "--g", "6", "--deg-m", "20"],
    ["gaussian", "--rule", "tetragonal", "--h0-2k-minus-m", "1",
     "--h0-2k-minus-m-b2a", "0", "--h1-m", "0", "--mu-surjective"],
    ["corank", "--g", "4", "--h1-m", "0", "--cork-mu", "0",
     "--h0-2k-minus-m", "2", "--aux", "3K-M=3"],
    ["scroll", "--g", "7", "--b1", "1"],
    ["b2rule", "--l2", "12", "--phi", "2"],
]
# per option: values outside its input's domain, each with the one line
# that refuses it
_OUT_OF_DOMAIN = [
    ("g", "-1", "--g must be >= 2, got -1"),
    ("g", "1", "--g must be >= 2, got 1"),
    ("l2", "-1", "--l2 must be even on these lattices, got -1"),
    ("l2", "7", "--l2 must be even on these lattices, got 7"),
    ("l2", "0", "--l2 must be >= 2, got 0"),
    ("phi", "-1", "--phi must be >= 1, got -1"),
    ("phi", "0", "--phi must be >= 1, got 0"),
    *((dest, "-1", f"--{dest.replace('_', '-')} must be >= 0, got -1")
      for dest in ("cliff", "h1_m", "h0_2k_minus_m", "deg_m")),
]


@pytest.mark.parametrize("argv", _IN_DOMAIN, ids=lambda a: "-".join(a[:3]))
def test_each_in_domain_argv_is_answered(capsys, argv):
    assert cli.main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("dest, value, line", _OUT_OF_DOMAIN,
                         ids=[f"{d}={v}" for d, v, _ in _OUT_OF_DOMAIN])
def test_one_refusal_per_option_and_value_across_commands(
        capsys, dest, value, line):
    """Every command that declares the option, under every gaussian rule
    that reads it, refuses the value with the same line. --g -1 used to
    be refused as below 2, 4, 5 or 6, by the command."""
    assert cli._OPTIONS[dest]["type"] is int
    option = "--" + dest.replace("_", "-")
    seen = set()
    for argv in _IN_DOMAIN:
        if option in argv:
            i = argv.index(option) + 1
            rc = cli.main([*argv[:i], value, *argv[i + 1:]])
            cap = capsys.readouterr()
            assert (rc, cap.out, cap.err) == (
                1, "", f"divcalc: error: {line}\n"), argv
            seen.add(argv[0])
    assert seen == {name for name, _, dests, _ in cli._COMMANDS
                    if dest in dests}


class TestVerifyCommand:
    def test_all_prints_thirteen_pass_lines(self, capsys):
        rc, out = run(capsys, ["verify", "--all"])
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
        assert len(lines) == 13

    def test_unknown_case(self, capsys):
        rc, _ = run(capsys, ["verify", "--case", "nope"])
        assert rc == 1

    def test_needs_exactly_one_selector(self, capsys):
        rc, _ = run(capsys, ["verify"])
        assert rc == 1
        rc, _ = run(capsys, ["verify", "--case", "g1kondelp-a", "--all"])
        assert rc == 1

    def test_fixture_failure_sets_exit_code(self, capsys, monkeypatch):
        fx = FIXTURES["g1kondelp-a"]
        broken = CaseFixture(
            case_id=fx.case_id, kind=fx.kind, surface=fx.surface,
            curve=fx.curve, k=fx.k, mod4=fx.mod4,
            expected=(("H-G1", 0),), killed=fx.killed,
            identities=fx.identities, notes=fx.notes,
        )
        monkeypatch.setitem(FIXTURES, "g1kondelp-a", broken)
        rc, out = run(capsys, ["verify", "--case", "g1kondelp-a"])
        assert rc == 1
        assert "FAIL" in out

    def test_single_case_json_is_an_object(self, capsys):
        rc, doc = run_json(
            capsys, ["verify", "--case", "g1kondelp-j", "--json"])
        assert rc == 0
        assert doc["result"]["case"] == "g1kondelp-j"


class TestReportEnvelope:
    def test_envelope_fields(self, capsys):
        rc, doc = run_json(
            capsys, ["self", "--surface", "blq", "--curve", "f", "--json"])
        assert rc == 0
        assert doc["command"][:2] == ["divcalc", "self"]
        assert doc["surface"] == "blq"
        assert isinstance(doc["elapsed_ms"], int)

    def test_surface_null_for_pure_numeric_commands(self, capsys):
        rc, doc = run_json(
            capsys, ["gonality", "--l2", "6", "--phi", "2", "--json"])
        assert rc == 0
        assert doc["surface"] is None

    def test_version_flag(self, capsys):
        rc = cli.main(["--version"])
        assert rc == 0
        assert "0.1.0" in capsys.readouterr().out


def _report_without_elapsed(capsys, argv):
    rc, doc = run_json(capsys, argv + ["--json"])
    del doc["elapsed_ms"]
    return rc, doc


class TestParserReuse:
    """main() shares one parser across calls; no call may leak into the next."""

    def test_repeated_commands_give_identical_reports(self, capsys):
        first = [_report_without_elapsed(capsys, a) for a in GOOD_JSON_COMMANDS]
        second = [_report_without_elapsed(capsys, a) for a in GOOD_JSON_COMMANDS]
        assert first == second
        assert all(rc == 0 for rc, _ in first)

    def test_append_list_does_not_grow(self, capsys):
        rc, doc = run_json(
            capsys,
            ["pair", "--surface", "sigma2", "--curve", "H", "--curve", "G1",
             "--json"],
        )
        assert rc == 0 and doc["result"]["value"] == 0
        rc, doc = run_json(
            capsys, ["self", "--surface", "sigma2", "--curve", "H", "--json"])
        assert rc == 0 and doc["result"]["curve"] == "H"

    @pytest.mark.parametrize(
        "bad", [["frobnicate"], ["gonality", "--l2", "12"]],
        ids=["unknown", "missing-evidence"])
    def test_usage_error_leaves_next_call_intact(self, capsys, bad):
        assert cli.main(bad) == 1
        capsys.readouterr()
        rc, doc = run_json(capsys, ["gonality", "--l2", "30", "--phi", "5",
                                    "--json"])
        assert rc == 0 and doc["result"]["gonality"] == 9

    def test_version_and_help_repeat(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for _ in range(2):
            for argv in (["--version"], ["enumerate", "--help"]):
                assert cli.main(argv) == 0
                texts.append(capsys.readouterr().out)
        assert texts[0] == texts[2] == "0.1.0\n"
        assert texts[1] == texts[3]
        assert texts[1].startswith("usage: divcalc enumerate")

    def test_parser_is_built_once(self, capsys, monkeypatch):
        """Twenty calls construct one parser's worth of ArgumentParsers:
        the root and 16 subparsers."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for i in range(20):
            cli.main(GOOD_JSON_COMMANDS[i % len(GOOD_JSON_COMMANDS)])
        capsys.readouterr()
        assert len(built) == 17


def _stable(out):
    """stdout with the one varying field, a --json report's elapsed_ms,
    taken out."""
    try:
        doc = json.loads(out)
    except ValueError:
        return out
    doc.pop("elapsed_ms", None)
    return doc


def _argparse_reference(argv):
    """The namespace argparse alone gives argv, with the values of
    cli._EXPR_FLAGS fused: the subcommand's parser reads the arguments
    of an argv that starts with a subcommand, the root parser any other
    argv."""
    parser = cli.build_parser()
    fused = cli._fuse_expr_flags(argv)
    sub = parser._commands.get(argv[0]) if argv else None
    return parser.parse_args(fused) if sub is None else sub.parse_args(
        fused[1:])


def _main_through(parse, argv, capsys):
    """main(argv) with its argument parsing done by parse: the namespaces
    parse returned, stdout, stderr and the exit code."""
    seen = []

    def spy(args):
        seen.append(parse(args))
        return seen[-1]

    with mock.patch.object(cli, "_parse_args", spy):
        rc = cli.main(argv)
    cap = capsys.readouterr()
    return seen, _stable(cap.out), cap.err, rc


DISPATCH_CASES = (
    GOOD_JSON_COMMANDS
    + [a + ["--json"] for a in GOOD_JSON_COMMANDS]
    + [
        ["gonality", "--l2", "30", "--phi", "5", "--bogus"],
        ["gonality", "--version"],
        ["frobnicate"],
        ["--version"],
        ["-h"],
        ["pair", "-h"],
        ["scroll", "--g", "abc", "--b1", "2"],
        [],
        ["--json", "pair"],
        ["pair", "--=x"],
        ["pair", "--", "--json"],
        ["gonality", "--l2", "12"],
    ]
)


@pytest.mark.parametrize(
    "argv", DISPATCH_CASES, ids=lambda a: " ".join(a) or "empty")
def test_direct_dispatch_matches_the_root_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    direct = _main_through(cli._parse_args, argv, capsys)
    plain = _main_through(_argparse_reference, argv, capsys)
    assert direct == plain


def test_only_malformed_argv_reach_argparse(capsys):
    """Every sample command, with and without --json, is read from its
    subcommand's option map. Of the malformed argv, those that start with
    a subcommand go to its parser and the others to the root parser."""
    malformed = [
        ["gonality", "--l2", "30", "--phi", "5", "--bogus"],
        ["scroll", "--g", "abc"],
        ["--version"],
        ["frobnicate"],
    ]
    samples = GOOD_JSON_COMMANDS + [a + ["--json"] for a in GOOD_JSON_COMMANDS]
    assert len(samples) + len(malformed) == 36
    for argv in samples:  # each subcommand's defaults are read once, here
        cli.main(argv)
    parser = cli.build_parser()
    subs = list(parser._commands.values())
    with contextlib.ExitStack() as stack:
        root = stack.enter_context(mock.patch.object(
            parser, "parse_known_args", wraps=parser.parse_known_args))
        spies = [stack.enter_context(mock.patch.object(
            sub, "parse_known_args", wraps=sub.parse_known_args))
            for sub in subs]
        for argv in samples:
            cli.main(argv)
        assert root.call_count == 0
        assert sum(s.call_count for s in spies) == 0
        for argv in malformed:
            cli.main(argv)
    capsys.readouterr()
    assert root.call_count == 2
    assert sum(s.call_count for s in spies) == 2


def _parse_outcome(parse, argv):
    """parse(argv)'s namespace, or None when it exits, with what it wrote
    to stdout and stderr and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = parse(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
    return args, out.getvalue(), err.getvalue(), code


# values for the drawn options: integers in and beyond every range, ints
# that int() refuses or reads in another notation, choices and near
# misses, divisor expressions and strings with spaces or non-ASCII
_INT_VALUES = ["0", "7", "-3", "12", str(2**70), "-" + str(2**70)]
_STR_VALUES = ["H", "-2K", "U1+U2", "E+2E1", "4K-M=8", "sigma3",
               "pencil-pair-1", "g1kondelp-b", "a b", "\u00e9", ""]
# --curve, --nodal and --aux take the next string even when it starts
# with "-"
_EXPR_VALUES = ["H", "U1+U2", "-2K", "-H+E", "--", "-h", "--json", "--=x"]
_ARG_VALUES = st.sampled_from(
    _INT_VALUES + _STR_VALUES + [
        "1_000", "0x10", " 5", "1.5", "abc", "\u0663", "auto", "On",
        "main", "bogus", "--", "-", "="])
_MALFORMED = st.sampled_from([
    ["--"], ["-h"], ["--json=x"], ["--json="], ["--=x"], ["--bogus"],
    ["stray"], ["-"]])


@st.composite
def _drawn_argv(draw):
    """A subcommand and its own option strings, each with a value of its
    type or choices, in the exact or the "=" form, repeats included; half
    the draws mix in what argparse must read: a value of the wrong type
    or outside the choices, an abbreviation, a missing or stray value,
    --json=x, --, -h."""
    parser = cli.build_parser()
    name = draw(st.sampled_from(sorted(parser._commands)))
    table = parser._commands[name]._option_string_actions
    opts = sorted(o for o, a in table.items()
                  if not isinstance(a, argparse._HelpAction))

    def well_formed(o):
        action = table[o]
        if action.nargs == 0:
            return [o]
        v = draw(st.sampled_from(
            action.choices or (_INT_VALUES if action.type is int
                               else _EXPR_VALUES if o in cli._EXPR_FLAGS
                               else _STR_VALUES)))
        return draw(st.sampled_from([[o, v], [f"{o}={v}"]]))

    def near_miss():
        # a value of the wrong type, or outside the choices when the
        # subcommand has an option with choices
        o = draw(st.sampled_from([o for o in opts if table[o].choices]
                                 or [o for o in opts if table[o].type]
                                 or sorted(table)))
        v = draw(st.sampled_from(["On", "bogus", "auto ", "", "1_000",
                                  "0x10", " 5", "1.5", "abc", "\u0663"]))
        return draw(st.sampled_from([[o, v], [f"{o}={v}"]]))

    opt = st.sampled_from(sorted(table))
    malformed = [
        near_miss,
        lambda: draw(_MALFORMED),
        lambda: draw(st.builds(lambda o, v: [o, v], opt, _ARG_VALUES)),
        lambda: draw(st.builds(lambda o, v: [f"{o}={v}"], opt, _ARG_VALUES)),
        lambda: [draw(opt)],
        lambda: [draw(opt)[:-1]],
        lambda: [draw(_ARG_VALUES)],
    ]
    pieces = [well_formed(o) for o in draw(st.lists(
        st.sampled_from(opts), max_size=6))] if opts else []
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            bad = malformed[draw(st.sampled_from([0, 0, 1, 2, 3, 4, 5, 6]))]()
            pieces.insert(draw(st.integers(0, len(pieces))), bad)
    return [name] + [tok for piece in pieces for tok in piece]


def test_option_tables_parse_as_argparse_does():
    """_parse_args on raw argv drawn from each subparser's options gives
    the same namespace, stdout, stderr and exit code as the subparser on
    the arguments with --curve and --nodal values fused; the draws reach
    both the option map and the subparser."""
    fast = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_drawn_argv())
    def check(argv):
        sub = cli.build_parser()._commands[argv[0]]
        fast[cli._read_options(sub, argv[1:]) is not None] += 1
        assert (_parse_outcome(cli._parse_args, argv)
                == _parse_outcome(_argparse_reference, argv))

    check()
    assert fast[True] >= 40 and fast[False] >= 40, fast


# values a mutated sample command carries: numeric extremes, long and
# non-ASCII strings, and strings of the wrong type for the option
_MUTANTS = st.sampled_from([
    "0", "-1", "2", str(2**63), str(-2**63 - 1), "9" * 30, "-" + "9" * 30,
    "5" * 5000 + "H", "H" * 3000, "x" * 300, "H+" * 500 + "H",
    "\u00e9", "\u221e", "\u0663", "\u2167", "H\u0301", "\U0001f600",
    "\x00", "\ud800", "1.5", "1e9", "abc", "", " ", "[]", "{}", "null",
    "-", "--", "=", "-H", "2H-", "H/2", "(H)", "U1+U2", "sigma99",
    "blc" + "9" * 30, "enriques", "pencil-pair-1", "main", "on",
])
# options whose values can grow a search without bound while no work
# budget refuses it; a mutation leaves their values as they are
_GROWS = {"enumerate": {"--k", "--curve"}, "phi": {"--curve"}}


@st.composite
def _mutated_command(draw):
    """A sample command with some values replaced, some strings dropped
    and some options of its subcommand appended, with mutated values in
    the separate or the "=" form."""
    argv = list(draw(st.sampled_from(GOOD_JSON_COMMANDS)))
    grows = _GROWS.get(argv[0], set())
    for i in draw(st.lists(st.integers(2, len(argv) - 1), max_size=3)
                  if len(argv) > 2 else st.just([])):
        if not argv[i].startswith("--") and argv[i - 1] not in grows:
            argv[i] = draw(_MUTANTS)
    if len(argv) > 1 and draw(st.booleans()):
        del argv[draw(st.integers(1, len(argv) - 1))]
    table = cli.build_parser()._commands[argv[0]]._option_string_actions
    opts = sorted(o for o in table if o not in grows
                  and not isinstance(table[o], argparse._HelpAction))
    for o in draw(st.lists(st.sampled_from(opts), max_size=2)):
        v = draw(_MUTANTS)
        argv += draw(st.sampled_from(
            [[o], [f"{o}={v}"]] if table[o].nargs == 0
            else [[o, v], [f"{o}={v}"]]))
    return argv + draw(st.sampled_from([[], ["--json"]]))


# an option's value shape, kept by a mutant whose digits grow to 5,000
_SHAPES = {"--aux": "4K-M={}", "--surface": "blc{}"}


@st.composite
def _long_value_command(draw):
    """A sample command that takes an option of _SHAPES, with that
    option's value replaced by one of its shape with 5,000 digits, in the
    separate or the "=" form."""
    opt = draw(st.sampled_from(sorted(_SHAPES)))
    argv = list(draw(st.sampled_from([
        a for a in GOOD_JSON_COMMANDS
        if opt in cli.build_parser()._commands[a[0]]._option_string_actions
    ])))
    if opt in argv:
        i = argv.index(opt)
        del argv[i:i + 2]
    v = _SHAPES[opt].format("9" * 5000)
    return argv + draw(st.sampled_from([[opt, v], [f"{opt}={v}"]]))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_mutated_command() | _long_value_command())
def test_mutated_commands_exit_cleanly(argv):
    """Every mutated sample command exits 0, 1 or 2 with no exception,
    and every exit 1 says why on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert "error:" in err.getvalue()


class TestReportWriter:
    """A --json call prints json.dumps of its RunReport: one line, ASCII,
    written by the stdlib's C encoder."""

    @pytest.mark.parametrize(
        "argv", GOOD_JSON_COMMANDS + [["verify", "--all"]],
        ids=lambda a: " ".join(a))
    def test_reports_match_json_dumps(self, capsys, monkeypatch, argv):
        seen = []
        dumps = json.dumps

        def spy(obj, **kwargs):
            seen.append(obj)
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        rc, out = run(capsys, argv + ["--json"])
        assert rc == 0 and len(seen) == 1
        report = seen[0]
        assert list(report) == ["command", "surface", "result",
                                "elapsed_ms", "version"]
        assert report["command"] == ["divcalc", *argv, "--json"]
        assert report["version"] == cli.__version__
        assert out == dumps(report) + "\n"
        assert json.loads(out) == report

    @pytest.mark.parametrize(
        "argv", GOOD_JSON_COMMANDS + [["verify", "--all"]],
        ids=lambda a: " ".join(a))
    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_each_call_renders_only_what_it_prints(
            self, capsys, monkeypatch, argv, as_json):
        """A --json call never builds the text lines and a text call never
        builds the payload; a --json call writes its report with one
        json.dumps call."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        outcome = cli._Outcome

        def counting_outcome(payload, surface, lines, code=0):
            return outcome(counted("payload", payload), surface,
                           counted("lines", lines), code)

        monkeypatch.setattr(cli, "_Outcome", counting_outcome)
        monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
        rc, out = run(capsys, argv + ["--json"] if as_json else argv)
        assert rc == 0 and out
        if as_json:
            assert calls == Counter(payload=1, dumps=1)
        else:
            assert calls == Counter(lines=1)

    @pytest.mark.parametrize("obj", [
        Fraction(1, 2), {1, 2}, frozenset({1}), {"a": {(1,): 2}},
        [{"b": Fraction(3)}], {"a": [{1}]}, [{(1, 2): "a"}]],
        ids=["fraction", "set", "frozenset", "tuple-key", "nested-fraction",
             "nested-set", "nested-tuple-key"])
    def test_refuses_other_types(self, capsys, monkeypatch, obj):
        """A payload JSON cannot hold raises TypeError out of main and
        prints no part of a report."""
        outcome = cli._Outcome

        def planted(payload, surface, lines, code=0):
            return outcome(lambda: obj, surface, lines, code)

        monkeypatch.setattr(cli, "_Outcome", planted)
        with pytest.raises(TypeError):
            cli.main(GOOD_JSON_COMMANDS[0] + ["--json"])
        assert capsys.readouterr().out == ""

    def test_reports_are_ascii(self, capsys, tmp_path):
        # a name beyond ASCII is written \u-escaped, as json.dumps does
        p = tmp_path / "zo\u00eb.json"
        p.write_text(json.dumps({"labels": ["E"], "pairs": []}))
        rc, out = run(capsys, ["surface", "--json", "--config", str(p)])
        assert rc == 0 and out.isascii()
        assert '"surface": "zo\\u00eb"' in out
        report = json.loads(out)
        assert report["surface"] == report["result"]["name"] == "zo\u00eb"

    def test_reports_skip_the_pure_python_encoder(self, capsys, monkeypatch):
        """No --json report goes through json's indenting encoder, which
        is several times slower than the writer."""

        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps({"a": 1}, indent=2)
        for argv in GOOD_JSON_COMMANDS:
            rc, _ = run(capsys, argv + ["--json"])
            assert rc == 0, argv
