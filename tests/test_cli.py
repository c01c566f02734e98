import contextlib
import io
import json
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import cohw
from cohw import cosimpl
from cohw.exactla import Gaussian, identity_matrix, parse_scalar
from cohw.cli import (
    ParseError, build_action, derive_mhs_extension, derive_phin_extension,
    load_description, main, parse_description, run_verify,
)
from cohw.hodge import mhs_les
from cohw.phin import quotient_les

CORPUS = pathlib.Path(cohw.__file__).parent / "corpus"


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_corpus_parses_and_validates(capsys):
    files = sorted(CORPUS.glob("*.alg"))
    assert len(files) == 4
    for f in files:
        code, out = run(capsys, ["validate", str(f)])
        assert code == 0, out
        assert "verdict: ok" in out
        assert "sha256=" in out


def test_corpus_commands_match_the_golden_output(capsys, monkeypatch):
    # the benchmark's reference output, read only: every corpus command
    # must print it byte for byte, with the same exit code
    root = pathlib.Path(__file__).resolve().parent.parent
    golden = json.loads((root / "perfbench" / "golden.json").read_text())
    assert len(golden) == 10
    monkeypatch.chdir(root)  # the reports name the input by that path
    for command, gold in sorted(golden.items()):
        code, out = run(capsys, command.split())
        assert (out, code) == (gold["stdout"], gold["exit"]), command


def test_corpus_commands_match_the_golden_output_under_optimization():
    # python -O strips assert statements, and no answer may rest on one:
    # every corpus command, run in one optimized interpreter, must print
    # the golden output byte for byte, with the same exit code
    root = pathlib.Path(__file__).resolve().parent.parent
    golden = json.loads((root / "perfbench" / "golden.json").read_text())
    child = ("import contextlib, io, json, sys\n"
             "from cohw.cli import main\n"
             "out = {}\n"
             "for command in json.load(sys.stdin):\n"
             "    buf = io.StringIO()\n"
             "    with contextlib.redirect_stdout(buf):\n"
             "        code = main(command.split())\n"
             "    out[command] = {'exit': code, 'stdout': buf.getvalue()}\n"
             "json.dump(out, sys.stdout)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child], cwd=root,
                          input=json.dumps(sorted(golden)),
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == golden


def test_finite_checks_raise_under_optimization():
    # the homomorphism, element, cocycle, size and Z^1 checks of the
    # finite engine raise explicitly, so python -O keeps them (a twisting
    # datum is a flat tuple over the leaves of U^1); the CLI reports them as
    # internal failures (exit 3 with the message), without a traceback
    root = pathlib.Path(__file__).resolve().parent.parent
    child = (
        "import contextlib, io, json\n"
        "from cohw import cli, cosimpl\n"
        "from cohw.cosimpl import FiniteHom, cyclic_group, twist\n"
        "df = cli.load_description('src/cohw/corpus/s3_double_coset.alg')\n"
        "U = cli.build_coset_cosimplicial(df)\n"
        "C3 = cyclic_group(3)\n"
        "def raised(call):\n"
        "    try:\n"
        "        call()\n"
        "    except Exception as e:\n"
        "        return [type(e).__name__, str(e)]\n"
        "out = {}\n"
        "out['hom'] = raised(lambda: FiniteHom(C3, C3, {0: 1, 1: 2, 2: 0}))\n"
        "e = U.objects[1].identity()\n"
        "X0 = U.objects[1].factors[0]\n"
        "bad = next(x for x in X0.elements() if x != e[:2]) + e[2:]\n"
        "out['twist'] = raised(lambda: twist(U, bad))\n"
        "out['long'] = raised(lambda: twist(U, e + (0,)))\n"
        "out['short'] = raised(lambda: twist(U, e[:1]))\n"
        "out['nested'] = raised(lambda: twist(U, ((99, 0), 0)))\n"
        "out['range'] = raised(lambda: twist(U, (99,) + e[1:]))\n"
        "cosimpl.ENUM_CAP = U.objects[1].size() - 1\n"
        "out['cap'] = raised(lambda: cosimpl.z1_elements(U))\n"
        "cosimpl.ENUM_CAP = 10 ** 6\n"
        "cosimpl.z1_elements = lambda U: [U.objects[1].identity()]\n"
        "out['orbit'] = raised(lambda: cosimpl.pi1_finite(U))\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = cli.main(['pi', 'src/cohw/corpus/s3_double_coset.alg'])\n"
        "out['cli'] = [code, buf.getvalue()]\n"
        "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == {
        "hom": ["ValueError", "not a homomorphism"],
        "twist": ["ValueError", "twisting datum is not a cocycle"],
        "long": ["ValueError", "twisting datum is not an element of U^1"],
        "short": ["ValueError", "twisting datum is not an element of U^1"],
        "nested": ["ValueError", "twisting datum is not an element of U^1"],
        "range": ["ValueError", "twisting datum is not an element of U^1"],
        "cap": ["ValueError", "U^1 too large to enumerate"],
        "orbit": ["RuntimeError", "twisted conjugation left Z^1 (bug)"],
        "cli": [3, "error: internal verification failure: twisted "
                   "conjugation left Z^1 (bug)\n"],
    }


def test_pi_s3_double_cosets(capsys):
    code, out = run(capsys, ["pi", "--degree", "1",
                             str(CORPUS / "s3_double_coset.alg")])
    assert code == 0
    assert "pi1 classes: 2" in out
    code, out = run(capsys, ["pi", "--degree", "0",
                             str(CORPUS / "s3_double_coset.alg")])
    assert code == 0
    assert "pi0 size: 1" in out
    # higher degrees are not defined for finite patterns: an error in the
    # argument, not in the file
    code, out = run(capsys, ["pi", "--degree", "2",
                             str(CORPUS / "s3_double_coset.alg")])
    assert code == 2
    assert out.startswith("error: --degree: 2 is not supported"), out


def test_phin_les_flagship(capsys):
    code, out = run(capsys, ["phin-les",
                             str(CORPUS / "heisenberg_isocrystal.alg")])
    assert code == 0
    assert "middle map bijective: yes; H1_{g/e}(Z) dim 1" in out


@pytest.mark.parametrize("algebra,phi,extension,verdict", [
    # U abelian: pi1(Z) -> pi1(U) is linear and decided exactly; here both
    # are the line of e0
    (["dim 2"], ["1/2 1", "0 1/2"], ["incl 1 0", "proj 0 1"], "yes"),
    # U the Heisenberg group, with pi0(Q) nonzero: neither criterion
    # applies, so the verdict is undecided, not a negative certificate
    (["dim 3", "bracket 0 1 2 1"], ["1 0 0", "0 1/2 0", "0 0 1/2"],
     ["incl 0 0 1", "proj 1 0 0", "proj 0 1 0"], "undecided"),
    # U the Heisenberg group again, with pi0(Q) nonzero, but a cocycle of
    # Z that is no coboundary dies in U: the map is exactly not injective
    (["dim 3", "bracket 0 1 2 1"], ["1 0 0", "0 1 0", "1 0 1"],
     ["incl 0 0 1", "proj 1 0 0", "proj 0 1 0"], "no"),
])
def test_phin_les_middle_map_verdicts(tmp_path, capsys, algebra, phi,
                                      extension, verdict):
    f = tmp_path / "extension.alg"
    f.write_text("\n".join(
        ["field rational", "p 2", "[lie_algebra]"] + algebra + ["[phi]"]
        + ["row " + r for r in phi] + ["[extension]"] + extension) + "\n")
    code, out = run(capsys, ["phin-les", str(f)])
    assert "report: ok" in out
    assert "middle map bijective: %s; H1_{g/e}(Z) dim 1" % verdict in out
    assert code == (1 if verdict == "no" else 0)


def test_phin_classify(capsys):
    code, out = run(capsys, ["phin-classify",
                             str(CORPUS / "heisenberg_isocrystal.alg")])
    assert code == 0
    assert "transitive: yes" in out


def test_phin_classify_negative_certificate(tmp_path, capsys):
    # the identity Frobenius has everything as stabilizer: exit code 1
    f = tmp_path / "ident.alg"
    f.write_text("[lie_algebra]\ndim 3\nbracket 0 1 2 1\n"
                 "[phi]\nrow 1 0 0\nrow 0 1 0\nrow 0 0 1\n")
    code, out = run(capsys, ["phin-classify", str(f)])
    assert code == 1
    assert "transitive: no" in out
    assert "stabilizer dim: 3" in out


def test_hodge_classify_flagship(capsys):
    code, out = run(capsys, ["hodge-classify", "--element", "0,0,1+2i",
                             str(CORPUS / "heisenberg_mhs.alg")])
    assert code == 0
    assert "normal form: 0, 0, 2*i" in out
    assert "reduced coordinates: 2" in out
    # reducing the weight -1 block creates a central cross term: the
    # class of (1, 2i, 0) is the generator i of the center invariant
    code, out = run(capsys, ["hodge-classify", "--element", "1,2i,0",
                             str(CORPUS / "heisenberg_mhs.alg")])
    assert code == 0
    assert "normal form: 0, 0, 1*i" in out
    code, out = run(capsys, ["hodge-classify", "--element", "0,0,0",
                             str(CORPUS / "heisenberg_mhs.alg")])
    assert code == 0
    assert "base class" in out
    # a bad coordinate or count is an error in the argument, not the file
    for element, message in (("0,x,0", "bad scalar: 'x'"),
                             ("0,0", "needs 3 coordinates, got 2")):
        code, out = run(capsys, ["hodge-classify", "--element", element,
                                 str(CORPUS / "heisenberg_mhs.alg")])
        assert (code, out) == (2, "error: --element: %s\n" % message)


HEIS_SKEW = """field gaussian
[lie_algebra]
dim 3
bracket 0 1 2 1
bracket 0 1 1 -1
bracket 0 2 2 1
bracket 0 2 1 -1
[filtration_W]
level -2
vector 0 -1 1
level -1
vector 1 0 0
vector 0 1 0
vector 0 0 1
[filtration_F]
level -1
vector 1 0 0
vector 0 1 0
vector 0 0 1
level 0
vector 1 i 0
level 1
"""


def _heis_skew_class(u):
    """The class of u in the corpus Heisenberg MHS written in the basis
    e0, e1, e1 + e2 (``HEIS_SKEW``), computed by hand: the point is
    exp(x e0 + y e1 + z e2) with (x, y, z) = (u0, u1 + u2, u2), and the
    class is Im z + (b Im x - a Im y) / 2 with a = Re x - Im y and
    b = Re y + Im x."""
    x, y, z = u[0], u[1] + u[2], u[2]
    a, b = x.re - y.im, y.re + x.im
    return z.im + (b * x.im - a * y.im) / 2


def test_hodge_classify_in_a_basis_not_adapted_to_the_series(tmp_path,
                                                            capsys):
    # no basis vector spans the center b2 - b1: the normal form is still
    # found, and it lies in the class of the element
    f = tmp_path / "heis_skew.alg"
    f.write_text(HEIS_SKEW)
    for element in ("1+i,2-3i,5/2+7i", "0,0,1+2i", "1,2i,0", "3-i,0,-2i",
                    "2,5,-7"):
        code, out = run(capsys, ["hodge-classify", "--element", element,
                                 str(f)])
        assert code == 0, (element, out)
        normal = [line for line in out.splitlines()
                  if line.startswith("normal form: ")][0]
        u = [parse_scalar(t, "gaussian") for t in element.split(",")]
        v = [parse_scalar(t, "gaussian")
             for t in normal[len("normal form: "):].split(", ")]
        c = _heis_skew_class(u)
        assert _heis_skew_class(v) == c
        assert v == [Gaussian(0), Gaussian(0, -c), Gaussian(0, c)]
        # the reduced coordinate is read along the echelon row b1 - b2
        assert ("reduced coordinates: %s" % -c if c
                else "reduced coordinates: none (base class)") in out


def test_hodge_les_flagship(capsys):
    code, out = run(capsys, ["hodge-les",
                             str(CORPUS / "heisenberg_mhs.alg")])
    assert code == 0
    assert "middle map bijective: yes; H1(Z) dim 1" in out
    assert "h1 dimensions: Z 1, U 1, Q 0" in out


ZERO_QUOTIENTS = {
    "phin-les": ["field rational\np 2\n[lie_algebra]\ndim 1\n[phi]\nrow 1\n"
                 "[extension]\nincl 1\n",
                 "field rational\np 2\n[lie_algebra]\ndim 2\n[phi]\n"
                 "row 1/2 0\nrow 0 1/4\n[extension]\nincl 1 0\nincl 0 1\n"],
    "hodge-les": ["field gaussian\n[lie_algebra]\ndim 1\n[filtration_W]\n"
                  "level -2\nvector 1\n[filtration_F]\nlevel -1\nvector 1\n"
                  "level 0\n[extension]\nincl 1\n"],
}


def test_les_commands_accept_an_extension_with_a_zero_quotient(tmp_path,
                                                               capsys):
    # Z = U, so Q = 0: the maps out of U into Q have no rows, and the
    # sequence still holds, with H1(Z) = H1(U) of dimension 1
    for command, texts in ZERO_QUOTIENTS.items():
        for i, text in enumerate(texts):
            f = tmp_path / ("zero_quotient_%d.alg" % i)
            f.write_text(text)
            code, out = run(capsys, ["validate", str(f)])
            assert code == 0 and "verdict: ok" in out, out
            code, out = run(capsys, [command, str(f)])
            assert code == 0, (command, i, out)
            assert "report: ok" in out
            assert "middle map bijective: yes; H1" in out
            assert "(Z) dim 1" in out


def test_hodge_commands_refuse_weights_that_are_not_negative(tmp_path,
                                                             capsys):
    # the corpus Heisenberg MHS with its plane moved from W_-1 to W_0
    text = (CORPUS / "heisenberg_mhs.alg").read_text()
    f = tmp_path / "weight_0.alg"
    f.write_text(text.replace("level -1\nvector 1 0 0",
                              "level 0\nvector 1 0 0", 1))
    line = ("filtrations: INVALID (negative weights: W_-1 is everything: "
            "failed)")
    for argv in (["validate"], ["hodge-classify", "--element", "0,0,1"],
                 ["hodge-les"]):
        code, out = run(capsys, argv + [str(f)])
        assert code == 2, (argv, out)
        assert out.splitlines()[-1] == line, (argv, out)


def test_les_clause_provenance_on_the_corpus():
    """Each clause of both corpus sequences holds.  Those decided on a
    whole linear space (here also a zero pi0(Q)) are labelled exact;
    those that follow from the engine's checks are labelled derived."""
    shared = dict(dict.fromkeys(
        ["exact at pi0(U)", "exact at pi0(Q)", "exact at pi1(Z)"], "exact"),
        **dict.fromkeys(["fibers at pi1(Z) are connecting orbits",
                         "exact at pi1(U)", "exact at pi1(Q)"], "derived"))
    res = quotient_les(*derive_phin_extension(
        load_description(str(CORPUS / "heisenberg_isocrystal.alg"))))
    assert res["provenance"] == dict(shared,
                                     **{"pi2(Z) dual formula": "exact"})
    assert all(res["clauses"].values())
    res = mhs_les(*derive_mhs_extension(
        load_description(str(CORPUS / "heisenberg_mhs.alg"))))
    assert res["provenance"] == shared
    assert all(res["clauses"].values())


def test_a_whole_stabilizer_fails_exactly_the_pi1_z_clauses(monkeypatch):
    """A stabilizer descent that returned the whole acting group would
    say every class of Z dies in U; on both corpus sequences, where none
    does, exactly the two clauses it decides fail."""
    descend = cosimpl._descend

    def whole(L, act, group):
        g, layers, _ = descend(L, act, group)
        return g, layers, identity_matrix(group.dim)
    monkeypatch.setattr(cosimpl, "_descend", whole)
    phin = quotient_les(*derive_phin_extension(
        load_description(str(CORPUS / "heisenberg_isocrystal.alg"))))
    hodge = mhs_les(*derive_mhs_extension(
        load_description(str(CORPUS / "heisenberg_mhs.alg"))))
    for res in (phin, hodge):
        assert {k for k, ok in res["clauses"].items() if not ok} == {
            "exact at pi1(Z)", "fibers at pi1(Z) are connecting orbits"}


def _run_child(argvs, flags):
    """[exit code, output] of each argv, from one interpreter started with
    the given flags."""
    root = pathlib.Path(__file__).resolve().parent.parent
    child = ("import contextlib, io, json, sys\n"
             "from cohw.cli import main\n"
             "out = []\n"
             "for argv in json.load(sys.stdin):\n"
             "    buf = io.StringIO()\n"
             "    with contextlib.redirect_stdout(buf):\n"
             "        code = main(argv)\n"
             "    out.append([code, buf.getvalue()])\n"
             "json.dump(out, sys.stdout)\n")
    proc = subprocess.run([sys.executable] + flags + ["-c", child],
                          cwd=root, input=json.dumps(argvs),
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _run_optimized_and_not(tmp_path, files, commands):
    """Exit code and output of each command on each file, from one plain
    and one ``python -O`` interpreter."""
    argvs = []
    for name, text in files.items():
        path = tmp_path / (name + ".alg")
        path.write_text(text)
        argvs += [command + [str(path)] for command in commands]
    results = [_run_child(argvs, flags) for flags in ([], ["-O"])]
    assert results[0] == results[1]
    return zip(argvs, results[0])


def test_invalid_phin_data_exits_2_also_under_optimization(tmp_path):
    # each broken (phi, N) axiom is an input error at the first [phi]
    # row (line 12 of the corpus file), and a weight p <= 1 one at the
    # p line (line 5), with or without asserts
    base = (CORPUS / "heisenberg_isocrystal.alg").read_text()
    rows = "row 0 -1/2 0\nrow 1 1/2 0\nrow 0 0 1/2\n"
    assert rows in base

    def variant(phi, extra=""):
        return base.replace(rows, phi + extra)

    files = {
        "zero": variant("row 0 0 0\nrow 0 0 0\nrow 0 0 0\n"),
        "singular": variant("row 1 0 0\nrow 0 0 0\nrow 0 0 0\n"),
        "not_morphism": variant("row 2 0 0\nrow 0 3 0\nrow 0 0 5\n"),
        "not_derivation": variant("row 1 0 0\nrow 0 1 0\nrow 0 0 1\n",
                                  "[N]\nrow 1 0 0\nrow 0 1 0\n"
                                  "row 0 0 1\n"),
        "not_p_compatible": variant("row 1 0 0\nrow 0 1 0\nrow 0 0 1\n",
                                    "[N]\nrow 0 1 0\nrow 0 0 0\n"
                                    "row 0 0 0\n"),
        "weight": base.replace("p 2", "p 1"),
    }
    reasons = {"zero": "phi is not invertible",
               "singular": "phi is not invertible",
               "not_morphism": "phi is not a Lie algebra morphism at (0,1)",
               "not_derivation": "N is not a derivation at (0,1)",
               "not_p_compatible": "N phi != p phi N",
               "weight": "weight p must exceed 1"}
    for argv, (code, out) in _run_optimized_and_not(
            tmp_path, files, [["phin-classify"], ["phin-les"],
                              ["validate"]]):
        name = pathlib.Path(argv[-1]).stem
        line = 5 if name == "weight" else 12
        assert code == 2, (argv, out)
        assert out == "error: %s:%d:1: invalid (phi, N) data: %s\n" % (
            argv[-1], line, reasons[name]), (argv, out)


def test_invalid_extension_data_exits_2_also_under_optimization(tmp_path):
    # incl vectors that do not commute (phin) or are not bracket-closed
    # (hodge), or that phi does not preserve, are input errors at the
    # first incl line; proj rows that are not onto or no Lie morphism, or
    # to which phi does not descend, at the first proj line; with or
    # without asserts
    block = "incl 0 0 1\nproj 1 0 0\nproj 0 1 0\n"
    cases = {
        "not_closed": ("incl 1 0 0\nincl 0 1 0\nproj 0 0 1\n", 0),
        "not_morphism": ("incl 0 0 1\nproj 0 0 1\n", 1),
        "not_restricting": ("incl 1 0 0\nproj 0 1 0\nproj 0 0 1\n", 0),
        "not_descending": ("incl 0 0 1\nproj 1 0 0\n", 1),
        "not_onto": ("incl 0 0 1\nproj 1 0 0\nproj 1 0 0\n", 1),
    }
    reasons = {
        ("phin-les", "not_closed"): "the incl vectors do not commute",
        ("hodge-les", "not_closed"): "the incl vectors are not "
                                     "bracket-closed",
        ("phin-les", "not_morphism"): "proj: not a Lie algebra morphism "
                                      "at (0,1)",
        ("hodge-les", "not_morphism"): "proj: not a Lie algebra morphism "
                                       "at (0,1)",
        ("phin-les", "not_restricting"): "phi/N do not restrict to the "
                                         "kernel",
        ("phin-les", "not_descending"): "phi/N do not descend to the "
                                        "quotient",
        ("phin-les", "not_onto"): "proj is not surjective",
        ("hodge-les", "not_onto"): "proj is not surjective",
    }
    for command, corpus in (("phin-les", "heisenberg_isocrystal.alg"),
                            ("hodge-les", "heisenberg_mhs.alg")):
        base = (CORPUS / corpus).read_text()
        assert base.endswith(block)
        first = len(base.splitlines()) - 2  # the incl line, 1-based
        files = {name: base.replace(block, text)
                 for name, (text, _) in cases.items()
                 if (command, name) in reasons}
        for argv, (code, out) in _run_optimized_and_not(
                tmp_path, files, [[command]]):
            name = pathlib.Path(argv[-1]).stem
            assert code == 2, (argv, out)
            assert out == "error: %s:%d:1: invalid extension: %s\n" % (
                argv[-1], first + cases[name][1],
                reasons[command, name]), (argv, out)


def test_extension_that_is_no_central_extension_exits_2_at_its_line(
        tmp_path):
    # incl vectors that are dependent, that miss the kernel of proj or
    # that are not central are input errors at the first incl line, or
    # at the first proj line when there is none; with or without asserts,
    # and in validate as in the -les command
    block = "incl 0 0 1\nproj 1 0 0\nproj 0 1 0\n"
    cases = {
        ("phin-les", "heisenberg_isocrystal.alg"): {
            "zero_incl": ("incl 0 0 0\nproj 1 0 0\nproj 0 1 0\n",
                          "the incl vectors are linearly dependent"),
            "no_incl": ("proj 1 0 0\nproj 0 1 0\n",
                        "the incl vectors do not span the kernel of proj")},
        ("hodge-les", "heisenberg_mhs.alg"): {
            "no_incl": ("proj 1 0 0\nproj 0 1 0\n",
                        "the incl vectors do not span the kernel of proj"),
            "not_central": ("incl 1 0 0\nincl 0 0 1\nproj 0 1 0\n",
                            "the incl vectors are not central")},
    }
    for (command, corpus), variants in cases.items():
        base = (CORPUS / corpus).read_text()
        assert base.endswith(block)
        first = len(base.splitlines()) - 2  # the first [extension] line
        files = {name: base.replace(block, text)
                 for name, (text, _) in variants.items()}
        for argv, (code, out) in _run_optimized_and_not(
                tmp_path, files, [[command], ["validate"]]):
            assert code == 2, (argv, out)
            assert out == "error: %s:%d:1: invalid extension: %s\n" % (
                argv[-1], first,
                variants[pathlib.Path(argv[-1]).stem][1]), (argv, out)


def test_invalid_tables_and_jacobi_exit_2_also_under_optimization(tmp_path):
    # a table entry out of range is reported at that entry, a short row
    # and a non-associative table at their row, a Jacobi failure at the
    # first bracket, a double-coset element out of range at that element,
    # and a double-coset subset that is empty or not closed at its line
    # (line 12 of the corpus file), as are left/right lines
    # without a pattern line (left moves to line 11) and an algebra of
    # class 7, above the BCH truncation depth, with or without asserts
    table = "[finite_group]\nelements 3\nrow 0 1 2\n%s\nrow 2 %s\n"
    coset = (CORPUS / "s3_double_coset.alg").read_text()
    assert coset.splitlines()[11] == "left 0 2"
    files = {
        "out_of_range": table % ("row 1 7 0", "0 1"),
        "short_row": table % ("row 1 2", "0 1"),
        "not_associative": table % ("row 1 0 1", "2 0"),
        "jacobi": "[lie_algebra]\ndim 5\nbracket 0 1 2 1\n"
                  "bracket 2 3 4 1\n",
        "class_7": "[lie_algebra]\ndim 8\n" + "".join(
            "bracket 0 %d %d 1\n" % (k, k + 1) for k in range(1, 7)),
        "left_out_of_range": coset.replace("left 0 2", "left 0 9"),
        "left_empty": coset.replace("left 0 2", "left"),
        "left_not_closed": coset.replace("left 0 2", "left 1 2"),
        "no_pattern": coset.replace("pattern double_coset\n", ""),
    }
    reasons = {
        "out_of_range": "4:7: table entry 7 out of range 0..2",
        "short_row": "4:1: row needs 3 entries, got 2",
        "not_associative": "3:1: invalid table: not associative",
        "jacobi": "3:1: invalid Lie algebra: Jacobi identity fails on "
                  "basis (0,1,3)",
        "class_7": "3:1: invalid Lie algebra: nilpotency class above "
                   "supported BCH truncation depth",
        "left_out_of_range": "12:8: left element 9 out of range",
        "left_empty": "12:1: left subset is empty",
        "left_not_closed": "12:1: left subset not closed",
        "no_pattern": "11:1: left/right need a pattern line",
    }
    for argv, (code, out) in _run_optimized_and_not(
            tmp_path, files, [["validate"], ["pi", "--degree", "1"]]):
        name = pathlib.Path(argv[-1]).stem
        assert code == 2, (argv, out)
        assert out == "error: %s:%s\n" % (argv[-1], reasons[name]), out


def test_invalid_filtrations_exit_2_in_every_hodge_command(tmp_path):
    # F^0 spanned by a real vector breaks the Hodge decomposition of the
    # weight -1 plane; every command reports it as validate does.  So
    # does a line pure of weight -1 with only F^1 = 0 stored, whose
    # decomposition fails at p = 0, below the stored levels
    base = (CORPUS / "heisenberg_mhs.alg").read_text()
    assert "vector 1 i 0\n" in base
    verdict = ("filtrations: INVALID (Hodge decomposition at weight -1, "
               "p=0: failed Hodge decomposition)\n")
    odd = ("field gaussian\n[lie_algebra]\ndim 1\n[filtration_W]\n"
           "level -1\nvector 1\n[filtration_F]\nlevel 1\n")
    for files, commands in (
            ({"real_f0": base.replace("vector 1 i 0\n", "vector 1 0 0\n")},
             [["validate"], ["hodge-les"],
              ["hodge-classify", "--element", "0,0,1"]]),
            ({"odd": odd},
             [["validate"], ["hodge-classify", "--element", "1"]])):
        for argv, (code, out) in _run_optimized_and_not(
                tmp_path, files, commands):
            assert code == 2, (argv, out)
            assert out.endswith(verdict), (argv, out)
            assert out.startswith("command: %s\n" % argv[0]), (argv, out)


def test_h1_finite_action(tmp_path, capsys):
    # C2 inverting C3: trivial fixed points, H^1 trivial (coprime orders)
    f = tmp_path / "act.alg"
    f.write_text("[finite_group]\ncyclic 2\n"
                 "[action]\ncarrier cyclic 3\n"
                 "generator 1 permutation 0 2 1\n")
    code, out = run(capsys, ["h1", str(f)])
    assert code == 0
    assert "h0 size: 1" in out
    assert "h1 classes: 1" in out


def test_an_action_without_a_finite_group_is_a_parse_error(capsys):
    # build_action raises the error that cmd_h1 raises, not an assert
    df = parse_description("[action]\ncarrier cyclic 3\n")
    with pytest.raises(ParseError, match="needs finite_group") as e:
        build_action(df)
    assert (e.value.line, e.value.col) == (1, 1)


def test_located_parse_errors(tmp_path, capsys):
    with pytest.raises(ParseError) as e:
        parse_description("")
    assert (e.value.line, e.value.col) == (1, 1)
    # each error names the line and the column where the offending token
    # starts, the first surplus token of a statement with too many
    for text, line, col, message in [
            ("[lie_algebra]\ndim 3\nbracket 0 1 7 1\n", 3, 13, "out of range"),
            ("[lie_algebra]\ndim 2\nbracket 0 1 +2 1\n", 3, 13,
             "out of range"),
            ("[lie_algebra]\ndim 3\nbracket 0 1 2 x\n", 3, 15,
             "bad rational: 'x'"),
            ("[lie_algebra]\ndim 3 4\n", 2, 7, "dim takes one value")]:
        with pytest.raises(ParseError) as e:
            parse_description(text)
        assert (e.value.line, e.value.col) == (line, col), text
        assert message in e.value.message, text
    with pytest.raises(ParseError) as e:
        parse_description("[no_such_section]\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_description("field quaternionic\n")
    assert "rational or gaussian" in e.value.message
    with pytest.raises(ParseError) as e:
        parse_description("[lie_algebra\ndim 1\n")
    assert "unterminated" in e.value.message
    # non-antisymmetric / non-Jacobi data is rejected by the validator
    with pytest.raises(ParseError):
        parse_description("[lie_algebra]\ndim 2\nbracket 0 0 1 1\n")
    # the [action] section is typed by the parser and built by validate
    # as by h1: each bad line is an input error at that line, never a
    # traceback, located at the generator index (column 11), the image
    # (column 13) or the offending token
    c2 = "[finite_group]\ncyclic 2\n[action]\n"
    c2_on_c3 = c2 + "carrier cyclic 3\n"
    c2_on_line = "[lie_algebra]\ndim 1\n" + c2 + "carrier lie_algebra\n"
    cases = [
        (c2 + "generator 1 permutation 0 2 1\n", 4, 1, "before a carrier"),
        (c2_on_c3 + "generator x permutation 0 2 1\n", 5, 11,
         "bad generator index"),
        (c2_on_c3 + "generator 1 permutation 0 two 1\n", 5, 27,
         "bad permutation image"),
        (c2_on_c3 + "generator 1 permutation 0 2 5\n", 5, 13,
         "must list the 3 carrier elements"),
        (c2_on_c3 + "generator 2 permutation 0 2 1\n", 5, 11, "out of range"),
        (c2_on_c3 + "generator 1\n", 5, 1, "needs an index and an image"),
        (c2_on_c3 + "generator 1 matrix 1\n", 5, 13, "image must be"),
        (c2_on_line + "generator 1 matrix x\n", 7, 20, "bad rational"),
        (c2_on_line + "generator 1 permutation 0\n", 7, 13, "image must be"),
        # well-formed lines whose images are not automorphisms, or do not
        # make an action of the whole group
        (c2_on_c3 + "generator 1 permutation 1 2 0\n", 5, 13,
         "not a homomorphism"),
        (c2_on_line.replace("dim 1", "dim 3\nbracket 0 1 2 1")
         + "generator 1 matrix -1 0 0 0 1 0 0 0 1\n", 8, 13,
         "not a homomorphism"),
        ("[finite_group]\ncyclic 3\n[action]\ncarrier cyclic 3\n"
         "generator 1 permutation 0 2 1\n", 4, 1, "do not define an action"),
        (c2_on_c3 + "generator 0 permutation 0 2 1\n", 5, 11,
         "identity must act trivially"),
        (c2_on_c3, 4, 1, "do not generate the group"),
    ]
    path = tmp_path / "action.alg"
    for text, line, col, message in cases:
        path.write_text(text)
        for command in ("validate", "h1"):
            code, out = run(capsys, [command, str(path)])
            assert code == 2, (command, text, out)
            assert ":%d:%d: " % (line, col) in out and message in out, \
                (command, text, out)
    path.write_text(c2_on_line + "generator 1 matrix -1\n")
    assert run(capsys, ["h1", str(path)])[0] == 0
    assert run(capsys, ["validate", str(path)])[0] == 0


def test_exponent_literals_exit_2_at_their_token_also_under_optimization(
        tmp_path):
    # Fraction reads "1e5000" as a 5001-digit integer, and printing it
    # failed; a rational or Gaussian token with an exponent is refused at
    # its column, while decimals keep their value
    iso = (CORPUS / "heisenberg_isocrystal.alg").read_text()
    mhs = (CORPUS / "heisenberg_mhs.alg").read_text()
    files = {
        "p": iso.replace("p 2\n", "p 1e5000\n"),
        "bracket": iso.replace("bracket 0 1 2 1\n", "bracket 0 1 2 2.5E3\n"),
        "gaussian": mhs.replace("vector 1 i 0\n", "vector 1 1e2*i 0\n"),
        "decimal": iso.replace("p 2\n", "p 2.5\n"),
    }
    where = {"p": ("5:3", "rational: '1e5000'"),
             "bracket": ("9:15", "rational: '2.5E3'"),
             "gaussian": ("24:10", "scalar: '1e2*i'")}
    for argv, (code, out) in _run_optimized_and_not(tmp_path, files,
                                                    [["validate"]]):
        name = pathlib.Path(argv[-1]).stem
        if name == "decimal":
            assert code == 0 and "frobenius data: valid (p = 5/2)" in out
            continue
        loc, what = where[name]
        assert code == 2, (argv, out)
        assert out == "error: %s:%s: bad %s\n" % (argv[-1], loc, what)
    for text, field in [("1e5", "rational"), ("2.5E-3", "rational"),
                        ("1e2*i", "gaussian"), ("1+1e2*i", "gaussian")]:
        with pytest.raises(ValueError, match="exponent"):
            parse_scalar(text, field)
    assert parse_scalar("-2.5") == Fraction(-5, 2)
    assert parse_scalar("0.5-1/3*i", "gaussian") == Gaussian(
        Fraction(1, 2), Fraction(-1, 3))


def test_group_orders_and_dims_are_bounded_at_their_line(tmp_path, capsys,
                                                          monkeypatch):
    # each input is rejected at its offending token (at the word that
    # lacks a value when one is missing), with exit 2, before any group or
    # Lie algebra is built: the constructors fail if called at all
    import cohw.cli as cli

    def refuse(n):
        raise AssertionError("group of order %d built" % n)

    def refuse_algebra(d, *args, **kwargs):
        raise AssertionError("Lie algebra of dim %d built" % d)

    monkeypatch.setattr(cli, "cyclic_group", refuse)
    monkeypatch.setattr(cli, "symmetric_group", refuse)
    monkeypatch.setattr(cli, "NilpotentLieAlgebra", refuse_algebra)
    cases = [
        ("[finite_group]\ncyclic 0\n", 2, 8, "at least 1"),
        ("[finite_group]\ncyclic -1\n", 2, 8, "at least 1"),
        ("# comment\n[lie_algebra]\ndim -2\n", 3, 5, ">= 0"),
        ("[lie_algebra]\ndim 129\nbracket 0 1 2 1\n", 2, 5,
         "dimension 129 exceeds 128"),
        ("[lie_algebra]\ndim 99999\nbracket 0 1 2 1\n", 2, 5,
         "exceeds 128"),
        ("[finite_group]\ncyclic 1001\n", 2, 8, "exceeds"),
        ("[finite_group]\nsymmetric 7\n", 2, 11, "exceeds"),
        ("[finite_group]\nsymmetric 1000000000\n", 2, 11, "exceeds"),
        ("[finite_group]\nelements 1001\n", 2, 10, "exceeds"),
        ("[finite_group]\nelements 0\n", 2, 10, "at least 1"),
        ("[finite_group]\ncyclic 2\n[action]\ncarrier symmetric 9\n", 4,
         19, "exceeds"),
        ("[finite_group]\ncyclic 2\n[action]\ncarrier cyclic 0\n", 4,
         16, "at least 1"),
        ("[finite_group]\ncyclic 2\n[action]\ncarrier cyclic\n", 4, 9,
         "cyclic takes one value"),
        ("[finite_group]\ncyclic 2\n[action]\ncarrier torus 3\n", 4, 9,
         "carrier must be"),
    ]
    path = tmp_path / "bad.alg"
    for text, line, col, message in cases:
        path.write_text(text)
        code, out = run(capsys, ["validate", str(path)])
        assert code == 2, (text, out)
        assert ":%d:%d: " % (line, col) in out and message in out, \
            (text, out)
        assert "Traceback" not in out
    # the largest tables within the cap are accepted by the parser
    built = []

    def record(n):
        built.append(n)
        return cohw.cosimpl.cyclic_group(1)

    def record_algebra(d, *args, **kwargs):
        built.append(d)
        return cohw.nilpotent.abelian_lie_algebra(1)

    monkeypatch.setattr(cli, "cyclic_group", record)
    monkeypatch.setattr(cli, "symmetric_group", record)
    monkeypatch.setattr(cli, "NilpotentLieAlgebra", record_algebra)
    parse_description("[finite_group]\ncyclic 1000\n")
    parse_description("[finite_group]\nsymmetric 6\n")
    parse_description("[lie_algebra]\ndim 128\nbracket 0 1 2 1\n")
    assert built == [1000, 6, 128]


def test_keyword_without_value_is_a_located_input_error(tmp_path, capsys):
    # every statement of the corpus cut down to its keyword is either still
    # valid or an input error (exit 2); never a traceback.  The keywords
    # that take exactly one value must report the line, at column 1.
    one_value = {"dim", "cyclic", "symmetric", "elements", "level", "pattern"}
    seen = set()
    for f in sorted(CORPUS.glob("*.alg")):
        lines = f.read_text().splitlines()
        for i, raw in enumerate(lines):
            stmt = raw.split("#", 1)[0].strip()
            if not stmt or stmt.startswith("["):
                continue
            key = stmt.split()[0]
            cut = tmp_path / ("%s_%d.alg" % (f.stem, i + 1))
            cut.write_text("\n".join(lines[:i] + [key] + lines[i + 1:]))
            code, out = run(capsys, ["validate", str(cut)])
            assert code in (0, 2), (f.name, i + 1, out)
            if key in one_value:
                seen.add(key)
                assert code == 2, (f.name, i + 1, out)
                assert "%s:%d:1: %s takes one value" % (cut, i + 1, key) \
                    in out
    # the corpus has no cyclic or elements line: check those directly
    for key in sorted(one_value - seen):
        with pytest.raises(ParseError) as e:
            parse_description("[finite_group]\n%s\n" % key)
        assert (e.value.line, e.value.col) == (2, 1)


ROOT = pathlib.Path(__file__).resolve().parent.parent
# the 10 corpus commands of the benchmark, each naming its file last
CORPUS_COMMANDS = sorted(json.loads(
    (ROOT / "perfbench" / "golden.json").read_text()))
MUTATION_TOKENS = sorted(
    {tok for f in CORPUS.glob("*.alg") for line in f.read_text().splitlines()
     for tok in line.split("#", 1)[0].split()}
    | {"x", "-1", "99", "1/0", "[", "carrier", "generator", "permutation"})
# requirements on the whole file, located at 1:1 rather than at a token
WHOLE_FILE_ERRORS = ("empty description", "pi needs ", "h1 needs ",
                     "phin-classify needs ", "phin-les needs ",
                     "hodge-classify needs ", "hodge-les needs ")
CASE_SECONDS = 10


def _mutant(command, op, line, pos, token, path):
    """The argv of a corpus command on a copy of its file with one line
    deleted, or one token of a statement replaced or inserted; the copy is
    written to path."""
    argv = command.split()
    lines = (ROOT / argv[-1]).read_text().splitlines()
    if op == "delete":
        del lines[line % len(lines)]
    else:
        statements = [i for i, x in enumerate(lines)
                      if x.split("#", 1)[0].split()]
        i = statements[line % len(statements)]
        toks = lines[i].split("#", 1)[0].split()
        if op == "replace":
            toks[pos % len(toks)] = token
        else:
            toks.insert(pos % (len(toks) + 1), token)
        lines[i] = " ".join(toks)
    path.write_text("".join(x + "\n" for x in lines))
    return argv[:-1] + [str(path)]


def _check_exit(argv, code, out):
    """Exit 0, 1 or 2 without a traceback, and every input error located
    where a token starts on its line, unless it is about the whole file."""
    assert code in (0, 1, 2) and "Traceback" not in out, (argv, out)
    text = pathlib.Path(argv[-1]).read_text().splitlines()
    for m in re.finditer(r"^error: (.*):(\d+):(\d+): (.*)$", out, re.M):
        name, line, col, message = m.groups()
        assert name == argv[-1], (argv, out)
        if message.startswith(WHOLE_FILE_ERRORS):
            assert (line, col) == ("1", "1"), (argv, out)
            continue
        starts = [t.start() + 1 for t in re.finditer(
            r"\S+", text[int(line) - 1].split("#", 1)[0])]
        assert int(col) in starts, (argv, out)


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout("a case took more than %d s" % CASE_SECONDS)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(command=st.sampled_from(CORPUS_COMMANDS),
       op=st.sampled_from(["delete", "replace", "insert"]),
       line=st.integers(0, 40), pos=st.integers(0, 12),
       token=st.sampled_from(MUTATION_TOKENS))
# the [extension] data of the -les commands: a zero incl vector, no incl
# line and proj rows that are not onto
@example(command="phin-les src/cohw/corpus/heisenberg_isocrystal.alg",
         op="replace", line=16, pos=3, token="0")
@example(command="hodge-les src/cohw/corpus/heisenberg_mhs.alg",
         op="delete", line=27, pos=0, token="0")
@example(command="phin-les src/cohw/corpus/heisenberg_isocrystal.alg",
         op="replace", line=18, pos=2, token="0")
def test_one_token_mutations_of_the_corpus(tmp_path_factory, command, op,
                                           line, pos, token):
    # each corpus command on its file changed by one line or token exits
    # 0, 1 or 2 in bounded time, and locates each input error at a token
    argv = _mutant(command, op, line, pos, token,
                   tmp_path_factory.getbasetemp() / "mutant.alg")
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    _check_exit(argv, code, out.getvalue())


def test_one_token_mutations_of_the_corpus_under_optimization(tmp_path,
                                                              capsys):
    # python -O changes no exit code and no output on corpus mutations
    rng = random.Random(20)
    argvs, results = [], []
    for k in range(12):
        argv = _mutant(rng.choice(CORPUS_COMMANDS),
                       rng.choice(["delete", "replace", "insert"]),
                       rng.randrange(40), rng.randrange(12),
                       rng.choice(MUTATION_TOKENS), tmp_path / ("%d.alg" % k))
        argvs.append(argv)
        results.append(list(run(capsys, argv)))
        _check_exit(argv, *results[-1])
    assert _run_child(argvs, ["-O"]) == results


def test_parse_round_trip_objects():
    df = load_description(str(CORPUS / "heisenberg_isocrystal.alg"))
    assert df.L.dim == 3 and df.L.nilpotency_class == 2
    assert df.p == 2
    assert df.phi[2][2] == pytest.approx(0.5)
    assert len(df.extension["incl"]) == 1
    assert len(df.extension["proj"]) == 2


def test_exit_codes(capsys):
    code, _ = run(capsys, ["validate", "/no/such/file.alg"])
    assert code == 2
    code, out = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2
    assert "unknown suite" in out


def _exit_2_report(line, fmt):
    # an exit-2 error as main prints it in the given format
    if fmt == "json":
        return json.dumps({"exit": 2, "lines": [line]}) + "\n"
    return line + "\n"


def test_verify_refuses_fewer_than_one_instance():
    # an argument error, in text and json format, with or without asserts
    argvs = [["verify", "--suite", "hopf", "--instances", n, "--format", f]
             for n in ("0", "-1") for f in ("text", "json")]
    results = [_run_child(argvs, flags) for flags in ([], ["-O"])]
    assert results[0] == results[1]
    assert results[0] == [
        [2, _exit_2_report("error: --instances: %s is not a positive count"
                           % argv[4], argv[6])] for argv in argvs]


def test_exit_2_errors_follow_the_output_format(tmp_path, capsys):
    # an argument error, an unreadable file and a located parse error are
    # one JSON document under --format json, and one plain line otherwise
    bad = tmp_path / "bad.alg"
    bad.write_text("[lie_algebra]\ndim x\n")
    cases = [
        (["pi", "--degree", "2", str(CORPUS / "s3_double_coset.alg")],
         "error: --degree: 2 is not supported for finite patterns (0 or 1)"),
        (["validate", "/no/such/file.alg"], "error: [Errno 2] No such file "
         "or directory: '/no/such/file.alg'"),
        (["validate", str(bad)], "error: %s:2:5: bad dimension: 'x'" % bad),
    ]
    for argv, line in cases:
        code, text = run(capsys, argv)
        assert code == 2 and text == line + "\n"
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 2
        assert out == _exit_2_report(line, "json")


def test_exit_3_reports_follow_the_output_format(monkeypatch, capsys):
    # an internal failure is one JSON document under --format json, and
    # one plain line otherwise
    def fail(df, args):
        raise RuntimeError("twisted conjugation left Z^1 (bug)")
    monkeypatch.setitem(cohw.cli.COMMANDS, "validate", fail)
    argv = ["validate", str(CORPUS / "heisenberg.alg")]
    line = ("error: internal verification failure: twisted conjugation "
            "left Z^1 (bug)")
    assert run(capsys, argv) == (3, line + "\n")
    assert run(capsys, argv + ["--format", "json"]) == (
        3, json.dumps({"exit": 3, "lines": [line]}) + "\n")


def test_main_after_an_argparse_exit_prints_what_a_fresh_process_does(
        capsys):
    # the parser is built once per process; a usage error or --help,
    # which exit through SystemExit, leave it as a fresh one
    argvs = [["pi", "--degree", "1", str(CORPUS / "s3_double_coset.alg")],
             ["validate", "--format", "json", str(CORPUS / "heisenberg.alg")],
             ["verify", "--suite", "les", "--seed", "5", "--instances", "2"]]
    fresh = [_run_child([argv], [])[0] for argv in argvs]
    for bad in (["pi"], ["nope"], ["verify", "--seed", "x"], ["--help"],
                ["pi", "--format", "xml", "f.alg"], ["verify", "--help"]):
        with pytest.raises(SystemExit):
            main(bad)
    capsys.readouterr()
    assert [list(run(capsys, argv)) for argv in argvs] == fresh


def test_json_format(capsys):
    code, out = run(capsys, ["validate", str(CORPUS / "heisenberg.alg"),
                             "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exit"] == 0
    assert any("class 2" in line for line in doc["lines"])


def test_verify_small_suites(capsys):
    code, out = run(capsys, ["verify", "--suite", "bch", "--seed", "7",
                             "--instances", "50"])
    assert code == 0
    assert "suite bch: pass (50 instances)" in out
    assert "verdict: pass" in out


def test_verify_deterministic(capsys):
    args = ["verify", "--suite", "double-coset", "--seed", "3",
            "--instances", "3"]
    _, out1 = run(capsys, args)
    _, out2 = run(capsys, args)
    assert out1 == out2


def test_linear_verify_suites_pass_also_under_optimization():
    # the Moore-complex suites, on integer rows, print the same report in
    # a plain and in a python -O interpreter, and pass
    argvs = [["verify", "--suite", suite, "--seed", "3", "--instances", "3"]
             for suite in ("dold-kan", "eilenberg-zilber")]
    results = [_run_child(argvs, flags) for flags in ([], ["-O"])]
    assert results[0] == results[1]
    for argv, (code, out) in zip(argvs, results[0]):
        assert code == 0, (argv, out)
        assert "suite %s: pass (3 instances)" % argv[2] in out
        assert out.endswith("verdict: pass\n")


def test_finite_verify_suites_pass_also_under_optimization():
    # the finite suites, whose checks raise explicitly, print the same
    # report in a plain and in a python -O interpreter, and pass
    argvs = [["verify", "--suite", suite, "--seed", "3", "--instances", "3"]
             for suite in ("double-coset", "les", "twist")]
    results = [_run_child(argvs, flags) for flags in ([], ["-O"])]
    assert results[0] == results[1]
    for argv, (code, out) in zip(argvs, results[0]):
        assert code == 0, (argv, out)
        assert "suite %s: pass (3 instances)" % argv[2] in out
        assert out.endswith("verdict: pass\n")


def test_run_verify_all_suites_smoke():
    results = run_verify(None, 11, 2)
    assert [name for name, _ in results] == [
        "bch", "double-coset", "dold-kan", "eilenberg-zilber", "les",
        "twist", "twisted-conjugation", "hopf"]
    assert all(not rep["failures"] for _, rep in results)
