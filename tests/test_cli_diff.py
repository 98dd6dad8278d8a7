import shutil
from pathlib import Path

import cli_diff

ROOT = Path(__file__).resolve().parents[1]

_VERIFY_LINE = 'out.append(f"{r.status}  {r.case_id}")'


def _planted(tmp_path):
    """A copy of this tree's src/ whose verify lines have one space
    between status and case, not two."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "divcalc", src / "divcalc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "divcalc" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count(_VERIFY_LINE) == 1
    cli.write_text(text.replace(_VERIFY_LINE, _VERIFY_LINE.replace("  ", " ")),
                   encoding="utf-8")
    return src


def test_a_tree_against_itself_differs_nowhere(capsys):
    # two loads of one tree: no argv of any corpus differs, though each
    # --json report has its own elapsed_ms
    assert cli_diff.main(["--against", str(ROOT / "src")]) == 0
    n = len(cli_diff.queries_corpus()) + 2 + 1200
    assert len(cli_diff.corpus()) == n
    assert capsys.readouterr().out == f"0 of {n} argv differ\n"


def test_a_planted_message_change_is_reported(tmp_path, capsys):
    # the text report of verify --all changes; its --json report and
    # every queries and phi argv do not
    rc = cli_diff.main(["--against", str(_planted(tmp_path))])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[:3] == ["divcalc verify --all", "  --- against stdout",
                       "  +++ src stdout"]
    assert "  -PASS g1kondelp-a" in out and "  +PASS  g1kondelp-a" in out
    assert out[-1] == f"1 of {len(cli_diff.corpus())} argv differ"


def test_a_changed_refusal_is_reported(tmp_path):
    # only the argv whose error line changed is reported
    src = cli_diff.load(ROOT / "src")
    argv = ["gonality", "--l2", "7", "--phi", "1"]
    code, out, err = cli_diff.run(src, argv)
    assert (code, out) == (1, "")
    assert err == ("divcalc: error: --l2 must be even on these lattices, "
                   "got 7\n")
    planted = _planted(tmp_path)
    criteria = planted / "divcalc" / "criteria.py"
    text = criteria.read_text(encoding="utf-8")
    criteria.write_text(text.replace("even on these lattices", "even"),
                        encoding="utf-8")
    ((got, lines),) = cli_diff.differences(
        cli_diff.load(planted), src, [argv, ["gonality", "--l2", "8",
                                             "--phi", "2"]])
    assert got == argv
    assert lines == [
        "--- against stderr", "+++ src stderr", "@@ -1 +1 @@",
        "-divcalc: error: --l2 must be even on these lattices, got 7",
        "+divcalc: error: --l2 must be even, got 7"]


def test_the_queries_corpus_is_perfbench_s_with_and_without_json():
    corpus = cli_diff.queries_corpus()
    workloads = cli_diff._workloads()
    ops = [op for seed in cli_diff.QUERY_SEEDS
           for op in workloads.generate("queries", seed)]
    assert len(corpus) == 2 * len(ops) > 0
    assert corpus[0::2] == [op["argv"] for op in ops]
    assert all("--json" in a and "--json" not in b
               for a, b in zip(corpus[0::2], corpus[1::2]))


def test_the_phi_corpus_is_each_seeded_class_with_and_without_json():
    from divcalc.divexpr import resolve
    from divcalc.lattice import pair
    from divcalc.surfaces import enriques

    classes, corpus = cli_diff.phi_classes(), cli_diff.phi_corpus()
    assert len(classes) == cli_diff.PHI_CLASSES and len(corpus) == 1200
    assert corpus[0::2] == [argv + ["--json"] for argv in corpus[1::2]]
    E = enriques()
    for x, argv in zip(classes, corpus[1::2]):
        assert argv[:4] == ["phi", "--surface", "enriques", "--curve"]
        L = resolve(argv[4], E)
        assert L.coords == x and pair(L, L) > 0
        assert max(map(abs, x)) <= cli_diff.PHI_BOUND
