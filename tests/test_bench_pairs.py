import json
import shutil
import subprocess

import pytest

from bench_pairs import (
    _run, copy_working_tree, document, failed_shares, parse_args, quartiles,
    summarize, table, working_files)


def test_summary_of_a_clear_gain():
    pairs = [(100 + i, 2.0 + 0.01 * i, 1.7 + 0.01 * i) for i in range(10)]
    s = summarize(pairs, 0.25)
    assert [seed for seed, _ in s["ratios"]] == list(range(100, 110))
    assert s["ratios"][0][1] == pytest.approx(1.7 / 2.0)
    assert s["parent"][1] == pytest.approx(2.045)
    assert s["change"][1] == pytest.approx(1.745)
    assert s["parent"][0] < s["parent"][1] < s["parent"][2]
    assert (s["wins"], s["pairs"], s["better"]) == (10, 10, True)


def test_eight_wins_in_ten_are_not_enough():
    pairs = [(i, 2.0, 1.0) for i in range(8)] + [(8, 2.0, 3.0), (9, 2.0, 3.0)]
    s = summarize(pairs, 0.25)
    assert (s["wins"], s["better"]) == (8, False)


def test_a_gain_inside_the_parents_spread_is_not_enough():
    # every pair won, by 0.01, but the parent's quartiles lie 0.5 apart
    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    s = summarize([(i, p, p - 0.01) for i, p in enumerate(parent)], 0.25)
    assert s["wins"] == 10 and not s["better"]
    assert s["parent"][2] - s["parent"][0] > 0.5


def test_quartiles_and_refusals():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0
    with pytest.raises(ValueError):
        summarize([], 0.25)


BENCH = {"run_seconds": 20,
         "workloads": [{"name": n} for n in ("fixtures", "enumerate",
                                             "phi_enriques", "queries")]}


def test_workload_repeats_and_defaults_to_every_benchmark_workload():
    assert parse_args([], BENCH).workload == [
        "fixtures", "enumerate", "phi_enriques", "queries"]
    args = parse_args(["--workload", "queries", "--workload", "fixtures",
                       "--workload", "queries"], BENCH)
    assert args.workload == ["queries", "fixtures"]
    assert (args.seconds, args.pairs, args.ref) == (20, 10, "HEAD~1")
    assert args.out is None
    assert parse_args(["--out", "BENCH.json"], BENCH).out == "BENCH.json"
    with pytest.raises(SystemExit):
        parse_args(["--workload", "nonsense"], BENCH)


def _result(failed, attempted):
    return {"failed": failed, "attempted": attempted}


def test_worse_means_beyond_the_bound():
    # medians 1.0 -> 1.2 are worse beyond a bound of 0.1, not of 0.25
    pairs = [(i, 1.0, 1.2) for i in range(10)]
    assert summarize(pairs, 0.1)["worse"]
    assert not summarize(pairs, 0.25)["worse"]
    assert summarize(pairs, 0.25)["bound"] == 0.25
    assert not summarize([(i, 1.0, 0.5) for i in range(10)], 0.0)["worse"]


def test_failed_shares_pool_each_sides_runs():
    runs = [(1, _result(0, 100), _result(3, 100)),
            (2, _result(1, 300), _result(0, 300))]
    assert failed_shares(runs) == {"parent": 1 / 400, "change": 3 / 400}
    assert failed_shares([(1, _result(0, 0), _result(0, 5))]) == {
        "parent": 0.0, "change": 0.0}


def test_table_has_one_row_per_workload_and_metric():
    gain = summarize([(i, 2.0 + 0.01 * i, 1.0) for i in range(10)], 0.25)
    even = summarize([(i, 1.0, 1.0) for i in range(10)], 0.25)
    worse = summarize([(i, 1.0, 1.5) for i in range(10)], 0.24)
    gain["failed"] = even["failed"] = {"parent": 0.0, "change": 0.0}
    worse["failed"] = {"parent": 0.0, "change": 0.125}
    rows = table({("phi_enriques", "wall_s"): gain,
                  ("queries", "wall_s"): even,
                  ("queries", "setup_s"): worse}).splitlines()
    assert len(rows) == 4 and rows[0].split()[:2] == ["workload", "metric"]
    assert rows[0].split()[6:10] == ["bound", "worse", "failed_p", "failed_c"]
    assert rows[1].split()[:2] == ["phi_enriques", "wall_s"]
    assert rows[1].endswith("better") and "10/10" in rows[1]
    assert rows[1].split()[6:10] == ["0.25", "no", "0.00%", "0.00%"]
    assert rows[2].endswith("not shown better") and "0/10" in rows[2]
    assert rows[3].split()[6:10] == ["0.24", "yes", "0.00%", "12.50%"]


def test_document_records_every_summary_and_the_host():
    gain = summarize([(7 + i, 2.0 + 0.01 * i, 1.0) for i in range(10)], 0.25)
    even = summarize([(7 + i, 1.0, 1.0) for i in range(10)], 0.25)
    gain["failed"] = {"parent": 0.0, "change": 0.0}
    even["failed"] = {"parent": 0.01, "change": 0.02}
    doc = document({("queries", "wall_s"): gain, ("queries", "setup_s"): even},
                   {"parent": "abc", "change": "def-dirty"}, "3.11.7", 4)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["revisions"] == {"parent": "abc", "change": "def-dirty"}
    assert (doc["python"], doc["cores"]) == ("3.11.7", 4)
    first, second = doc["results"]
    assert (first["workload"], first["metric"]) == ("queries", "wall_s")
    assert second["metric"] == "setup_s" and not second["better"]
    assert first["parent"] == dict(zip(("q1", "median", "q3"),
                                       gain["parent"]))
    assert first["change"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert [r["seed"] for r in first["ratios"]] == list(range(7, 17))
    assert first["ratios"][0]["ratio"] == pytest.approx(0.5)
    assert (first["wins"], first["pairs"], first["better"]) == (10, 10, True)
    assert (first["bound"], first["worse"]) == (0.25, False)
    assert second["failed"] == {"parent": 0.01, "change": 0.02}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_working_files_are_the_unignored_files_on_disk(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    for name, text in [(".gitignore", "*.log\nbuild/\n"), ("a.py", "a"),
                       ("pkg/b.py", "b"), ("gone.py", "g"), ("new.py", "n"),
                       ("x.log", "x"), ("pkg/y.log", "y")]:
        (src / name).write_text(text)
    (src / "build").mkdir()
    (src / "build" / "out.bin").write_text("o")
    subprocess.run(["git", "init", "-q"], cwd=src, check=True)
    subprocess.run(["git", "add", ".gitignore", "a.py", "pkg/b.py",
                    "gone.py"], cwd=src, check=True)
    (src / "gone.py").unlink()
    (src / "a.py").write_text("edited after add")
    assert sorted(working_files(src)) == [
        ".gitignore", "a.py", "new.py", "pkg/b.py"]

    dest = tmp_path / "change"
    copy_working_tree(src, dest)
    copied = sorted(p.relative_to(dest).as_posix()
                    for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "a.py", "new.py", "pkg/b.py"]
    assert (dest / "a.py").read_text() == "edited after add"


def test_a_failing_run_shows_its_stderr(tmp_path):
    # a tree whose perfbench run exits 1: the error names the tree and the
    # seed and ends with what the run wrote to stderr
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('partial output')\n"
        "sys.stderr.write('Traceback: the worker died\\n')\n"
        "sys.exit(1)\n")
    with pytest.raises(RuntimeError) as err:
        _run(str(tmp_path), "fixtures", 2907, 1)
    msg = str(err.value)
    assert msg.startswith(f"{tmp_path}: fixtures at seed 2907 exited 1")
    assert msg.endswith("stderr:\nTraceback: the worker died\n")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_change_is_labelled_by_its_content(tmp_path):
    # two different trees on one parent commit get two labels, and one
    # tree copied twice gets one label
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text("a")
    (src / "b.py").write_text("b")
    subprocess.run(["git", "init", "-q"], cwd=src, check=True)
    subprocess.run(["git", "add", "a.py", "b.py"], cwd=src, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-qm", "parent"], cwd=src, check=True)

    (src / "a.py").write_text("first change")
    first = copy_working_tree(src, tmp_path / "c1")
    again = copy_working_tree(src, tmp_path / "c2")
    (src / "a.py").write_text("second change")
    second = copy_working_tree(src, tmp_path / "c3")
    (src / "a.py").write_text("a")
    (src / "b.py").rename(src / "ab.py")  # the parent's bytes, one moved
    moved = copy_working_tree(src, tmp_path / "c4")

    assert first.startswith("sha256:") and len(first) == len("sha256:") + 64
    assert first == again
    assert len({first, second, moved}) == 3
