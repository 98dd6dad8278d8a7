import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_heavy", ROOT / "tools" / "bench_heavy.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_smallest_heavy_case_prints_its_pinned_counts():
    # the stratum's smallest case, run once: its one JSON line has every
    # key, the deterministic counts and a positive time
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_heavy.py"),
         "--case", "sigma6-2K-k8", "--runs", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    got = json.loads(line)
    assert list(got) == ["case", "surface", "curve", "k", "visited",
                         "survivors", "rejected", "runs", "median_s"]
    median = got.pop("median_s")
    assert got == {"case": "sigma6-2K-k8", "surface": "sigma6",
                   "curve": "-2K", "k": 8, "visited": 7191,
                   "survivors": 6453, "rejected": {"sign": 738}, "runs": 1}
    assert median > 0


def test_an_against_run_of_one_tree_interleaves_two_loads():
    # --against on this tree's own src/: both loads report the pinned
    # counts, and the line adds the other median, the ratio and the wins
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_heavy.py"),
         "--case", "sigma6-2K-k8", "--runs", "1",
         "--against", str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    got = json.loads(line)
    assert list(got) == ["case", "surface", "curve", "k", "visited",
                         "survivors", "rejected", "runs", "median_s",
                         "against_median_s", "ratio", "wins"]
    times = got.pop("median_s"), got.pop("against_median_s")
    assert min(times) > 0
    assert got.pop("ratio") == times[0] / times[1]
    assert got == {"case": "sigma6-2K-k8", "surface": "sigma6",
                   "curve": "-2K", "k": 8, "visited": 7191,
                   "survivors": 6453, "rejected": {"sign": 738}, "runs": 1,
                   "wins": int(times[0] < times[1])}


def test_each_load_is_a_module_set_of_its_own():
    # two loads of one tree are two packages, and neither load nor
    # installed leaves a trace in this process's own divcalc modules
    tool = _tool()
    before = tool._package_modules()
    a, b = tool.load(ROOT / "src"), tool.load(ROOT / "src")
    assert tool._package_modules() == before
    assert set(a) == set(b) and "divcalc.lattice" in a
    assert all(a[name] is not b[name] for name in a)
    with tool.installed(b) as dc:
        assert dc is b["divcalc"]
        assert sys.modules["divcalc.lattice"] is b["divcalc.lattice"]
        importlib.import_module("divcalc.cli")
    assert tool._package_modules() == before
    assert "divcalc.cli" in b and "divcalc.cli" not in a


def test_each_timed_search_starts_from_a_collection(monkeypatch):
    # the garbage of one search is not collected inside the next one's
    # time: gc.collect runs after the set-up and before the search
    tool, calls = _tool(), []
    monkeypatch.setattr(tool.gc, "collect", lambda: calls.append("collect"))

    def step(name, result=None):
        return lambda *args: calls.append(name) or result

    dc = SimpleNamespace(
        get_surface=step("get_surface"), resolve=step("resolve"),
        enumerate_bogreider=step("search", SimpleNamespace(
            visited=3, survivors=[1, 2], rejected={"sign": 1})))
    for _ in range(2):
        counts, elapsed = tool.search(dc, "sigma6", "-2K", 8)
    assert counts == (3, 2, {"sign": 1}) and elapsed >= 0
    assert calls == ["get_surface", "resolve", "collect", "search"] * 2
