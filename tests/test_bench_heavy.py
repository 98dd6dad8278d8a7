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


def test_the_phi_case_prints_its_pinned_counts():
    # certified phi on 200 seeded Enriques classes, run once: the total
    # chamber word length and the sum of phi are pinned, so --against
    # times the chamber path on both trees with the same work
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_heavy.py"),
         "--case", "enriques-phi-200", "--runs", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    got = json.loads(line)
    assert list(got) == ["case", "surface", "seed", "classes", "bound",
                         "word_length", "phi_sum", "runs", "median_s"]
    assert got.pop("median_s") > 0
    assert got == {"case": "enriques-phi-200", "surface": "enriques",
                   "seed": 7, "classes": 200, "bound": 30,
                   "word_length": 12157, "phi_sum": 2547, "runs": 1}


def test_the_phi_case_draws_positive_classes_in_its_box():
    tool = _tool()
    with tool.installed(tool.load(ROOT / "src")) as dc:
        surf, classes = tool.enriques_classes(dc, 7, 200, 30)
        assert surf.name == "enriques" and len(set(classes)) == 200
        assert all(dc.pair(L, L) > 0 and max(map(abs, L.coords)) <= 30
                   for L in classes)
        assert max(max(map(abs, L.coords)) for L in classes) == 30
        assert all(dc.phi(surf, L).certificate for L in classes[:20])


def test_the_cusp_phi_case_prints_its_pinned_counts():
    # certified phi on 200 classes shaped like phi_enriques's, run once:
    # each has phi = 1, and the 274 steps of their words hold 200 cusp
    # steps, so the case times mostly the cusp kernel
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_heavy.py"),
         "--case", "enriques-phi-cusp-200", "--runs", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    got = json.loads(line)
    assert got.pop("median_s") > 0
    assert got == {"case": "enriques-phi-cusp-200", "surface": "enriques",
                   "seed": 7, "classes": 200, "bound": 1,
                   "word_length": 274, "phi_sum": 200, "runs": 1}


def test_the_cusp_phi_case_draws_phi_enriques_shapes():
    # U1 + b U2 + r or b U1 + U2 + r, r in [-1, 1]^8, L^2 in {2, 4, 6, 8}
    tool = _tool()
    with tool.installed(tool.load(ROOT / "src")) as dc:
        surf, classes = tool.cusp_classes(dc, 7, 200, 1)
        assert surf.name == "enriques" and len(classes) == 200
        assert {dc.pair(L, L) for L in classes} == {2, 4, 6, 8}
        assert all(1 in L.coords[:2] and max(map(abs, L.coords[2:])) <= 1
                   for L in classes)
        swapped = sum(L.coords[1] != 1 for L in classes)
        assert 60 < swapped < 140
        steps = [s[0] for L in classes
                 for s in dc.phi(surf, L).certificate.word]
        assert steps.count("t") == 200 and len(steps) == 274
