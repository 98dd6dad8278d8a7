"""The package-data globs in pyproject.toml and the data files shipped
under src/divcalc/data/ agree."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and newer

ROOT = Path(__file__).resolve().parents[1]


def test_package_data_globs_match_data_files():
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = doc["tool"]["setuptools"]["package-data"]["divcalc"]
    pkg = ROOT / "src" / "divcalc"
    matched = set()
    for pattern in globs:
        hits = {p for p in pkg.glob(pattern) if p.is_file()}
        assert hits, f"package-data glob {pattern!r} matches no file"
        matched |= hits
    shipped = {p for p in (pkg / "data").rglob("*") if p.is_file()}
    unmatched = sorted(str(p.relative_to(pkg)) for p in shipped - matched)
    assert not unmatched, f"data files no package-data glob ships: {unmatched}"
