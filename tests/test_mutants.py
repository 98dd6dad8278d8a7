import os
from pathlib import Path

from mutants import CATALOGUE, stale_entries

ROOT = Path(__file__).resolve().parents[1]


def test_every_old_text_occurs_once_in_its_file():
    # the catalogue fails as soon as the code moves under an entry; no
    # mutant is run here
    assert stale_entries(ROOT) == []
    ids = [mid for mid, *_ in CATALOGUE]
    assert len(set(ids)) == len(ids)
    assert all(old != new and tests for _, _, old, new, tests in CATALOGUE)


def test_a_moved_line_makes_its_entry_stale(tmp_path):
    mid, path, old, _, tests = CATALOGUE[0]
    for name in {p for _, p, *_ in CATALOGUE} | {
            t for *_, ts in CATALOGUE for t in ts}:
        target = tmp_path / name
        os.makedirs(target.parent, exist_ok=True)
        target.write_bytes((ROOT / name).read_bytes())
    assert stale_entries(tmp_path) == []
    text = (tmp_path / path).read_text(encoding="utf-8")
    (tmp_path / path).write_text(text + "\n# " + old + "\n", encoding="utf-8")
    assert stale_entries(tmp_path) == [mid]
