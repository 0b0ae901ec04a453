"""Checks of lexsets outputs against the truth planted by ``gen.py``.

Each check returns a list of mismatch descriptions; an empty list means
the outputs hold. ``self_test`` corrupts a copy of real outputs and shows
that the checks then fail.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

# Reported floats are rounded to 6 decimals: half a unit there, plus float noise.
TOLERANCE = 5e-7 + 1e-9
EXTRACT_FILES = ("lexsets.json", "lexsets.tsv", "manifest.json")
ANALYZE_FILES = ("analysis.json", "geometry.json")


def _read_json(path: Path):
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def compare(actual, expected, where: str = "") -> list[str]:
    """Structural equality; numbers agree within TOLERANCE when either side is a float."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} != {sorted(expected)}"]
        return [m for key in expected for m in compare(actual[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: list of {len(actual) if isinstance(actual, list) else actual!r} != {len(expected)} items"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in compare(a, e, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(expected, float) or isinstance(actual, float)) and not isinstance(actual, bool) \
            and isinstance(actual, numbers) and isinstance(expected, numbers):
        if abs(actual - expected) <= TOLERANCE:
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def check_extract(prefix: Path, truth: dict) -> list[str]:
    """Both databases hold exactly the planted counts and the manifest the planted statistics."""
    try:
        database = _read_json(Path(f"{prefix}_lexsets.json"))
        manifest = _read_json(Path(f"{prefix}_manifest.json"))
        with open(f"{prefix}_lexsets.tsv", encoding="utf-8", newline="") as stream:
            table = list(csv.reader(stream, delimiter="\t"))
        tsv_counts = sorted([verb, role, lemma, int(count)] for verb, role, lemma, count in table[1:])
    except (OSError, ValueError) as exc:
        return [f"extract output unreadable: {exc}"]
    counts = sorted([entry["verb"], entry["role"], f["lemma"], f["count"]]
                    for entry in database for f in entry["fillers"])
    problems = []
    for name, found in (("lexsets.json", counts), ("lexsets.tsv", tsv_counts)):
        if found != truth["counts"]:
            wrong = sum(1 for a, b in zip(found, truth["counts"]) if a != b)
            problems.append(f"{name} filler counts differ: {len(found)} entries vs {len(truth['counts'])} "
                            f"planted, {wrong} differ")
    if table[:1] != [["verb", "role", "lemma", "count"]]:
        problems.append(f"lexsets.tsv header is {table[:1]}")
    if manifest != truth["manifest"]:
        keys = sorted(k for k in set(manifest) | set(truth["manifest"]) if manifest.get(k) != truth["manifest"].get(k))
        problems.append(f"manifest differs in {keys}")
    return problems


def check_identical(prefix_a: Path, prefix_b: Path) -> list[str]:
    """Two extract runs wrote byte-identical files."""
    problems = []
    for suffix in EXTRACT_FILES:
        try:
            same = Path(f"{prefix_a}_{suffix}").read_bytes() == Path(f"{prefix_b}_{suffix}").read_bytes()
        except OSError as exc:
            problems.append(f"{suffix}: {exc}")
            continue
        if not same:
            problems.append(f"{suffix} differs between worker counts")
    return problems


def check_analyze(prefix: Path, truth: dict) -> list[str]:
    """Every value of the analysis and geometry reports matches the generator's computation."""
    try:
        analysis = _read_json(Path(f"{prefix}_analysis.json"))
        geometry = _read_json(Path(f"{prefix}_geometry.json"))
    except (OSError, ValueError) as exc:
        return [f"analyze output unreadable: {exc}"]
    return compare(analysis, truth["analysis"], "analysis") + compare(geometry, truth["geometry"], "geometry")


def self_test(prefix: Path, truth: dict, scratch: Path) -> list[str]:
    """Corrupt one filler count or one median at a time in a copy of passing outputs; the checks must catch each.

    Returns what was not caught; empty means the checks can fail.
    """
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    copy = scratch / "run"
    try:
        for suffix in EXTRACT_FILES + ANALYZE_FILES:
            shutil.copyfile(f"{prefix}_{suffix}", f"{copy}_{suffix}")
    except OSError as exc:
        return [f"no outputs to corrupt: {exc}"]
    if check_extract(copy, truth) or check_analyze(copy, truth):
        shutil.rmtree(scratch)
        return []  # outputs that already fail are counted as failed operations; nothing to show here
    missed = []

    for suffix, checker, corrupt, label in (
        ("lexsets.json", check_extract, _bump_first_count, "a filler count off by one"),
        ("lexsets.tsv", check_extract, _bump_last_tsv_count, "a TSV filler count off by one"),
        ("geometry.json", check_analyze, _shift_geometry_median, "a geometry median off by 2e-6"),
        ("analysis.json", check_analyze, _shift_analysis_median, "an analysis median off by 2e-6"),
    ):
        path = Path(f"{copy}_{suffix}")
        original = path.read_bytes()
        path.write_text(corrupt(original.decode("utf-8")), encoding="utf-8")
        if not checker(copy, truth):
            missed.append(label)
        path.write_bytes(original)
    shutil.rmtree(scratch)
    return missed


def _bump_first_count(text: str) -> str:
    database = json.loads(text)
    database[0]["fillers"][0]["count"] += 1
    return json.dumps(database)


def _bump_last_tsv_count(text: str) -> str:
    lines = text.splitlines(keepends=True)
    verb, role, lemma, count = lines[-1].rstrip("\n").split("\t")
    lines[-1] = f"{verb}\t{role}\t{lemma}\t{int(count) + 1}\n"
    return "".join(lines)


def _shift_geometry_median(text: str) -> str:
    rows = json.loads(text)
    rows[0]["median"] += 2e-6
    return json.dumps(rows)


def _shift_analysis_median(text: str) -> str:
    document = json.loads(text)
    document["verbs"][0]["s_median"] -= 2e-6
    return json.dumps(document)
