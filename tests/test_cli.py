import concurrent.futures
import csv
import inspect
import io
import json
import multiprocessing
import os
import shutil
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsets import cli, report
from lexsets.cli import load_config, main
from lexsets.corpus import ExtractionRules
from lexsets.embeddings import load_text_vectors
from lexsets.errors import ConfigError, PlotSpecError, VectorFormatError

from conftest import DATA_DIR, GOLDEN_DIR, run_cli, run_python

FIXTURES = ["toy.conllu", "toy_vectors.txt", "toy_inventory.json", "toy_config.json"]

OUTPUT_FILES = [
    "toy_lexsets.json",
    "toy_lexsets.tsv",
    "toy_manifest.json",
    "toy_geometry.csv",
    "toy_geometry.json",
    "toy_analysis.csv",
    "toy_analysis.json",
    "toy_analysis_manifest.json",
    "toy_fig1_aprire.svg",
    "toy_fig1_chiudere.svg",
    "toy_fig1_fermare.svg",
    "toy_fig1_rompere.svg",
    "toy_fig2_S.svg",
    "toy_fig2_O.svg",
    "toy_fig3.svg",
]
EXTRACT_FILES = ["toy_lexsets.json", "toy_lexsets.tsv", "toy_manifest.json"]


@pytest.fixture
def workdir(tmp_path):
    for name in FIXTURES:
        shutil.copy(DATA_DIR / name, tmp_path / name)
    return tmp_path


def read_out(workdir, name):
    return (workdir / "out" / name).read_bytes()


# --- extraction golden ------------------------------------------------------


def test_extract_matches_hand_verified_database(workdir):
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    database = json.loads(read_out(workdir, "toy_lexsets.json"))
    by_key = {(e["verb"], e["role"]): {f["lemma"]: f["count"] for f in e["fillers"]} for e in database}
    assert by_key == {
        ("aprire", "S"): {"negozio": 1, "porta": 2},
        ("aprire", "O"): {"finestra": 2, "porta": 1, "scatola": 1},
        ("chiudere", "S"): {"finestra": 1, "negozio": 1, "porta": 1},
        ("chiudere", "O"): {"finestra": 1, "negozio": 1, "porta": 1},
        ("fermare", "S"): {"macchina": 1, "motore": 1, "treno": 1},
        ("fermare", "O"): {"macchina": 1, "nave": 1, "treno": 1},
        ("rompere", "S"): {"bicchiere": 1, "maria": 1, "ramo": 1},
        ("rompere", "O"): {
            "bicchiere": 1,
            "braccio": 1,
            "chiave": 2,
            "finestra": 1,
            "ramo": 1,
            "sportello": 1,
        },
    }


def test_extract_manifest_counts(workdir):
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    manifest = json.loads(read_out(workdir, "toy_manifest.json"))
    assert manifest["sentences_parsed"] == 31
    assert manifest["sentences_skipped"] == 2
    assert manifest["malformed_lines"] == 1
    assert manifest["comment_lines"] == 2
    assert manifest["range_lines_skipped"] == 1
    assert manifest["sentences_filtered_by_length"] == 1
    assert manifest["sentences_processed"] == 30
    assert manifest["filler_records"] == 29
    assert manifest["rules"]["max_sentence_length"] == 15


# --- end-to-end golden ------------------------------------------------------


def test_run_produces_byte_identical_golden_outputs(workdir):
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    for name in OUTPUT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


@pytest.mark.parametrize("workers", [4, 8])
def test_worker_count_does_not_change_outputs(workdir, workers):
    result = run_cli(workdir, "run", "--config", "toy_config.json", "--workers", str(workers))
    assert result.returncode == 0, result.stderr
    for name in OUTPUT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


def test_a_billion_workers_cut_each_file_at_most_once_a_byte(workdir):
    # past one offset a byte, more workers add no cut; the run must not scan the file once for each of them
    result = run_cli(workdir, "extract", "--config", "toy_config.json", "--workers", "1000000000", timeout=60)
    assert result.returncode == 0, result.stderr
    for name in EXTRACT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


def test_staged_equals_combined(workdir):
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    for name in OUTPUT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


def test_rerun_is_byte_identical(workdir):
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    first = {name: read_out(workdir, name) for name in OUTPUT_FILES}
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    assert {name: read_out(workdir, name) for name in OUTPUT_FILES} == first


def test_non_ascii_text_is_written_raw_and_verbose_keeps_the_csv(workdir):
    lemma = "città"
    for name in ("toy.conllu", "toy_vectors.txt"):
        path = workdir / name
        path.write_text(path.read_text(encoding="utf-8").replace("ramo", lemma), encoding="utf-8")
    # the analysis manifest names no filler, so the vector file is named after the lemma
    (workdir / "toy_vectors.txt").rename(workdir / f"vettori_{lemma}.txt")
    set_config_field(workdir, "vectors_path", f"vettori_{lemma}.txt")
    set_config_field(workdir, "verbose_geometry", True)
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    for name in ("toy_lexsets.json", "toy_geometry.json", "toy_analysis_manifest.json"):
        assert lemma.encode("utf-8") in read_out(workdir, name), name
        assert b"\\u" not in read_out(workdir, name), name
    verbose_rows = json.loads(read_out(workdir, "toy_geometry.json"))
    assert lemma in {filler["lemma"] for row in verbose_rows for filler in row["fillers"]}
    verbose_csv = read_out(workdir, "toy_geometry.csv")

    set_config_field(workdir, "verbose_geometry", False)
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    assert read_out(workdir, "toy_geometry.csv") == verbose_csv
    plain_rows = json.loads(read_out(workdir, "toy_geometry.json"))
    assert [{key: value for key, value in row.items() if key != "fillers"} for row in verbose_rows] == plain_rows


def test_analyze_with_explicit_database(workdir):
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    (workdir / "moved.json").write_bytes(read_out(workdir, "toy_lexsets.json"))
    result = run_cli(
        workdir, "analyze", "--config", "toy_config.json", "--database", "moved.json"
    )
    assert result.returncode == 0, result.stderr
    manifest = json.loads(read_out(workdir, "toy_analysis_manifest.json"))
    assert manifest["database"] == "moved.json"


# --- excluded verbs and empty results ----------------------------------------


def test_absent_inventory_verb_is_reported_excluded(workdir):
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    analysis = json.loads(read_out(workdir, "toy_analysis.json"))
    assert analysis["excluded"] == [{"verb": "affondare", "reason": "no S fillers extracted"}]
    assert analysis["correlations"]["distance_vs_reference"]["n"] == 4


def test_oov_only_set_excluded_with_reason(workdir):
    # strip every rompere S filler from the vector file
    vectors = (workdir / "toy_vectors.txt").read_text().splitlines()
    kept = [line for line in vectors[1:] if line.split()[0] not in {"bicchiere", "ramo"}]
    (workdir / "toy_vectors.txt").write_text(f"{len(kept)} 2\n" + "\n".join(kept) + "\n")
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    analysis = json.loads(read_out(workdir, "toy_analysis.json"))
    assert {"verb": "rompere", "reason": "no covered fillers (S)"} in analysis["excluded"]


def test_zero_matches_gives_empty_database_and_exit_zero(workdir):
    inventory = [{"gloss": "sink", "lemma": "affondare", "spontaneity_rank": 1}]
    (workdir / "toy_inventory.json").write_text(json.dumps(inventory))
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    assert "warning" in result.stderr.lower()
    assert json.loads(read_out(workdir, "toy_lexsets.json")) == []


def test_all_verbs_excluded_exits_three(workdir):
    inventory = [{"gloss": "sink", "lemma": "affondare", "spontaneity_rank": 1}]
    (workdir / "toy_inventory.json").write_text(json.dumps(inventory))
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 3
    assert "excluded" in result.stderr


# --- error handling -----------------------------------------------------------


def test_missing_corpus_file_names_path(workdir):
    config = json.loads((workdir / "toy_config.json").read_text())
    config["corpus_paths"] = ["nonexistent.conllu"]
    (workdir / "toy_config.json").write_text(json.dumps(config))
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 2
    assert "nonexistent.conllu" in result.stderr


def test_strict_mode_aborts_on_malformed_corpus(workdir):
    set_config_field(workdir, "strict_parsing", True)
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 2
    assert "line" in result.stderr


def _corpus_with_bad_line_late(workdir, bad="1\tLuca\tLuca\tPROPN\t_\t_\tx\tnsubj\t_\t_\n", sentences=40):
    """Point the config at a corpus of clean sentences and then ``bad``, by default a malformed head.

    Returns the line number of ``bad``'s last line, which is the faulty one.
    """
    block = "1\tLuca\tLuca\tPROPN\t_\t_\t2\tnsubj\t_\t_\n2\tapre\taprire\tVERB\t_\t_\t0\troot\t_\t_\n\n"
    (workdir / "late.conllu").write_text(block * sentences + bad + "\n", encoding="utf-8")
    config = json.loads((workdir / "toy_config.json").read_text())
    config["corpus_paths"] = ["late.conllu"]
    (workdir / "toy_config.json").write_text(json.dumps(config))
    return 3 * sentences + bad.count("\n")


def test_strict_error_names_file_and_line_at_every_worker_count(workdir):
    line = _corpus_with_bad_line_late(workdir)
    set_config_field(workdir, "strict_parsing", True)
    messages = []
    for workers in ("1", "2"):
        result = run_cli(workdir, "extract", "--config", "toy_config.json", "--workers", workers)
        assert result.returncode == 2
        messages.append(result.stderr)
    assert messages[0] == messages[1]
    assert messages[0] == f"error: late.conllu: line {line}: non-numeric index/head ('1', 'x')\n"


# A last sentence with a verb that is no target: extract builds no tokens
# for it, yet checks its lines and its tree as for any other sentence.
NO_TARGET = "1\tLuca\tLuca\tPROPN\t_\t_\t2\tnsubj\t_\t_\n"


@pytest.mark.parametrize("last_line,reason", [
    ("2\tcorre\tcorrere", "expected at least 8 tab-separated fields, got 3"),
    ("2\tcorre\tcorrere\tVERB\t_\t_\t2\troot\t_\t_", "token 2 is its own head"),
    ("3\tcorre\tcorrere\tVERB\t_\t_\t0\troot\t_\t_", "token index 3 out of order, expected 2"),
])
def test_strict_error_in_a_sentence_without_a_target_at_every_worker_count(workdir, last_line, reason):
    line = _corpus_with_bad_line_late(workdir, NO_TARGET + last_line + "\n")
    set_config_field(workdir, "strict_parsing", True)
    path = str(workdir / "late.conllu")
    (_, _), (second_start, _) = cli._cut_ranges(path, [os.path.getsize(path) // 2])  # the cut of --workers 2
    assert cli._lines_before(path, second_start) <= line - 2  # the faulty sentence is all in the second shard
    for workers in ("1", "2"):
        result = run_cli(workdir, "extract", "--config", "toy_config.json", "--workers", workers)
        assert result.returncode == 2
        assert result.stderr == f"error: late.conllu: line {line}: {reason}\n"


def test_nul_in_a_lemma_is_written_to_both_databases(workdir):
    # the TSV writer quotes no NUL, as csv does from Python 3.11; csv on 3.10 raised for it after the JSON was written
    text = (workdir / "toy.conllu").read_text(encoding="utf-8")
    line = "2\tramo\tramo\tNOUN\t_\t_\t4\tnsubj\t_\t_\n"
    assert text.count(line) == 1
    (workdir / "toy.conllu").write_text(text.replace(line, line.replace("\tramo\tNOUN", "\tra\x00mo\tNOUN")),
                                        encoding="utf-8")
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    golden_tsv = (GOLDEN_DIR / "toy_lexsets.tsv").read_bytes()
    assert read_out(workdir, "toy_lexsets.tsv") == golden_tsv.replace(b"rompere\tS\tramo\t", b"rompere\tS\tra\x00mo\t")
    database = json.loads(read_out(workdir, "toy_lexsets.json"))
    assert {"lemma": "ra\x00mo", "count": 1} in next(e["fillers"] for e in database if e["verb"] == "rompere")
    assert (workdir / "out" / "toy_manifest.json").is_file()


def test_undecodable_corpus_exits_two_with_path(workdir):
    (workdir / "toy.conllu").write_bytes(b"1\tcitt\xe0\tcitt\xe0\tNOUN\t_\t_\t0\troot\t_\t_\n")
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy.conllu: not valid UTF-8")


def _die(*args):
    os._exit(1)


def test_dead_worker_exits_two_with_path(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # a pool, not in process
    monkeypatch.setattr(cli, "_extract_shard", _die)
    assert main(["extract", "--config", "toy_config.json", "--workers", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: toy.conllu: a worker process stopped")


# spawn is the default on macOS and Windows, forkserver on Linux from Python 3.14
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_spawned_workers_match_goldens(workdir, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not a start method on this platform")
    code = (
        f"import multiprocessing, sys; multiprocessing.set_start_method({method!r}); "
        "from lexsets.cli import main; "
        "sys.exit(main(['extract', '--config', 'toy_config.json', '--workers', '2']))"
    )
    result = run_python(workdir, "-c", code)
    assert result.returncode == 0, result.stderr
    for name in EXTRACT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


def test_worker_pool_is_capped_at_usable_cpus(workdir, monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.shards = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, function, *iterables):
            arguments = list(zip(*iterables))
            self.shards = len(arguments)
            return [function(*args) for args in arguments]

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["extract", "--config", "toy_config.json", "--workers", "8"]) == 0
    assert [(pool.max_workers, pool.shards > 2) for pool in pools] == [(2, True)]
    for name in EXTRACT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


def test_a_pool_broken_while_shards_are_submitted_exits_two_with_path(workdir, monkeypatch, capsys):
    class BrokenPool:  # what a pool does once a dead worker has broken it before map has submitted every shard
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, function, *iterables):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["extract", "--config", "toy_config.json", "--workers", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: toy.conllu: a worker process stopped")
    assert not (workdir / "out").exists()


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a run that one process can do started a process pool")


def test_one_usable_cpu_runs_in_process(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["extract", "--config", "toy_config.json", "--workers", "8"]) == 0
    for name in EXTRACT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


def test_one_range_runs_in_process(workdir, monkeypatch):
    (workdir / "toy.conllu").write_text(
        "1\tLuca\tLuca\tPROPN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tapre\taprire\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tporta\tporta\tNOUN\t_\t_\t2\tdobj\t_\t_\n", encoding="utf-8")
    monkeypatch.chdir(workdir)
    assert main(["extract", "--config", "toy_config.json"]) == 0
    serial = {name: read_out(workdir, name) for name in EXTRACT_FILES}
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["extract", "--config", "toy_config.json", "--workers", "2"]) == 0
    assert {name: read_out(workdir, name) for name in EXTRACT_FILES} == serial
    assert json.loads(serial["toy_manifest.json"])["filler_records"] == 1


def test_failed_write_leaves_no_database(workdir, monkeypatch, capsys):
    def write_half(sets, stream):
        stream.write("[\n  {")
        raise OSError("disk full")

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "write_database", write_half)
    assert main(["extract", "--config", "toy_config.json"]) == 2
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in (workdir / "out").iterdir()) == []


def test_glosses_holding_csv_syntax_read_back_as_one_field(workdir, monkeypatch):
    path = workdir / "toy_inventory.json"
    inventory = json.loads(path.read_text(encoding="utf-8"))
    inventory[0]["gloss"], inventory[1]["gloss"] = "close\rshut", 'open, "unlock"'
    path.write_text(json.dumps(inventory), encoding="utf-8")
    monkeypatch.chdir(workdir)
    assert main(["run", "--config", "toy_config.json"]) == 0
    with open(workdir / "out" / "toy_analysis.csv", newline="", encoding="utf-8") as stream:
        rows = list(csv.reader(stream))
    assert [len(row) for row in rows] == [10] * 5
    glosses = {entry["lemma"]: entry["gloss"] for entry in inventory}
    assert [row[1] for row in rows[1:]] == [glosses[row[0]] for row in rows[1:]]
    assert {"close\rshut", 'open, "unlock"'} <= {row[1] for row in rows}


POOL_PACKAGES = ("concurrent", "multiprocessing")


# Each command imports only what it runs: numpy where vector rows are held, a process pool where one starts.
@pytest.mark.parametrize("command,flags,absent", [
    pytest.param("extract", ["--workers", "1"], ("numpy", *POOL_PACKAGES), id="1"),
    pytest.param("extract", ["--workers", "2"], ("numpy",), id="2"),
    pytest.param("validate-config", [], ("numpy", *POOL_PACKAGES), id="validate-config"),
    pytest.param("analyze", [], ("csv", *POOL_PACKAGES), id="analyze"),
])
def test_extract_does_not_import_numpy(workdir, command, flags, absent):
    if command == "analyze":
        assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 0
    code = (
        "import sys; from lexsets.cli import main; "
        f"assert main({[command, '--config', 'toy_config.json', *flags]!r}) == 0; "
        f"loaded = [m for m in sys.modules if m.split('.')[0] in {absent!r}]; "
        "assert not loaded, loaded"
    )
    result = run_python(workdir, "-c", code)
    assert result.returncode == 0, result.stderr


# Two ways numpy is missing: a finder that raises, and find_spec finding nothing, as where numpy is not installed.
NO_NUMPY = {
    "raises": """
class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoNumpy())
""",
    "not-found": 'sys.modules["numpy"] = None\n',
}


def run_without_numpy(workdir, *argv, finder="raises"):
    """``main(argv)`` in a child process where numpy cannot be imported, in the way ``NO_NUMPY[finder]`` sets up."""
    code = f"""
import sys
{NO_NUMPY[finder]}
from lexsets.cli import main

sys.exit(main({list(argv)!r}))
"""
    return run_python(workdir, "-c", code)


@pytest.mark.parametrize("workers", [1, 2])
def test_extract_runs_where_numpy_cannot_be_imported(workdir, workers):
    # the commands that check vector rows need numpy, and say so in one line
    for argv in (["validate-config", "--config", "toy_config.json"],
                 ["run", "--config", "toy_config.json", "--workers", str(workers)]):
        result = run_without_numpy(workdir, *argv)
        assert (result.returncode, result.stdout) == (1, ""), result.stderr
        assert result.stderr == (f"error: {argv[0]} needs numpy, which cannot be imported"
                                 " (No module named 'numpy')\n")
        assert not (workdir / "out").exists()

    result = run_without_numpy(workdir, "extract", "--config", "toy_config.json", "--workers", str(workers))
    assert result.returncode == 0, result.stderr
    for name in EXTRACT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name

    result = run_without_numpy(workdir, "analyze", "--config", "toy_config.json")
    assert (result.returncode, result.stdout) == (1, ""), result.stderr
    assert result.stderr == "error: analyze needs numpy, which cannot be imported (No module named 'numpy')\n"
    assert sorted(p.name for p in (workdir / "out").iterdir()) == sorted(EXTRACT_FILES)


def test_commands_that_read_vectors_exit_one_where_numpy_is_not_found(workdir):
    # importlib.util.find_spec("numpy") returns None here, as it does in an environment without numpy
    def run_command(command):
        return run_without_numpy(workdir, command, "--config", "toy_config.json", finder="not-found")

    for command in ("validate-config", "run", "extract", "analyze"):
        result = run_command(command)
        if command == "extract":
            assert result.returncode == 0, result.stderr
            continue
        assert (result.returncode, result.stdout) == (1, ""), result.stderr
        assert result.stderr == f"error: {command} needs numpy, which cannot be imported (No module named 'numpy')\n"
        assert (workdir / "out").exists() == (command == "analyze")
    assert sorted(p.name for p in (workdir / "out").iterdir()) == sorted(EXTRACT_FILES)


def test_analyze_does_not_import_scipy_stats(workdir):
    code = (
        "import sys; from lexsets.cli import main; from lexsets.analysis import t_approximation_pvalue; "
        "assert main(['run', '--config', 'toy_config.json']) == 0; "
        "assert 0 < t_approximation_pvalue(0.5, 20) < 1; "
        "assert not [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"
    )
    result = run_python(workdir, "-c", code)
    assert result.returncode == 0, result.stderr


def test_pipeline_runs_where_scipy_cannot_be_imported(workdir):
    code = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from lexsets.analysis import spearman, t_approximation_pvalue
from lexsets.cli import main

assert main(["run", "--config", "toy_config.json"]) == 0
swapped = [2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11]
result = spearman({i: float(i) for i in range(1, 13)}, {i: float(r) for i, r in enumerate(swapped, 1)})
assert result.method == "t_approximation" and 0 < result.p_value < 1
assert 0.0095 < t_approximation_pvalue(0.56391, 20) < 0.01
"""
    result = run_python(workdir, "-c", code)
    assert result.returncode == 0, result.stderr


def test_analyze_calls_the_vector_loader_and_analysis_set_on_the_cli_module(workdir, monkeypatch):
    calls = []

    def recording(name):
        function = getattr(cli, name)  # resolved on first use, so extract loads no numpy

        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    assert cli.load_text_vectors is load_text_vectors  # resolved through the package's table of exports
    monkeypatch.chdir(workdir)
    for name in ("load_text_vectors", "analyze_lexical_sets"):
        monkeypatch.setattr(cli, name, recording(name))
    assert main(["run", "--config", "toy_config.json"]) == 0
    assert calls == ["load_text_vectors", "analyze_lexical_sets"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name
    assert not hasattr(cli, "__path__") and not hasattr(cli, "__all__")  # the package's own, not its exports


def test_run_analyses_the_sets_it_extracted_and_analyze_reads_its_database_once(workdir, monkeypatch):
    reads = []
    read_database = cli.read_database

    def counting(stream):
        reads.append(stream.name)
        return read_database(stream)

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "read_database", counting)
    assert main(["run", "--config", "toy_config.json"]) == 0
    assert reads == []
    run_outputs = {name: read_out(workdir, name) for name in OUTPUT_FILES}
    assert main(["analyze", "--config", "toy_config.json"]) == 0
    assert reads == ["out/toy_lexsets.json"]
    assert {name: read_out(workdir, name) for name in OUTPUT_FILES} == run_outputs
    assert "manifest_path" not in inspect.signature(cli._analyze).parameters


def test_undecodable_vector_file_names_the_file(workdir):
    with open(workdir / "toy_vectors.txt", "ab") as stream:
        stream.write(b"citt\xe0 0.1 0.2\n")
    assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 0
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy_vectors.txt: not valid UTF-8 text (")


def test_undecodable_database_names_the_file(workdir):
    (workdir / "bad.json").write_bytes(b'[{"verb": "rompere", "role": "S", "fillers": [{"lemma": "citt\xe0"')
    result = run_cli(workdir, "analyze", "--config", "toy_config.json", "--database", "bad.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: bad.json: not valid UTF-8 text (")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_undecodable_inventory_names_the_file(workdir, command):
    with open(workdir / "toy_inventory.json", "ab") as stream:
        stream.write(b"\xe0")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy_inventory.json: not valid UTF-8 text (")
    assert not (workdir / "out").exists()


def append_vector_row(workdir, row, header="17 2"):
    lines = (workdir / "toy_vectors.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    (workdir / "toy_vectors.txt").write_text(f"{header}\n" + "".join(lines[1:]) + row, encoding="utf-8")


def test_malformed_vector_row_names_file_and_line(workdir):
    append_vector_row(workdir, "citta 0.1 zero\n", header="18 2")
    assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 0
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy_vectors.txt: line 19: non-numeric vector component")


def test_a_malformed_row_past_the_declared_count_is_reported_as_the_count(workdir):
    # the check before any work counts the rows and converts none, so it reports the count first
    append_vector_row(workdir, "citta 0.1 zero\n")
    assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 0
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == "error: toy_vectors.txt: line 1: header declares 17 rows, the file has 18\n"


def test_vector_header_count_mismatch_names_file_and_line(workdir):
    with open(workdir / "toy_vectors.txt", "a", encoding="utf-8") as stream:
        stream.write("citta 0.1 0.2\n")
    assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 0
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy_vectors.txt: line 1: header declares 17 rows, the file has 18")
    assert not list((workdir / "out").glob("toy_analysis*"))


@pytest.mark.parametrize(
    "text,message",
    [
        ('[{"verb": "rompere", "role": "S"}]', "entry 1 has no 'fillers' field"),
        ('{"a": 1}', "database must be a JSON list of lexical sets"),
        ('[{"verb": "rompere", "role": "S", "fillers": [', "Expecting value: line 1"),
        ('[{"verb": "rompere", "role": "S", "fillers": [{"lemma": "ramo", "count": "abc"}]}]',
         "filler 'ramo' of verb 'rompere' role 'S' needs a string lemma and an integer count of at least 1,"
         " got count 'abc'"),
    ],
    ids=["missing-key", "not-a-list", "truncated", "string-count"],
)
def test_malformed_database_exits_two_and_names_the_file(workdir, text, message):
    (workdir / "bad.json").write_text(text, encoding="utf-8")
    result = run_cli(workdir, "analyze", "--config", "toy_config.json", "--database", "bad.json")
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: bad.json: {message}")
    assert "Traceback" not in result.stderr
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "entry",
    [
        {"gloss": "close", "lemma": "chiudere", "spontaneity_rank": 1.9},
        {"gloss": "close", "lemma": 7, "spontaneity_rank": 1},
        {"gloss": "close", "lemma": "chiudere", "spontaneity_rank": "x"},
        [1, 2],
        {"gloss": "close", "lemma": "chiudere", "spontaneity_rank": True},
    ],
    ids=["float-rank", "integer-lemma", "string-rank", "list-entry", "boolean-rank"],
)
@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_malformed_inventory_entry_exits_two_and_names_the_file(workdir, entry, command):
    inventory = json.loads((workdir / "toy_inventory.json").read_text())
    inventory[0] = entry
    (workdir / "toy_inventory.json").write_text(json.dumps(inventory))
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy_inventory.json: inventory entry 1 needs a string gloss, a string lemma"
                                    f" and an integer spontaneity_rank, got {entry!r}")
    assert "Traceback" not in result.stderr
    assert not (workdir / "out").exists()


def test_malformed_reference_ranking_names_its_file(workdir):
    lemmas = [entry["lemma"] for entry in json.loads((workdir / "toy_inventory.json").read_text())]
    ranking = [{"lemma": lemma, "rank": rank} for rank, lemma in enumerate(lemmas, start=1)]
    ranking[1]["rank"] = False
    (workdir / "reference.json").write_text(json.dumps(ranking))
    set_config_field(workdir, "reference_ranking_path", "reference.json")
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: reference.json: reference-ranking entry 2 needs a string lemma"
                                    " and a finite numeric rank, got {'lemma': 'aprire', 'rank': False}")
    assert not (workdir / "out").exists()


def test_run_with_a_reference_ranking_reranks_it_over_the_included_verbs(workdir):
    # against the spontaneity order: affondare (excluded, no S fillers) first, chiudere and aprire tied
    ranking = {"affondare": 1, "fermare": 2, "rompere": 3, "chiudere": 4, "aprire": 4}
    (workdir / "reference.json").write_text(json.dumps([{"lemma": k, "rank": v} for k, v in ranking.items()]))
    set_config_field(workdir, "reference_ranking_path", "reference.json")
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    document = json.loads(read_out(workdir, "toy_analysis.json"))
    assert [v["verb"] for v in document["excluded"]] == ["affondare"]
    reference_ranks = {v["verb"]: v["reference_rank"] for v in document["verbs"]}
    assert reference_ranks == {"fermare": 1.0, "rompere": 2.0, "chiudere": 3.5, "aprire": 3.5}
    correlation = document["correlations"]["distance_vs_reference"]
    assert correlation["n"] == 4
    assert correlation["x_ties"] == 0 and correlation["y_ties"] == 2
    assert correlation["method"] == "exact_permutation"


def test_usage_error_exits_one(workdir):
    result = run_cli(workdir, "frobnicate")
    assert result.returncode == 1
    assert "invalid choice" in result.stderr
    result = run_cli(workdir, "extract")
    assert result.returncode == 1
    assert "--config" in result.stderr


def test_help_exits_zero(workdir):
    assert run_cli(workdir, "--help").returncode == 0


def test_bad_config_json_exits_one(workdir):
    (workdir / "toy_config.json").write_text("{not json")
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 1
    assert "not valid JSON" in result.stderr


def test_unknown_config_field_exits_one(workdir):
    config = json.loads((workdir / "toy_config.json").read_text())
    config["corups_paths"] = config.pop("corpus_paths")
    (workdir / "toy_config.json").write_text(json.dumps(config))
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 1
    assert "unknown config fields" in result.stderr


def test_validate_config_ok(workdir):
    result = run_cli(workdir, "validate-config", "--config", "toy_config.json")
    assert result.returncode == 0
    assert "valid" in result.stdout


def test_validate_config_missing_file(workdir):
    config = json.loads((workdir / "toy_config.json").read_text())
    config["corpus_paths"] = ["gone.conllu"]
    config["vectors_path"] = "gone.txt"
    (workdir / "toy_config.json").write_text(json.dumps(config))
    result = run_cli(workdir, "validate-config", "--config", "toy_config.json")
    assert result.returncode == 2
    # every missing file, one line each, in the order the config lists them
    assert result.stderr == "error: missing input file: gone.conllu\nerror: missing input file: gone.txt\n"


def set_config_field(workdir, name, value):
    config = json.loads((workdir / "toy_config.json").read_text())
    config[name] = value
    (workdir / "toy_config.json").write_text(json.dumps(config))


@pytest.mark.parametrize("command", ["extract", "run"])
def test_missing_reference_ranking_names_its_file(workdir, command):
    set_config_field(workdir, "reference_ranking_path", "gone_reference.json")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == "error: missing input file: gone_reference.json\n"
    assert not (workdir / "out").exists()


def test_run_checks_its_inputs_and_reads_the_inventory_once(workdir, monkeypatch):
    calls = []
    load_inventory = cli.load_inventory

    def counted(stream):
        calls.append(stream.name)
        return load_inventory(stream)

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "load_inventory", counted)
    assert main(["run", "--config", "toy_config.json"]) == 0
    assert calls == ["toy_inventory.json"]


@pytest.mark.parametrize(
    "command,flags",
    [
        ("extract", ["--strict"]),
        ("extract", ["--max-sentence-length", "3"]),
        ("run", ["--strict"]),
        ("run", ["--max-sentence-length", "3"]),
        ("analyze", ["--strict"]),
        ("analyze", ["--max-sentence-length", "3"]),
        ("analyze", ["--workers", "3"]),
    ],
)
def test_removed_flag_exits_one_and_writes_nothing(workdir, monkeypatch, capsys, command, flags):
    # strict parsing and the length cap are config fields; analyze runs in one process
    monkeypatch.chdir(workdir)
    assert main([command, "--config", "toy_config.json", *flags]) == 1
    assert f"error: unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize(
    "head,error",
    [
        ("5 -2\nporta 1.0 0.2\n", "line 1: header must declare positive dimensions"),
        ("17 2\nporta 1.0 zero\n", "line 2: non-numeric vector component in ['1.0', 'zero']"),
    ],
    ids=["header", "first-row"],
)
def test_bad_vector_head_exits_two_before_any_work(workdir, command, head, error):
    lines = (workdir / "toy_vectors.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    (workdir / "toy_vectors.txt").write_text(head + "".join(lines[2:]), encoding="utf-8")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == f"error: toy_vectors.txt: {error}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize(
    "text,error",
    [
        ("", "empty vector stream"),
        ("\n \n", "line 2: empty vector stream"),
        ("5 3\n", "line 1: header declares 5 rows, the file has 0"),
    ],
    ids=["empty", "blank-lines", "header-only"],
)
def test_vector_file_without_a_data_row_exits_two_before_any_work(workdir, command, text, error):
    # the head check ends as the loader does where the stream ends
    with pytest.raises(VectorFormatError) as loaded:
        load_text_vectors(io.StringIO(text))
    assert str(loaded.value) == error
    (workdir / "toy_vectors.txt").write_text(text, encoding="utf-8")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == f"error: toy_vectors.txt: {error}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize("header,rows,extra,error", [
    ("500 2", 2, "", "line 1: header declares 500 rows, the file has 2"),
    ("17 2", 17, "citta 0.1 0.2\n", "line 1: header declares 17 rows, the file has 18"),
], ids=["truncated", "one-row-longer"])
def test_vector_row_count_off_its_header_exits_two_before_any_work(workdir, command, header, rows, extra, error):
    lines = (workdir / "toy_vectors.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    text = f"{header}\n" + "".join(lines[1:1 + rows]) + extra
    with pytest.raises(VectorFormatError) as loaded:
        load_text_vectors(io.StringIO(text))
    assert str(loaded.value) == error  # the loader's own error
    (workdir / "toy_vectors.txt").write_text(text, encoding="utf-8")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == f"error: toy_vectors.txt: {error}\n"
    assert not (workdir / "out").exists()


def test_header_only_vector_file_with_zero_rows_is_valid(workdir):
    (workdir / "toy_vectors.txt").write_text("0 3\n", encoding="utf-8")
    assert len(load_text_vectors(io.StringIO("0 3\n"))) == 0
    result = run_cli(workdir, "validate-config", "--config", "toy_config.json")
    assert (result.returncode, result.stderr) == (0, "")


def test_reference_ranking_that_misses_an_inventory_lemma_exits_two_naming_its_file(workdir):
    lemmas = [entry["lemma"] for entry in json.loads((workdir / "toy_inventory.json").read_text())]
    (workdir / "reference.json").write_text(json.dumps([{"lemma": lemma, "rank": 1} for lemma in lemmas[1:]]))
    set_config_field(workdir, "reference_ranking_path", "reference.json")
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == "error: reference.json: reference ranking must cover exactly the inventory lemmas\n"
    assert not (workdir / "out").exists()


# --- byte-order marks ---------------------------------------------------------


BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("workers,header", [(1, True), (2, True), (4, True), (1, False)],
                         ids=["workers1", "workers2", "workers4", "headerless-vectors"])
def test_byte_order_marks_on_every_input_are_skipped(workdir, workers, header):
    if not header:
        lines = (workdir / "toy_vectors.txt").read_bytes().splitlines(keepends=True)
        (workdir / "toy_vectors.txt").write_bytes(b"".join(lines[1:]))
    for name in FIXTURES:
        (workdir / name).write_bytes(BOM + (workdir / name).read_bytes())
    result = run_cli(workdir, "validate-config", "--config", "toy_config.json")
    assert (result.returncode, result.stderr) == (0, "")
    result = run_cli(workdir, "run", "--config", "toy_config.json", "--workers", str(workers))
    assert result.returncode == 0, result.stderr
    for name in OUTPUT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


def test_byte_order_mark_on_a_database_is_skipped(workdir):
    (workdir / "out").mkdir()
    for name in ("toy_lexsets.json", "toy_manifest.json"):
        (workdir / "out" / name).write_bytes(BOM + (GOLDEN_DIR / name).read_bytes())
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    assert read_out(workdir, "toy_analysis.json") == (GOLDEN_DIR / "toy_analysis.json").read_bytes()


def test_byte_order_mark_is_skipped_only_at_the_start_of_a_file(tmp_path):
    # a serial read keeps a U+FEFF after the first byte as data, so a shard that starts there keeps it too
    path = tmp_path / "corpus.conllu"
    path.write_bytes(BOM + b"a\n" + BOM + b"b\n")
    with cli._open_range(str(path), 0, 10) as stream:
        assert stream.read() == "a\n\ufeffb\n"
    with cli._open_range(str(path), 5, 10) as stream:
        assert stream.read() == "\ufeffb\n"


def test_zero_vector_exclusion_names_the_filler(workdir):
    vectors = (workdir / "toy_vectors.txt").read_text(encoding="utf-8").replace("porta 1.0 0.2", "porta 0 0")
    (workdir / "toy_vectors.txt").write_text(vectors, encoding="utf-8")
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    manifest = json.loads(read_out(workdir, "toy_analysis_manifest.json"))
    reason = "zero vector for filler 'porta' (S)"
    assert {"verb": "chiudere", "reason": reason} in manifest["verbs_excluded"]
    assert {"verb": "aprire", "reason": reason} in manifest["verbs_excluded"]


def test_run_with_a_missing_vector_file_extracts_nothing(workdir):
    set_config_field(workdir, "vectors_path", "gone.txt")
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == "error: missing input file: gone.txt\n"
    assert not (workdir / "out").exists()


def test_analyze_reports_a_malformed_inventory_before_reading_the_vectors(workdir):
    assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 0
    with open(workdir / "toy_vectors.txt", "a", encoding="utf-8") as stream:
        stream.write("citta 0.1 zero\n")
    (workdir / "toy_inventory.json").write_text('{"not": "a list"}')
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy_inventory.json: ")
    assert "toy_vectors.txt" not in result.stderr


def test_analyze_reports_a_bad_vector_head_before_reading_the_database(workdir):
    # the check phase reads the vector head; the database is read after it, by the analyze stage
    (workdir / "out").mkdir()
    (workdir / "out" / "toy_lexsets.json").write_text('{"not": "a list"}', encoding="utf-8")
    lines = (workdir / "toy_vectors.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    (workdir / "toy_vectors.txt").write_text("5 -2\n" + "".join(lines[1:]), encoding="utf-8")
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == "error: toy_vectors.txt: line 1: header must declare positive dimensions\n"
    (workdir / "toy_vectors.txt").write_text("".join(lines), encoding="utf-8")
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == "error: out/toy_lexsets.json: database must be a JSON list of lexical sets\n"


def test_input_removed_after_the_check_exits_two_with_its_path(workdir, monkeypatch, capsys):
    prepare = cli._prepare

    def prepare_then_remove_corpus(config, paths):
        inventory = prepare(config, paths)
        (workdir / "toy.conllu").unlink()
        return inventory

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "_prepare", prepare_then_remove_corpus)
    assert main(["extract", "--config", "toy_config.json"]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'toy.conllu'\n"


@pytest.mark.parametrize("command", ["validate-config", "extract"])
def test_empty_corpus_path_exits_one(workdir, command):
    set_config_field(workdir, "corpus_paths", [""])
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert result.stderr == "error: corpus_paths must be a list of file paths, got ['']\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_rank_direction_field_is_unknown(workdir, command):
    # distances always rank ascending and overlaps descending
    set_config_field(workdir, "distance_rank_direction", "ascending")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert result.stderr == "error: unknown config fields: ['distance_rank_direction']\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "extract", "analyze", "run"])
def test_inventory_lemma_with_a_capital_exits_two_before_any_work(workdir, command):
    if command == "analyze":
        assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 0
    inventory = (workdir / "toy_inventory.json").read_text()
    (workdir / "toy_inventory.json").write_text(inventory.replace('"rompere"', '"Rompere"'))
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr == "error: toy_inventory.json: inventory lemmas must be lower-case, got 'Rompere'\n"
    written = sorted(path.name for path in (workdir / "out").glob("*")) if (workdir / "out").exists() else []
    assert written == (sorted(EXTRACT_FILES) if command == "analyze" else [])


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_string_boolean_exits_one_before_any_work(workdir, command):
    set_config_field(workdir, "strict_parsing", "false")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert "strict_parsing must be true or false, got 'false'" in result.stderr
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_string_relation_list_exits_one_before_any_work(workdir, command):
    config = json.loads((workdir / "toy_config.json").read_text())
    config["rules"]["object_relations"] = "dobj"
    (workdir / "toy_config.json").write_text(json.dumps(config))
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert "object_relations must be a list of strings, got 'dobj'" in result.stderr
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_string_corpus_paths_exits_one_before_any_work(workdir, command):
    set_config_field(workdir, "corpus_paths", "toy.conllu")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert "corpus_paths must be a list of file paths, got 'toy.conllu'" in result.stderr
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize(
    "name,value,named",
    [
        ("reference_ranking_path", "", "reference_ranking_path must be a file path or null, got ''"),
        ("corpus_paths", ["toy.conllu", "toy.conllu"], "corpus_paths lists 'toy.conllu' more than once"),
    ],
    ids=["empty-reference", "repeated-corpus"],
)
def test_empty_reference_or_repeated_corpus_exits_one_before_any_work(workdir, command, name, value, named):
    set_config_field(workdir, name, value)
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert result.stderr == f"error: {named}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["validate-config", "extract", "run"])
@pytest.mark.parametrize("spelling", ["dot", "absolute", "symlink"])
def test_one_corpus_file_under_two_spellings_exits_one_before_any_work(workdir, monkeypatch, capsys, command,
                                                                       spelling):
    second = {"dot": "./toy.conllu", "absolute": str(workdir / "toy.conllu"), "symlink": "link.conllu"}[spelling]
    (workdir / "link.conllu").symlink_to("toy.conllu")
    set_config_field(workdir, "corpus_paths", ["toy.conllu", second])
    monkeypatch.chdir(workdir)
    assert main([command, "--config", "toy_config.json"]) == 1
    assert capsys.readouterr().err == f"error: corpus_paths lists one file twice, as 'toy.conllu' and {second!r}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("name", ["vectors_path", "inventory_path", "output_prefix", "reference_ranking_path"])
def test_non_string_path_field_exits_one(workdir, name):
    set_config_field(workdir, name, 5)
    result = run_cli(workdir, "validate-config", "--config", "toy_config.json")
    assert result.returncode == 1
    assert name in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_non_utf8_config_exits_one_with_its_path(workdir, command):
    with open(workdir / "toy_config.json", "ab") as stream:
        stream.write(b"\xe0")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert "config file toy_config.json is not valid UTF-8 text (unexpected end of data)" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (workdir / "out").exists()


def test_max_sentence_length_from_config(workdir):
    set_config_field(workdir, "rules", {"max_sentence_length": 3})
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    manifest = json.loads(read_out(workdir, "toy_manifest.json"))
    assert manifest["rules"]["max_sentence_length"] == 3
    assert manifest["sentences_processed"] == 0


def test_zero_max_sentence_length_is_a_config_error(workdir):
    set_config_field(workdir, "rules", {"max_sentence_length": 0})
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 1
    assert "bad extraction rules: max_sentence_length must be >= 1" in result.stderr
    assert not (workdir / "out").exists()


def test_zero_workers_is_a_usage_error(workdir):
    result = run_cli(workdir, "extract", "--config", "toy_config.json", "--workers", "0")
    assert result.returncode == 1
    assert result.stderr == "error: worker_count must be >= 1\n"


def test_empty_output_prefix_override_is_a_usage_error(workdir):
    result = run_cli(workdir, "extract", "--config", "toy_config.json", "--output-prefix", "")
    assert result.returncode == 1
    assert result.stderr == "error: output_prefix is required\n"
    assert not (workdir / "out").exists()


def test_a_failed_extract_removes_the_old_manifest(workdir):
    # the database is replaced before the TSV rename fails, so the old manifest no longer describes it
    assert run_cli(workdir, "run", "--config", "toy_config.json").returncode == 0
    (workdir / "out" / "toy_lexsets.tsv").unlink()
    (workdir / "out" / "toy_lexsets.tsv").mkdir()
    set_config_field(workdir, "rules", {"max_sentence_length": 6})
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 2
    assert "toy_lexsets.tsv" in result.stderr
    database = json.loads(read_out(workdir, "toy_lexsets.json"))
    assert sum(filler["count"] for entry in database for filler in entry["fillers"]) == 24
    assert not (workdir / "out" / "toy_manifest.json").exists()


NO_MANIFEST = ("error: out/toy_lexsets.json has no extract manifest out/toy_manifest.json: its extract did not"
               " finish or did not write it; run extract again, or read it with --database\n")


@pytest.mark.parametrize("state", ["manifest-deleted", "extract-failed", "old-manifest-put-back"])
def test_analyze_refuses_a_database_that_its_extract_manifest_does_not_count(workdir, state):
    assert run_cli(workdir, "run", "--config", "toy_config.json").returncode == 0
    message = NO_MANIFEST
    if state == "manifest-deleted":
        (workdir / "out" / "toy_manifest.json").unlink()
    else:  # the database left by test_a_failed_extract_removes_the_old_manifest, 24 filler records
        (workdir / "out" / "toy_lexsets.tsv").unlink()
        (workdir / "out" / "toy_lexsets.tsv").mkdir()
        set_config_field(workdir, "rules", {"max_sentence_length": 6})
        assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 2
        if state == "old-manifest-put-back":  # what the extract left before it removed its old manifest
            shutil.copy(GOLDEN_DIR / "toy_manifest.json", workdir / "out" / "toy_manifest.json")
            message = ("error: out/toy_manifest.json records 29 filler records, but out/toy_lexsets.json holds 24,"
                       " so they come from different runs; run extract again\n")
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert (result.returncode, result.stderr) == (2, message)
    assert read_out(workdir, "toy_analysis_manifest.json") == (GOLDEN_DIR / "toy_analysis_manifest.json").read_bytes()
    # a database named with --database is read without a manifest
    result = run_cli(workdir, "analyze", "--config", "toy_config.json", "--database", "out/toy_lexsets.json")
    assert result.returncode == 0, result.stderr


def test_a_failed_analyze_removes_the_old_analysis_manifest(workdir):
    assert run_cli(workdir, "run", "--config", "toy_config.json").returncode == 0
    (workdir / "out" / "toy_fig3.svg").unlink()
    (workdir / "out" / "toy_fig3.svg").mkdir()
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert "toy_fig3.svg" in result.stderr
    assert not (workdir / "out" / "toy_analysis_manifest.json").exists()
    assert read_out(workdir, "toy_manifest.json") == (GOLDEN_DIR / "toy_manifest.json").read_bytes()


@pytest.mark.parametrize("kept", [["chiudere", "aprire", "fermare", "affondare"], ["affondare"]],
                         ids=["one-verb-dropped", "no-verb-included"])
def test_a_second_run_leaves_no_figure_of_an_earlier_run(workdir, kept):
    assert run_cli(workdir, "run", "--config", "toy_config.json").returncode == 0
    others = ["toy_fig2_X.svg", "toy_notes.svg", "other_fig3.svg", "xtoy_fig3.svg"]  # no figure of this prefix
    for name in others:
        (workdir / "out" / name).write_text("kept")
    entries = [entry for entry in json.loads((workdir / "toy_inventory.json").read_text()) if entry["lemma"] in kept]
    for rank, entry in enumerate(entries, 1):
        entry["spontaneity_rank"] = rank
    (workdir / "toy_inventory.json").write_text(json.dumps(entries))
    fresh = workdir / "fresh"
    fresh.mkdir()
    for name in FIXTURES:
        shutil.copy(workdir / name, fresh / name)
    codes = [run_cli(directory, "run", "--config", "toy_config.json").returncode for directory in (workdir, fresh)]
    assert codes == ([0, 0] if len(kept) > 1 else [3, 3])
    written = sorted(path.name for path in (fresh / "out").iterdir())
    assert sorted(path.name for path in (workdir / "out").iterdir()) == sorted(written + others)
    for name in written:
        assert read_out(workdir, name) == (fresh / "out" / name).read_bytes(), name
    for name in others:
        assert read_out(workdir, name) == b"kept"


def test_a_failed_render_leaves_the_previous_run_whole(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert main(["run", "--config", "toy_config.json"]) == 0
    before = {path.name: path.read_bytes() for path in (workdir / "out").iterdir()}
    set_config_field(workdir, "verbose_geometry", True)  # so that the tables this analyze builds differ
    render_svg, calls = report.render_svg, []

    def fail_second(spec):
        calls.append(spec)
        if len(calls) == 2:
            raise PlotSpecError("cannot draw this figure")
        return render_svg(spec)

    monkeypatch.setattr(report, "render_svg", fail_second)
    assert main(["analyze", "--config", "toy_config.json"]) == 2
    assert capsys.readouterr().err == "error: cannot draw this figure\n"
    assert {path.name: path.read_bytes() for path in (workdir / "out").iterdir()} == before


def test_analysis_manifest_reports_large_distances(workdir):
    result = run_cli(workdir, "run", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    manifest = json.loads(read_out(workdir, "toy_analysis_manifest.json"))
    assert manifest["distances_above_one"] == 0


# --- config loading (in-process) ------------------------------------------------


def test_load_config_defaults(workdir):
    config = load_config(workdir / "toy_config.json")
    assert config.worker_count == 1
    assert config.rules.max_sentence_length == 15
    assert config.rules.object_relations == frozenset({"dobj"})


@pytest.mark.parametrize(
    "name,value",
    [
        ("strict_parsing", "false"),
        ("strict_parsing", 0),
        ("verbose_geometry", "yes"),
        ("worker_count", 1.7),
        ("worker_count", 2.0),
        ("worker_count", True),
        ("worker_count", "2"),
        ("corpus_paths", "toy.conllu"),
        ("corpus_paths", ["toy.conllu", 3]),
        ("rules", {"verb_pos_tags": "VERB"}),
        ("rules", {"subject_relations": ["nsubj", None]}),
        ("rules", {"max_sentence_length": True}),
        ("rules", {"max_sentence_length": 2.5}),
        ("rules", {"max_sentence_length": "9"}),
        ("rules", {"clitic_lemma": 5}),
        ("rules", {"clitic_lemma": "SI"}),
        ("rules", []),
        ("rules", "abc"),
        ("rules", None),
        ("vectors_path", 5),
        ("inventory_path", ["toy_inventory.json"]),
        ("output_prefix", None),
        ("reference_ranking_path", 5),
        ("reference_ranking_path", ""),
        ("corpus_paths", ["toy.conllu", "toy.conllu"]),
    ],
)
def test_load_config_rejects_mistyped_values(workdir, name, value):
    set_config_field(workdir, name, value)
    with pytest.raises(ConfigError, match=name):
        load_config(workdir / "toy_config.json")


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize(
    "rules,named",
    [
        ({"max_sentence_length": True}, "max_sentence_length must be an integer, got True"),
        ({"max_sentence_length": 2.5}, "max_sentence_length must be an integer, got 2.5"),
        ({"max_sentence_length": "9"}, "max_sentence_length must be an integer, got '9'"),
        ({"clitic_lemma": 5}, "clitic_lemma must be a lower-case string, got 5"),
        ({"clitic_lemma": "SI"}, "clitic_lemma must be a lower-case string, got 'SI'"),
        ([], "rules must be a JSON object, got []"),
        ("abc", "rules must be a JSON object, got 'abc'"),
        (None, "rules must be a JSON object, got None"),
    ],
    ids=["bool-length", "float-length", "string-length", "int-clitic", "upper-clitic", "list", "string", "null"],
)
def test_mistyped_rules_exit_one_naming_the_field(workdir, command, rules, named):
    set_config_field(workdir, "rules", rules)
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert f"error: bad extraction rules: {named}" in result.stderr
    assert not (workdir / "out").exists()


def test_load_config_requires_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"corpus_paths": ["x"]}))
    with pytest.raises(ConfigError):
        load_config(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
RULE_FIELDS = st.fixed_dictionaries({}, optional={f.name: JSON_VALUES for f in fields(ExtractionRules)})
CONFIG_FIELDS = st.fixed_dictionaries({}, optional={
    f.name: RULE_FIELDS | JSON_VALUES if f.name == "rules" else JSON_VALUES for f in fields(cli.RunConfig)
})
VALID_CONFIG = {"corpus_paths": ["toy.conllu"], "vectors_path": "toy_vectors.txt",
                "inventory_path": "toy_inventory.json", "output_prefix": "out/toy"}


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([{}, VALID_CONFIG]), data=CONFIG_FIELDS)
def test_load_config_returns_a_config_or_raises_a_config_error(tmp_path_factory, base, data):
    # load_config keeps no handler for errors RunConfig and from_dict do not raise
    path = tmp_path_factory.getbasetemp() / "drawn_config.json"
    path.write_text(json.dumps({**base, **data}), encoding="utf-8")
    try:
        config = load_config(path)
    except ConfigError:
        return
    assert isinstance(config, cli.RunConfig)


@settings(max_examples=300)
@given(data=RULE_FIELDS | JSON_VALUES)
def test_rules_from_json_raise_only_value_errors(data):
    try:
        rules = ExtractionRules.from_dict(data)
    except ValueError:
        return
    assert isinstance(rules, ExtractionRules)


def test_run_config_defaults_reach_the_required_field_checks():
    with pytest.raises(ConfigError, match="corpus_paths must list at least one file"):
        cli.RunConfig()
    with pytest.raises(ConfigError, match="vectors_path is required"):
        cli.RunConfig(corpus_paths=["toy.conllu"])


def test_main_in_process_usage_error():
    assert main(["extract"]) == 1
    assert main(["--help"]) == 0
