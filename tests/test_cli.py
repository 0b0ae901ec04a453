import json
import os
import shutil
from pathlib import Path

import pytest

from lexsets import cli
from lexsets.cli import load_config, main
from lexsets.errors import ConfigError

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
    result = run_cli(workdir, "extract", "--config", "toy_config.json", "--strict")
    assert result.returncode == 2
    assert "line" in result.stderr


def _corpus_with_bad_line_late(workdir, sentences=40):
    """Point the config at a corpus of clean sentences whose last one has a malformed head; return its line."""
    block = "1\tLuca\tLuca\tPROPN\t_\t_\t2\tnsubj\t_\t_\n2\tapre\taprire\tVERB\t_\t_\t0\troot\t_\t_\n\n"
    bad = "1\tLuca\tLuca\tPROPN\t_\t_\tx\tnsubj\t_\t_\n"
    (workdir / "late.conllu").write_text(block * sentences + bad + "\n", encoding="utf-8")
    config = json.loads((workdir / "toy_config.json").read_text())
    config["corpus_paths"] = ["late.conllu"]
    (workdir / "toy_config.json").write_text(json.dumps(config))
    return 3 * sentences + 1


def test_strict_error_names_file_and_line_at_every_worker_count(workdir):
    line = _corpus_with_bad_line_late(workdir)
    messages = []
    for workers in ("1", "2"):
        result = run_cli(workdir, "extract", "--config", "toy_config.json", "--strict", "--workers", workers)
        assert result.returncode == 2
        messages.append(result.stderr)
    assert messages[0] == messages[1]
    assert messages[0] == f"error: late.conllu: line {line}: non-numeric index/head ('1', 'x')\n"


def test_undecodable_corpus_exits_two_with_path(workdir):
    (workdir / "toy.conllu").write_bytes(b"1\tcitt\xe0\tcitt\xe0\tNOUN\t_\t_\t0\troot\t_\t_\n")
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy.conllu: not valid UTF-8")


def _die(*args):
    os._exit(1)


def test_dead_worker_exits_two_with_path(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "_extract_shard", _die)
    assert main(["extract", "--config", "toy_config.json", "--workers", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: toy.conllu: a worker process stopped")


def test_spawned_workers_match_goldens(workdir):
    code = (
        "import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["extract", "--config", "toy_config.json", "--workers", "8"]) == 0
    assert [(pool.max_workers, pool.shards > 2) for pool in pools] == [(2, True)]
    for name in EXTRACT_FILES:
        assert read_out(workdir, name) == (GOLDEN_DIR / name).read_bytes(), name


def test_failed_write_leaves_no_database(workdir, monkeypatch, capsys):
    def write_half(sets, stream):
        stream.write("[\n  {")
        raise OSError("disk full")

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "write_database", write_half)
    assert main(["extract", "--config", "toy_config.json"]) == 2
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in (workdir / "out").iterdir()) == []


def test_extract_does_not_import_scipy(workdir):
    result = run_python(workdir, "-c", "import lexsets.cli, sys; assert 'scipy' not in sys.modules")
    assert result.returncode == 0, result.stderr


def test_analyze_does_not_import_scipy_stats(workdir):
    code = (
        "import sys; from lexsets.cli import main; from lexsets.analysis import t_approximation_pvalue; "
        "assert main(['run', '--config', 'toy_config.json']) == 0; "
        "assert 0 < t_approximation_pvalue(0.5, 20) < 1; "
        "assert 'scipy.stats' not in sys.modules"
    )
    result = run_python(workdir, "-c", code)
    assert result.returncode == 0, result.stderr


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


def test_malformed_vector_row_names_file_and_line(workdir):
    with open(workdir / "toy_vectors.txt", "a", encoding="utf-8") as stream:
        stream.write("citta 0.1 zero\n")
    assert run_cli(workdir, "extract", "--config", "toy_config.json").returncode == 0
    result = run_cli(workdir, "analyze", "--config", "toy_config.json")
    assert result.returncode == 2
    assert result.stderr.startswith("error: toy_vectors.txt: line 19: non-numeric vector component")


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
         "filler 'ramo' of verb 'rompere' needs a string lemma and an integer count, got count 'abc'"),
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
    config["vectors_path"] = "gone.txt"
    (workdir / "toy_config.json").write_text(json.dumps(config))
    result = run_cli(workdir, "validate-config", "--config", "toy_config.json")
    assert result.returncode == 2
    assert "gone.txt" in result.stderr


def set_config_field(workdir, name, value):
    config = json.loads((workdir / "toy_config.json").read_text())
    config[name] = value
    (workdir / "toy_config.json").write_text(json.dumps(config))


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_bad_rank_direction_exits_one_before_any_work(workdir, command):
    set_config_field(workdir, "distance_rank_direction", "up")
    result = run_cli(workdir, command, "--config", "toy_config.json")
    assert result.returncode == 1
    assert "distance_rank_direction must be 'ascending' or 'descending', got 'up'" in result.stderr
    assert not (workdir / "out").exists()


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


def test_max_sentence_length_override(workdir):
    result = run_cli(
        workdir, "extract", "--config", "toy_config.json", "--max-sentence-length", "3"
    )
    assert result.returncode == 0, result.stderr
    manifest = json.loads(read_out(workdir, "toy_manifest.json"))
    assert manifest["rules"]["max_sentence_length"] == 3
    assert manifest["sentences_processed"] == 0


def test_zero_max_sentence_length_is_a_usage_error(workdir):
    result = run_cli(workdir, "extract", "--config", "toy_config.json", "--max-sentence-length", "0")
    assert result.returncode == 1
    assert "bad --max-sentence-length: max_sentence_length must be >= 1" in result.stderr
    assert not (workdir / "out").exists()


def test_zero_workers_is_a_usage_error(workdir):
    result = run_cli(workdir, "extract", "--config", "toy_config.json", "--workers", "0")
    assert result.returncode == 1
    assert "--workers must be >= 1" in result.stderr


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
    assert config.distance_rank_direction == "ascending"


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
        ("distance_rank_direction", "up"),
        ("overlap_rank_direction", "Descending"),
        ("corpus_paths", "toy.conllu"),
        ("corpus_paths", ["toy.conllu", 3]),
        ("rules", {"verb_pos_tags": "VERB"}),
        ("rules", {"subject_relations": ["nsubj", None]}),
        ("vectors_path", 5),
        ("inventory_path", ["toy_inventory.json"]),
        ("output_prefix", None),
        ("reference_ranking_path", 5),
    ],
)
def test_load_config_rejects_mistyped_values(workdir, name, value):
    set_config_field(workdir, name, value)
    with pytest.raises(ConfigError, match=name):
        load_config(workdir / "toy_config.json")


def test_load_config_requires_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"corpus_paths": ["x"]}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_run_config_defaults_reach_the_required_field_checks():
    with pytest.raises(ConfigError, match="corpus_paths must list at least one file"):
        cli.RunConfig()
    with pytest.raises(ConfigError, match="vectors_path is required"):
        cli.RunConfig(corpus_paths=["toy.conllu"])


def test_main_in_process_usage_error():
    assert main(["extract"]) == 1
    assert main(["--help"]) == 0
