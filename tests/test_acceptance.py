"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion. Oracles here are deliberately independent of the library code
paths they check (stdlib statistics, explicit enumeration, brute-force
loops).
"""

import itertools
import json
import math
import shutil
import statistics
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lexsets.analysis import rank_values, spearman, t_approximation_pvalue, weighted_overlap
from lexsets.corpus import LexicalSet
from lexsets.embeddings import cosine_distance, cosine_similarity, load_text_vectors
from lexsets.geometry import compute_set_geometry, weighted_box_stats, weighted_quantile

from conftest import DATA_DIR, GOLDEN_DIR, run_cli, store_from_text

README = Path(__file__).parent.parent / "README.md"


def passed(name):
    print(f"\nACCEPTANCE {name}: PASS")


# --- criterion: published-rho p-value fixtures --------------------------------


def test_spearman_fixture_vs_published_values():
    p_main = t_approximation_pvalue(0.56391, 20)
    assert p_main < 0.01
    assert abs(p_main - 0.0097) <= 0.0005
    p_alternative = t_approximation_pvalue(0.42255, 20)
    assert 0.055 <= p_alternative <= 0.070
    passed("spearman fixture vs published rho values")


# --- criterion: spearman oracle ------------------------------------------------


def _enumerated_pvalue(x_vec, y_vec, slack=1e-12):
    observed = abs(statistics.correlation(x_vec, y_vec))
    extreme = sum(
        1
        for perm in itertools.permutations(y_vec)
        if abs(statistics.correlation(x_vec, list(perm))) >= observed - slack
    )
    return extreme / math.factorial(len(x_vec))


def test_spearman_oracle_1000_random_rank_pairs():
    rng = np.random.default_rng(2024)
    sizes = rng.choice([3, 4, 5, 6, 7], size=1000, p=[0.3, 0.3, 0.2, 0.1, 0.1])
    checked = 0
    for n in sizes:
        n = int(n)
        x = rank_values(list(enumerate(rng.integers(0, 4, size=n).tolist())))
        y = rank_values(list(enumerate(rng.integers(0, 4, size=n).tolist())))
        keys = sorted(x)
        x_vec = [x[k] for k in keys]
        y_vec = [y[k] for k in keys]
        if len(set(x_vec)) == 1 or len(set(y_vec)) == 1:
            continue
        result = spearman(x, y)
        assert result.method == "exact_permutation"
        assert abs(result.rho - statistics.correlation(x_vec, y_vec)) < 1e-12
        assert result.p_value == _enumerated_pvalue(x_vec, y_vec)
        checked += 1
    assert checked >= 900
    passed(f"spearman oracle on {checked} random tied rank pairs")


# --- criterion: centroid and quantile properties --------------------------------


def test_centroid_and_quantile_properties_1000_instances():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        n_fillers = int(rng.integers(1, 6))
        lemmas = [f"w{i}" for i in range(n_fillers)]
        vectors = rng.standard_normal((n_fillers, dim))
        counts = {lemma: int(c) for lemma, c in zip(lemmas, rng.integers(1, 101, size=n_fillers))}
        lines = [f"{len(lemmas)} {dim}"] + [
            lemma + " " + " ".join(repr(float(x)) for x in vec)
            for lemma, vec in zip(lemmas, vectors)
        ]
        store = store_from_text("\n".join(lines) + "\n")
        lex_set = LexicalSet("v", "S", counts)

        # weight replication: counts behave like repeated vectors
        geometry = compute_set_geometry(lex_set, store)
        replicated = np.vstack([[vec] * counts[lemma] for lemma, vec in zip(lemmas, vectors)])
        np.testing.assert_allclose(geometry.centroid, replicated.mean(axis=0), atol=1e-12)

        # count scaling: a common multiplier changes nothing
        multiplier = int(rng.integers(2, 9))
        scaled_set = LexicalSet("v", "S", {l: multiplier * c for l, c in counts.items()})
        scaled_geometry = compute_set_geometry(scaled_set, store)
        np.testing.assert_allclose(scaled_geometry.centroid, geometry.centroid, atol=1e-12)

        pairs = [(d, w) for _, d, w in geometry.filler_distances]
        scaled_pairs = [(d, w) for _, d, w in scaled_geometry.filler_distances]

        # quantile monotonicity plus scaling invariance of the quantiles
        qs = sorted(rng.uniform(0, 1, size=5))
        values = [weighted_quantile(pairs, q) for q in qs]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for q, value in zip(qs, values):
            assert abs(weighted_quantile(scaled_pairs, q) - value) <= 1e-12

        # box ordering invariant
        s = weighted_box_stats([d for d, _ in pairs], [w for _, w in pairs])
        assert (
            s.minimum <= s.whisker_low <= s.q1 <= s.median <= s.q3 <= s.whisker_high <= s.maximum
        )
    passed("centroid/quantile properties on 1000 randomized instances")


# --- criterion: cosine metric properties ------------------------------------------


def test_cosine_properties_10000_pairs():
    rng = np.random.default_rng(99)
    for i in range(10_000):
        dim = int(rng.integers(1, 12))
        u = rng.standard_normal(dim)
        if i % 10 == 0:
            v = u * (1.0 + 1e-15) + rng.standard_normal(dim) * 1e-16  # near-parallel
        else:
            v = rng.standard_normal(dim)
        if float(np.dot(u, u)) == 0.0 or float(np.dot(v, v)) == 0.0:
            continue
        similarity = cosine_similarity(u, v)
        distance = cosine_distance(u, v)
        assert -1.0 <= similarity <= 1.0
        assert 0.0 <= distance <= 2.0
        assert cosine_distance(v, u) == distance
        scale = float(rng.uniform(1e-3, 1e3))
        assert abs(cosine_distance(u, scale * v) - distance) <= 1e-9
    passed("cosine metric properties on 10000 random pairs")


# --- criterion: extraction golden test ----------------------------------------------


HAND_VERIFIED_DATABASE = {
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


@pytest.fixture
def workdir(tmp_path):
    for name in ["toy.conllu", "toy_vectors.txt", "toy_inventory.json", "toy_config.json"]:
        shutil.copy(DATA_DIR / name, tmp_path / name)
    return tmp_path


def test_extraction_golden_database(workdir):
    corpus_text = (workdir / "toy.conllu").read_text()
    # the corpus dedicates sentences to the exclusion rule and both
    # special subject treatments
    assert "uomo" in corpus_text and "nsubjpass" in corpus_text and "\tsi\t" in corpus_text
    result = run_cli(workdir, "extract", "--config", "toy_config.json")
    assert result.returncode == 0, result.stderr
    database = json.loads((workdir / "out" / "toy_lexsets.json").read_text())
    by_key = {
        (e["verb"], e["role"]): {f["lemma"]: f["count"] for f in e["fillers"]} for e in database
    }
    assert by_key == HAND_VERIFIED_DATABASE
    # transitive subjects stay out: "vento" and "uomo" drive dobj clauses
    assert "vento" not in by_key[("rompere", "S")]
    assert "uomo" not in by_key[("rompere", "S")]
    passed("extraction golden test on the hand-verified toy corpus")


def test_eight_field_crlf_corpus_gives_the_golden_extract(tmp_path):
    # toy.conllu's token lines have 10 fields, so parse_conll's fast path reads them; cut to the 8 required
    # fields and ended by CRLF, every line takes the checked path, which must give the same bytes
    data = tmp_path / "data"
    shutil.copytree(DATA_DIR, data)
    lines = (data / "toy.conllu").read_text(encoding="utf-8").splitlines()
    token_lines = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    assert len(token_lines) == 177 and all(lines[i].count("\t") == 9 for i in token_lines)
    for i in token_lines:
        lines[i] = "\t".join(lines[i].split("\t")[:8])
    (data / "toy.conllu").write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
    for workers in (1, 2):
        result = run_cli(data, "extract", "--config", "toy_config.json", "--workers", str(workers))
        assert result.returncode == 0, result.stderr
        for name in ["toy_lexsets.json", "toy_lexsets.tsv", "toy_manifest.json"]:
            assert (data / "out" / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), f"{name} (workers={workers})"
    passed("extraction golden bytes from an 8-field CRLF corpus at workers 1 and 2")


# --- criterion: end-to-end golden run -------------------------------------------------


GOLDEN_FILES = [
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


REFERENCE_GOLDEN_FILES = ["toy_analysis.csv", "toy_analysis.json", "toy_analysis_manifest.json"]


def _assert_golden_at_worker_counts(tmp_path, config, subdir, names):
    """Run ``config`` at workers 1, 4 and 8; each named file in ``out/<subdir>`` must equal its golden."""
    for workers in (1, 4, 8):
        rundir = tmp_path / f"workers{workers}"
        rundir.mkdir()
        for name in ["toy.conllu", "toy_vectors.txt", "toy_inventory.json", "toy_reference_ranking.json", config]:
            shutil.copy(DATA_DIR / name, rundir / name)
        result = run_cli(rundir, "run", "--config", config, "--workers", str(workers))
        assert result.returncode == 0, result.stderr
        for name in names:
            golden = (GOLDEN_DIR / subdir / name).read_bytes()
            assert (rundir / "out" / subdir / name).read_bytes() == golden, f"{name} (workers={workers})"


def test_end_to_end_golden_run_across_worker_counts(tmp_path):
    _assert_golden_at_worker_counts(tmp_path, "toy_config.json", "", GOLDEN_FILES)
    _verify_golden_numbers_by_brute_force(json.loads((GOLDEN_DIR / "toy_analysis.json").read_text()))
    passed("end-to-end golden run, byte-identical across workers 1/4/8")


def test_reference_ranking_golden_run_across_worker_counts(tmp_path):
    # the paper's configuration: a reference ranking over every inventory lemma, with one tie, and a
    # ranked verb (affondare) that the analysis excludes
    _assert_golden_at_worker_counts(tmp_path, "toy_reference_config.json", "reference", REFERENCE_GOLDEN_FILES)
    analysis = json.loads((GOLDEN_DIR / "reference" / "toy_analysis.json").read_text())
    reference = {e["lemma"]: e["rank"] for e in json.loads((DATA_DIR / "toy_reference_ranking.json").read_text())}
    rows = analysis["verbs"]
    included = [reference[row["verb"]] for row in rows]
    assert [item["verb"] for item in analysis["excluded"]] == ["affondare"]
    for row in rows:
        # re-ranked over the included verbs: the mean of the positions its value shares among theirs
        below = sum(value < reference[row["verb"]] for value in included)
        equal = included.count(reference[row["verb"]])
        assert row["reference_rank"] == below + (equal + 1) / 2
    reference_ranks = [row["reference_rank"] for row in rows]
    for name, column in (("distance_vs_reference", "distance_rank"), ("overlap_vs_reference", "overlap_rank")):
        ranks = [row[column] for row in rows]
        correlation = analysis["correlations"][name]
        assert correlation["method"] == "exact_permutation"
        assert abs(correlation["rho"] - statistics.correlation(ranks, reference_ranks)) < 5e-7
        assert abs(correlation["p_value"] - _enumerated_pvalue(ranks, reference_ranks)) < 5e-7
    passed("reference-ranking golden run, byte-identical across workers 1/4/8")


def _verify_golden_numbers_by_brute_force(analysis):
    """Recompute the committed analysis numbers from raw fixture data."""
    with open(DATA_DIR / "toy_vectors.txt", encoding="utf-8") as stream:
        store = load_text_vectors(stream)
    database = json.loads((GOLDEN_DIR / "toy_lexsets.json").read_text())
    sets = {
        (e["verb"], e["role"]): {f["lemma"]: f["count"] for f in e["fillers"]} for e in database
    }

    def token_expanded_vectors(counts):
        rows = []
        for lemma, count in counts.items():
            vec = store.lookup(lemma)
            if vec is not None:
                rows.extend([vec] * count)
        return np.array(rows)

    def brute_median(counts):
        expanded = token_expanded_vectors(counts)
        centroid = expanded.mean(axis=0)
        distances = sorted(
            1 - float(np.dot(v, centroid) / np.sqrt(np.dot(v, v) * np.dot(centroid, centroid)))
            for v in expanded
        )
        total = len(distances)
        cumulative = 0
        for value in distances:
            cumulative += 1
            if cumulative >= 0.5 * total:
                return value
        return distances[-1]

    for row in analysis["verbs"]:
        verb = row["verb"]
        s_counts, o_counts = sets[(verb, "S")], sets[(verb, "O")]
        assert abs(row["s_median"] - brute_median(s_counts)) < 5e-7
        assert abs(row["o_median"] - brute_median(o_counts)) < 5e-7
        s_centroid = token_expanded_vectors(s_counts).mean(axis=0)
        o_centroid = token_expanded_vectors(o_counts).mean(axis=0)
        expected_distance = 1 - float(
            np.dot(s_centroid, o_centroid)
            / np.sqrt(np.dot(s_centroid, s_centroid) * np.dot(o_centroid, o_centroid))
        )
        assert abs(row["centroid_distance"] - expected_distance) < 5e-7
        intersection = Counter(s_counts) & Counter(o_counts)
        union = Counter(s_counts) | Counter(o_counts)
        assert abs(row["weighted_overlap"] - sum(intersection.values()) / sum(union.values())) < 5e-7


# --- criterion: weighted-overlap oracle ---------------------------------------------


def test_weighted_overlap_oracle_1000_pairs():
    rng = np.random.default_rng(61)
    lemmas = [f"w{i}" for i in range(10)]
    checked = 0
    for _ in range(1000):
        s_counts = {l: int(c) for l, c in zip(lemmas, rng.integers(0, 7, size=10)) if c > 0}
        o_counts = {l: int(c) for l, c in zip(lemmas, rng.integers(0, 7, size=10)) if c > 0}
        if not s_counts and not o_counts:
            continue
        intersection = Counter(s_counts) & Counter(o_counts)
        union = Counter(s_counts) | Counter(o_counts)
        expected = sum(intersection.values()) / sum(union.values())
        actual = weighted_overlap(LexicalSet("v", "S", s_counts), LexicalSet("v", "O", o_counts))
        assert actual == expected
        checked += 1
    assert checked >= 990
    passed(f"weighted-overlap oracle on {checked} random multiset pairs")


# --- criterion: documented non-reproduction -------------------------------------------


def test_readme_documents_unreproducible_published_values():
    text = README.read_text(encoding="utf-8")
    for value in ("0.696567", "0.585263", "0.556878", "0.522418", "0.56391", "0.42255"):
        assert value in text, f"README must record the published value {value}"
    assert "lexsets run" in text, "README must show the reproduction command line"
    passed("README documents the published targets and reproduction command")
