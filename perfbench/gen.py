"""Seeded benchmark inputs for lexsets, with the truth planted in them.

``generate(workload, seed, directory)`` writes the program's inputs
(``corpus.conllu``, ``inventory.json``, ``vectors.txt``, ``config.json``)
and ``truth.json``: the filler counts and parse statistics the corpus was
built to hold, and the analysis and geometry documents computed here with
plain numpy/scipy from the planted counts and vectors. Nothing in this
file imports lexsets, so the checks compare the program against an
independent computation, never against a saved copy of its own output.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

# The bundled 20-verb spontaneity scale (gloss, Italian lemma), rank order.
VERBS = (
    ("close", "chiudere"), ("open", "aprire"), ("improve", "migliorare"), ("break", "rompere"),
    ("fill", "riempire"), ("gather", "radunare"), ("connect", "collegare"), ("split", "dividere"),
    ("stop", "fermare"), ("go out", "spegnere"), ("rise", "alzare"), ("rock", "dondolare"),
    ("burn", "bruciare"), ("freeze", "gelare"), ("turn", "girare"), ("dry", "asciugare"),
    ("wake", "svegliare"), ("melt", "sciogliere"), ("boil", "bollire"), ("sink", "affondare"),
)
OTHER_VERBS = ("essere", "avere", "fare", "dire", "vedere", "dare", "sapere", "volere", "trovare")
DIM = 300
MAX_SENTENCE_LENGTH = 100
NOISE_UPOS = ("NOUN", "ADJ", "ADV", "DET", "ADP", "PUNCT", "CCONJ", "PRON", "NUM")
NOISE_DEPRELS = ("det", "amod", "advmod", "punct", "case", "nmod", "obl", "cc", "mark", "dep")
RULES = {
    "object_relations": ["dobj"],
    "passive_subject_relations": ["nsubjpass"],
    "subject_relations": ["nsubj"],
    "clitic_lemma": "si",
    "max_sentence_length": MAX_SENTENCE_LENGTH,
    "verb_pos_tags": ["VERB"],
}
EXACT_MAX_N = 10


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's inputs; every size is fixed, only the content follows the seed."""

    verbs: int               # inventory size: 20 gives Spearman's t path, 10 the exact path
    sentences: int           # sentence blocks written, malformed ones included
    target_share: float      # share of sentences that carry target-verb clauses
    clauses: tuple           # (min, max) target clauses in such a sentence
    length: tuple            # (mean, sd) of sentence length in tokens
    filler_vocab: int        # distinct filler lemmas
    zipf: float              # exponent of the per-(verb, role) filler distribution
    oov_share: float         # share of the filler vocabulary left out of the vectors
    distractor_rows: int     # vector rows for words that never fill a slot
    noisy: bool              # comments, ranges, malformed blocks, CRLF, no final blank line


# Every ratio below is an assumption of this benchmark, chosen to put most of
# one layer's work on one workload. None is measured on ItWac: the repository
# holds no corpus statistics beyond the paper's 2,029,454 sentences and 300-d
# vectors. README.md ("Assumptions") says which conclusions rest on which.
WORKLOADS = {
    "itwac-sparse": Workload(
        verbs=20,                  # the bundled inventory, so Spearman takes the t path
        sentences=20_000,          # sized so that extract runs for seconds, clear of start-up
        target_share=0.08,         # assumed; few target clauses make parsing most of extract
        clauses=(1, 1),            # assumed
        length=(24.0, 11.0),       # assumed; loads the parser per sentence
        filler_vocab=2_500,        # assumed
        zipf=1.0,                  # assumed
        oov_share=0.03,            # assumed; exercises the OOV path of the geometry
        distractor_rows=2_500,     # about 20% of vector rows looked up, as in ROADMAP's baseline (20k of 100k)
        noisy=True,                # at the assumed NOISE rates below
    ),
    "dense-sets": Workload(
        verbs=10,                  # 10 of the 20, so Spearman takes the exact n! path
        sentences=15_000,          # sized so that extract runs for seconds, clear of start-up
        target_share=1.0,          # assumed; makes filler extraction and set building a real share
        clauses=(3, 5),            # assumed, as above
        length=(22.0, 4.0),        # assumed
        filler_vocab=7_000,        # assumed; large sets load geometry and database I/O
        zipf=0.35,                 # assumed; a flat law makes most fillers distinct types
        oov_share=0.0,
        distractor_rows=0,         # the vectors cover exactly the fillers: loading is not the bottleneck here
        noisy=False,
    ),
}
# Assumed rates of a noisy corpus. They exercise the parser's skip and count
# paths; the checks need their exact tallies, not these rates.
NOISE = {
    "overlength": 0.015,           # sentence blocks over the length cap
    "malformed": 0.025,            # blocks with 1-2 malformed token lines
    "badtree": 0.01,               # blocks with a head out of range
    "crlf": 0.3,                   # blocks with CRLF line ends
    "blank_with_spaces": 0.01,     # blocks ended by a whitespace-only separator
    "sent_id": 0.5,                # blocks with a "# sent_id" comment
    "text": 0.2,                   # blocks with a "# text" comment
    "range": 0.1,                  # blocks (over 4 tokens) with a multiword range line
}


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """Distinct pseudo-Italian lowercase words, none in ``taken``."""
    onsets = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "tr", "st", "ch", "gr", "pr")
    vowels = ("a", "e", "i", "o", "u")
    out: list[str] = []
    seen = set(taken)
    while len(out) < count:
        word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


class _Sampler:
    """Draws filler lemmas for one (verb, role) slot from a Zipf law over a private order."""

    def __init__(self, rng: random.Random, vocab: list[str], exponent: float):
        self.order = vocab[:]
        rng.shuffle(self.order)
        weights = [1.0 / (rank ** exponent) for rank in range(1, len(vocab) + 1)]
        total = 0.0
        self.cumulative = []
        for weight in weights:
            total += weight
            self.cumulative.append(total)

    def draw(self, rng: random.Random) -> str:
        return rng.choices(self.order, cum_weights=self.cumulative)[0]


class _Corpus:
    """Builds sentence blocks and tallies exactly what the parser must report."""

    def __init__(self, workload: Workload, rng: random.Random, verbs: list[str], vocab: list[str],
                 noise_words: list[str]):
        self.rng = rng
        self.verbs = verbs
        self.noise_words = noise_words
        self.samplers = {(v, role): _Sampler(rng, vocab, workload.zipf) for v in verbs for role in ("S", "O")}
        self.counts: Counter = Counter()
        self.stats = Counter()
        self.tokens_written = 0

    # -- clause builders: (tokens, planted records); heads are clause-local, None = clause root
    def _filler(self, verb: str, role: str) -> tuple[str, str]:
        lemma = self.samplers[(verb, role)].draw(self.rng)
        if self.rng.random() < 0.1:
            return lemma.capitalize(), lemma  # written capitalised, extracted lower-cased
        return lemma, lemma

    def _clause(self, verb: str, kind: str):
        rng = self.rng
        shown_verb = verb.capitalize() if rng.random() < 0.05 else verb
        det = ("il", "DET", 1, "det")
        if kind == "transitive":  # subject of a transitive use must not count
            subj, _ = self._filler(verb, "S")
            obj, obj_key = self._filler(verb, "O")
            toks = [det, (subj, "NOUN", 2, "nsubj"), (shown_verb, "VERB", None, "root"),
                    ("il", "DET", 4, "det"), (obj, "NOUN", 2, "dobj")]
            return toks, [(verb, "O", obj_key)]
        if kind == "intransitive":
            subj, subj_key = self._filler(verb, "S")
            return [det, (subj, "NOUN", 2, "nsubj"), (shown_verb, "VERB", None, "root")], [(verb, "S", subj_key)]
        if kind == "clitic":  # "si" overrides the object test: both fillers count
            subj, subj_key = self._filler(verb, "S")
            obj, obj_key = self._filler(verb, "O")
            clitic = "Si" if rng.random() < 0.2 else "si"
            toks = [(subj, "NOUN", 2, "nsubj"), (clitic, "PRON", 2, "expl"), (shown_verb, "VERB", None, "root"),
                    (obj, "NOUN", 2, "dobj")]
            return toks, [(verb, "S", subj_key), (verb, "O", obj_key)]
        if kind == "anticausative":
            subj, subj_key = self._filler(verb, "S")
            toks = [det, (subj, "NOUN", 3, "nsubj"), ("si", "PRON", 3, "expl"), (shown_verb, "VERB", None, "root")]
            return toks, [(verb, "S", subj_key)]
        if kind == "passive":  # passive subject counts as an object
            subj, subj_key = self._filler(verb, "O")
            toks = [det, (subj, "NOUN", 3, "nsubjpass"), ("essere", "AUX", 3, "auxpass"),
                    (shown_verb, "VERB", None, "root")]
            return toks, [(verb, "O", subj_key)]
        # a target lemma tagged as a noun: nothing counts
        subj, _ = self._filler(verb, "S")
        return [(subj, "NOUN", 1, "nsubj"), (shown_verb, "NOUN", None, "root")], []

    _KINDS = ("transitive", "intransitive", "clitic", "anticausative", "passive", "noun")
    _KIND_WEIGHTS = (0.34, 0.22, 0.1, 0.14, 0.16, 0.04)  # assumed mix; every rule of extraction is met often

    def _other_clause(self):
        subj = self.rng.choice(self.noise_words)
        obj = self.rng.choice(self.noise_words)
        verb = self.rng.choice(OTHER_VERBS)
        return [(subj, "NOUN", 1, "nsubj"), (verb, "VERB", None, "root"), (obj, "NOUN", 1, "dobj")], []

    def sentence(self, clauses: list, length: int) -> tuple[list[tuple], list]:
        """Token rows (lemma, upos, head, deprel) with 1-based heads, and planted records."""
        rng = self.rng
        rows: list[list] = []
        planted: list = []
        root = None
        for toks, records in clauses:
            base = len(rows)
            for lemma, upos, head, deprel in toks:
                if head is None:
                    if root is None:
                        root = len(rows) + 1
                        rows.append([lemma, upos, 0, "root"])
                    else:
                        rows.append([lemma, upos, root, "conj"])
                else:
                    rows.append([lemma, upos, base + head + 1, deprel])
            planted.extend(records)
        if root is None:
            toks, _ = self._other_clause()
            root = 2
            for lemma, upos, head, deprel in toks:
                rows.append([lemma, upos, 0 if head is None else head + 1, "root" if head is None else deprel])
        noise_words = self.noise_words
        while len(rows) < length:
            rows.append([rng.choice(noise_words), rng.choice(NOISE_UPOS), rng.randint(1, len(rows)),
                         rng.choice(NOISE_DEPRELS)])
        return rows, planted

    def target_clauses(self, count: int, forced: list | None = None) -> list:
        out = []
        for i in range(count):
            if forced is not None and i < len(forced):
                verb, kind = forced[i]
            else:
                verb = self.rng.choice(self.verbs)
                kind = self.rng.choices(self._KINDS, weights=self._KIND_WEIGHTS)[0]
            out.append(self._clause(verb, kind))
        return out


def _sync(stream) -> None:
    """Put a written input on disk now, so that its write-back does not run during a timed stage."""
    stream.flush()
    os.fsync(stream.fileno())


def _token_line(index: int, row: list) -> str:
    lemma, upos, head, deprel = row
    return f"{index}\t{lemma}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


def _write_corpus(workload: Workload, corpus: _Corpus, path: Path) -> None:
    """Write every sentence block; update the planted counts and parse statistics."""
    rng = corpus.rng
    stats = corpus.stats
    w = workload
    # Every verb gets one clean intransitive and one clean transitive clause up front,
    # so each has an S and an O set and the Spearman n is the inventory size.
    forced = [[(v, "intransitive"), (v, "transitive")] for v in corpus.verbs]
    with open(path, "w", encoding="utf-8", newline="") as stream:
        buffer: list[str] = []
        for number in range(w.sentences):
            if number < len(forced):
                clauses = corpus.target_clauses(2, forced[number])
                fate = "clean"
            else:
                if rng.random() < w.target_share:
                    clauses = corpus.target_clauses(rng.randint(*w.clauses))
                else:
                    clauses = []
                fate = "clean"
                if w.noisy:
                    roll = rng.random()
                    if roll < NOISE["overlength"]:
                        fate = "overlength"
                    elif roll < NOISE["overlength"] + NOISE["malformed"]:
                        fate = "malformed"
                    elif roll < NOISE["overlength"] + NOISE["malformed"] + NOISE["badtree"]:
                        fate = "badtree"
            if fate == "overlength":
                length = rng.randint(MAX_SENTENCE_LENGTH, MAX_SENTENCE_LENGTH + 40)
            else:
                mean, sd = w.length
                length = max(3, min(MAX_SENTENCE_LENGTH - 1, int(rng.gauss(mean, sd))))
            rows, planted = corpus.sentence(clauses, length)
            lines = _block(w, corpus, number, rows, fate)
            eol = "\r\n" if w.noisy and rng.random() < NOISE["crlf"] else "\n"
            last = number == w.sentences - 1
            if last and w.noisy:
                buffer.append(eol.join(lines))  # no final newline, no final blank line
            else:
                spaced = w.noisy and rng.random() < NOISE["blank_with_spaces"]
                buffer.append(eol.join(lines) + eol + ("  " + eol if spaced else eol))
            corpus.tokens_written += len(rows)
            if fate == "clean":
                stats["sentences_parsed"] += 1
                corpus.counts.update(planted)
            elif fate == "overlength":
                stats["sentences_parsed"] += 1
                stats["sentences_filtered_by_length"] += 1
            else:
                stats["sentences_skipped"] += 1
            if len(buffer) >= 2048:
                stream.write("".join(buffer))
                buffer = []
        stream.write("".join(buffer))
        _sync(stream)
    stats["sentences_processed"] = stats["sentences_parsed"] - stats["sentences_filtered_by_length"]


def _block(w: Workload, corpus: _Corpus, number: int, rows: list, fate: str) -> list[str]:
    rng = corpus.rng
    stats = corpus.stats
    lines: list[str] = []
    if w.noisy:
        if rng.random() < NOISE["sent_id"]:
            lines.append(f"# sent_id = s{number}")
            stats["comment_lines"] += 1
        if rng.random() < NOISE["text"]:
            lines.append("# text = " + " ".join(r[0] for r in rows[:8]))
            stats["comment_lines"] += 1
    body = [_token_line(i, row) for i, row in enumerate(rows, start=1)]
    if fate == "malformed":
        for i in rng.sample(range(len(body)), rng.choice((1, 1, 2))):
            fields = body[i].split("\t")
            defect = rng.randrange(3)
            if defect == 0:
                fields[6] = "x"          # non-numeric head
            elif defect == 1:
                fields = fields[:5]      # too few fields
            else:
                fields[2] = ""           # empty lemma
            body[i] = "\t".join(fields)
            stats["malformed_lines"] += 1
    elif fate == "badtree":
        i = rng.randrange(len(body))
        fields = body[i].split("\t")
        fields[6] = str(len(rows) + rng.randint(1, 5))  # head out of range
        body[i] = "\t".join(fields)
    if w.noisy and len(body) > 4 and rng.random() < NOISE["range"]:
        at = rng.randrange(1, len(body) - 1)
        body.insert(at, f"{at + 1}-{at + 2}\t{rows[at][0]}{rows[at + 1][0]}\t_\t_\t_\t_\t_\t_\t_\t_")
        stats["range_lines_skipped"] += 1
    return lines + body


# ---------------------------------------------------------------- vectors

_CELLS = np.array([f"{code / 1000:7.3f}".encode() for code in range(-999, 1000)], dtype="S7")


def _vector_codes(rng: np.random.Generator, rows: int, centers: np.ndarray) -> np.ndarray:
    """Integer thousandths in [-999, 999]; value = code / 1000, exactly as the file prints it."""
    cluster = rng.integers(0, len(centers), size=rows)
    values = 0.45 * centers[cluster] + 0.22 * rng.standard_normal((rows, DIM), dtype=np.float32)
    return np.clip(np.rint(values * 1000), -999, 999).astype(np.int16)


def _write_vectors(path: Path, words: list[str], codes: np.ndarray) -> None:
    with open(path, "wb") as stream:
        stream.write(f"{len(words)} {DIM}\n".encode())
        for start in range(0, len(words), 4096):
            block = codes[start:start + 4096]
            cells = _CELLS[block.astype(np.int32) + 999]  # 7-byte " -0.123" cells
            flat = cells.view(np.uint8).reshape(len(block), DIM * 7)
            stream.write(b"".join(w.encode() + row.tobytes() + b"\n"
                                  for w, row in zip(words[start:start + 4096], flat)))
        _sync(stream)


# ---------------------------------------------------------------- expected analysis

def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    idx = int(np.searchsorted(cumulative, q * cumulative[-1], side="left"))
    return float(values[order][min(idx, len(values) - 1)])


def _geometry(counts: dict[str, int], vectors: dict[str, np.ndarray]):
    known = sorted(lemma for lemma in counts if lemma in vectors)
    oov = [lemma for lemma in counts if lemma not in vectors]
    if not known:
        return None
    matrix = np.stack([vectors[lemma] for lemma in known])
    weights = np.array([counts[lemma] for lemma in known], dtype=np.int64)
    centroid = weights.astype(np.float64) @ matrix / weights.sum()
    cosine = matrix @ centroid / np.sqrt(np.einsum("ij,ij->i", matrix, matrix) * (centroid @ centroid))
    distances = 1.0 - np.clip(cosine, -1.0, 1.0)
    q1, median, q3 = (_weighted_quantile(distances, weights, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    inside = (distances >= q1 - 1.5 * iqr) & (distances <= q3 + 1.5 * iqr)
    box = {
        "covered_tokens": int(weights.sum()),
        "oov_tokens": int(sum(counts[lemma] for lemma in oov)),
        "oov_types": len(oov),
        "minimum": float(distances.min()), "q1": q1, "median": median, "q3": q3,
        "maximum": float(distances.max()),
        "whisker_low": float(distances[inside].min()), "whisker_high": float(distances[inside].max()),
        "outlier_count": int(weights[~inside].sum()),
    }
    return centroid, box


def _ranks(values: list[float], direction: str) -> list[float]:
    arr = np.asarray(values, dtype=np.float64)
    return [float(r) for r in scipy_stats.rankdata(arr if direction == "ascending" else -arr)]


def _permutations(n: int) -> np.ndarray:
    """All n! orderings of range(n), one per row."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):
        perms = np.concatenate([np.insert(perms, j, k, axis=1) for j in range(k + 1)])
    return perms


def _exact_p(x: list[float], y: list[float], perms: np.ndarray) -> float:
    """Two-sided permutation p of Spearman's rho by counting all n! reorderings of y.

    Ranks are halves at worst, so doubled ranks are integers and
    |rho_pi| >= |rho_obs| is tested exactly as |n*T_pi - Sx*Sy| >= |n*T_obs - Sx*Sy|
    with T = sum x_i * y_pi(i).
    """
    n = len(x)
    xs = np.rint(np.asarray(x) * 2).astype(np.int64)
    ys = np.rint(np.asarray(y) * 2).astype(np.int64)
    offset = int(xs.sum()) * int(ys.sum())
    observed = abs(n * int(xs @ ys) - offset)
    totals = np.zeros(len(perms), dtype=np.int64)
    for i in range(n):
        totals += xs[i] * ys[perms[:, i]]
    extreme = int(np.count_nonzero(np.abs(n * totals - offset) >= observed))
    return extreme / math.factorial(n)


def _tie_count(values: list[float]) -> int:
    return sum(size for size in Counter(values).values() if size > 1)


def _correlation(x: list[float], y: list[float], perms: np.ndarray | None) -> dict:
    n = len(x)
    xc = np.asarray(x) - np.mean(x)
    yc = np.asarray(y) - np.mean(y)
    rho = float(np.clip(xc @ yc / math.sqrt((xc @ xc) * (yc @ yc)), -1.0, 1.0))
    if n <= EXACT_MAX_N:
        p, method = _exact_p(x, y, perms), "exact_permutation"
    elif abs(rho) >= 1.0:
        p, method = 0.0, "t_approximation"
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p, method = min(1.0, 2.0 * float(scipy_stats.t.sf(abs(t), n - 2))), "t_approximation"
    return {"rho": rho, "p_value": p, "n": n, "x_ties": _tie_count(x), "y_ties": _tie_count(y), "method": method}


def expected_analysis(sets: dict, vectors: dict[str, np.ndarray], inventory: list[dict]) -> tuple[dict, list]:
    """The ``_analysis.json`` document and ``_geometry.json`` rows, unrounded."""
    included = []
    excluded = []
    geometry_rows = {}
    for entry in sorted(inventory, key=lambda e: e["spontaneity_rank"]):
        verb = entry["lemma"]
        per_role = {}
        reason = None
        for role in ("S", "O"):
            counts = sets.get((verb, role))
            if not counts:
                reason = f"no {role} fillers extracted"
                break
            geometry = _geometry(counts, vectors)
            if geometry is None:
                reason = f"no covered fillers ({role})"
                break
            per_role[role] = geometry
        if reason is not None:
            excluded.append({"verb": verb, "reason": reason})
            continue
        (s_centroid, s_box), (o_centroid, o_box) = per_role["S"], per_role["O"]
        s_counts, o_counts = sets[(verb, "S")], sets[(verb, "O")]
        lemmas = set(s_counts) | set(o_counts)
        overlap = (sum(min(s_counts.get(k, 0), o_counts.get(k, 0)) for k in lemmas)
                   / sum(max(s_counts.get(k, 0), o_counts.get(k, 0)) for k in lemmas))
        cosine = s_centroid @ o_centroid / math.sqrt((s_centroid @ s_centroid) * (o_centroid @ o_centroid))
        included.append({
            "verb": verb, "gloss": entry["gloss"], "spontaneity_rank": entry["spontaneity_rank"],
            "s_median": s_box["median"], "o_median": o_box["median"],
            "centroid_distance": 1.0 - max(-1.0, min(1.0, float(cosine))), "weighted_overlap": overlap,
        })
        for role, box in (("S", s_box), ("O", o_box)):
            geometry_rows[(verb, role)] = {"verb": verb, "role": role, **box}
    for position, row in enumerate(included, start=1):
        row["reference_rank"] = float(position)  # ranks renumbered over the verbs kept
    distance_ranks = _ranks([r["centroid_distance"] for r in included], "ascending")
    overlap_ranks = _ranks([r["weighted_overlap"] for r in included], "descending")
    for row, d_rank, o_rank in zip(included, distance_ranks, overlap_ranks):
        row["distance_rank"] = d_rank
        row["overlap_rank"] = o_rank
    reference = [r["reference_rank"] for r in included]
    half = len(included) // 2
    perms = _permutations(len(included)) if len(included) <= EXACT_MAX_N else None

    def split(key: str) -> dict:
        values = [r[key] for r in included]
        return {"low_half_avg": sum(values[:half]) / half, "high_half_avg": sum(values[half:]) / (len(values) - half)}

    columns = ("verb", "gloss", "spontaneity_rank", "s_median", "o_median", "centroid_distance",
               "weighted_overlap", "reference_rank", "distance_rank", "overlap_rank")
    document = {
        "verbs": [{c: row[c] for c in columns} for row in included],
        "excluded": excluded,
        "correlations": {
            "distance_vs_reference": _correlation(distance_ranks, reference, perms),
            "overlap_vs_reference": _correlation(overlap_ranks, reference, perms),
        },
        "split_half_medians": {"S": split("s_median"), "O": split("o_median")},
        "notes": [],
    }
    rows = [geometry_rows[key] for key in sorted(geometry_rows, key=lambda k: (k[0], k[1] != "S"))]
    return document, rows


# ---------------------------------------------------------------- entry point

def generate(name: str, seed: int, directory: Path) -> dict:
    """Write one workload's inputs and ``truth.json`` into ``directory``; return the truth."""
    workload = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    nrng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])

    verbs_entries = list(VERBS)
    if workload.verbs < len(VERBS):
        verbs_entries = rng.sample(verbs_entries, workload.verbs)
    ranks = list(range(1, workload.verbs + 1))
    rng.shuffle(ranks)
    inventory = [{"gloss": g, "lemma": lemma, "spontaneity_rank": r} for (g, lemma), r in zip(verbs_entries, ranks)]
    verbs = [e["lemma"] for e in inventory]

    reserved = {lemma for _, lemma in VERBS} | set(OTHER_VERBS) | {"si", "il", "essere"}
    words = _words(rng, workload.filler_vocab + 3_000 + workload.distractor_rows, reserved)
    vocab = words[: workload.filler_vocab]
    noise_words = words[workload.filler_vocab: workload.filler_vocab + 3_000]
    distractors = words[workload.filler_vocab + 3_000:]

    corpus = _Corpus(workload, rng, verbs, vocab, noise_words)
    _write_corpus(workload, corpus, directory / "corpus.conllu")

    oov = set(rng.sample(vocab, int(len(vocab) * workload.oov_share)))
    in_vocab = [lemma for lemma in vocab if lemma not in oov]
    centers = nrng.normal(0.0, 1.0, size=(8, DIM))
    row_words = in_vocab + distractors
    codes = _vector_codes(nrng, len(row_words), centers)
    order = nrng.permutation(len(row_words))
    row_words = [row_words[i] for i in order]
    codes = codes[order]
    duplicates = 5 if workload.noisy else 0  # later rows repeat a word; the first one wins
    if duplicates:
        again = [row_words[i] for i in range(duplicates)]
        row_words = row_words + again
        codes = np.concatenate([codes, _vector_codes(nrng, duplicates, centers)])
    _write_vectors(directory / "vectors.txt", row_words, codes)
    first_row = {}
    for i, word in enumerate(row_words):
        first_row.setdefault(word, i)
    needed = {lemma for (_, _, lemma) in corpus.counts}
    vectors = {w: codes[i].astype(np.float64) / 1000.0 for w, i in first_row.items() if w in needed}

    (directory / "inventory.json").write_text(json.dumps(inventory, indent=1) + "\n", encoding="utf-8")
    config = {
        "corpus_paths": ["corpus.conllu"], "vectors_path": "vectors.txt", "inventory_path": "inventory.json",
        "output_prefix": "out/run", "strict_parsing": False, "worker_count": 1,
        "rules": {"max_sentence_length": MAX_SENTENCE_LENGTH},
    }
    (directory / "config.json").write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")

    sets: dict = {}
    for (verb, role, lemma), count in corpus.counts.items():
        sets.setdefault((verb, role), {})[lemma] = count
    analysis, geometry = expected_analysis(sets, vectors, inventory)
    stats = corpus.stats
    manifest = {
        "corpus_files": config["corpus_paths"],
        "sentences_parsed": stats["sentences_parsed"],
        "sentences_skipped": stats["sentences_skipped"],
        "malformed_lines": stats["malformed_lines"],
        "comment_lines": stats["comment_lines"],
        "range_lines_skipped": stats["range_lines_skipped"],
        "sentences_filtered_by_length": stats["sentences_filtered_by_length"],
        "sentences_processed": stats["sentences_processed"],
        "filler_records": int(sum(corpus.counts.values())),
        "target_verbs": sorted(verbs),
        "rules": RULES,
    }
    truth = {
        "workload": name,
        "seed": seed,
        "sizes": {
            "sentence_blocks": workload.sentences,
            "tokens": corpus.tokens_written,
            "corpus_bytes": (directory / "corpus.conllu").stat().st_size,
            "vector_rows": len(row_words),
            "vector_bytes": (directory / "vectors.txt").stat().st_size,
            "filler_types": len(corpus.counts),
            "filler_lemmas_in_vectors": len(vectors),
        },
        "counts": sorted([verb, role, lemma, count] for (verb, role, lemma), count in corpus.counts.items()),
        "manifest": manifest,
        "analysis": analysis,
        "geometry": geometry,
    }
    (directory / "truth.json").write_text(json.dumps(truth) + "\n", encoding="utf-8")
    return truth
