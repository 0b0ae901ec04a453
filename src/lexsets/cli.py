"""Command-line pipeline: extract lexical sets, then analyse their geometry.

Subcommands: ``extract``, ``analyze``, ``run`` (both stages) and
``validate-config``. Runs are driven by a JSON config file; a few flags
override config values. Exit codes: 0 success, 1 usage/config error,
2 input or parse error, 3 empty result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

from . import report
from .analysis import RANK_DIRECTIONS, VerbInventory, analyze_lexical_sets, load_inventory, load_reference_ranking
from .corpus import (
    ExtractionRules,
    ParseStats,
    count_fillers,
    lexical_sets_from_counts,
    parse_conll,
    passes_length_filter,
    read_database,
    write_database,
    write_database_tsv,
)
from .embeddings import load_text_vectors
from .errors import ConfigError, ConllParseError, InputError, LexsetsError, VectorFormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3


@dataclass
class RunConfig:
    corpus_paths: list[str] = field(default_factory=list)
    vectors_path: str = ""
    inventory_path: str = ""
    output_prefix: str = ""
    reference_ranking_path: str | None = None
    rules: ExtractionRules = field(default_factory=ExtractionRules)
    strict_parsing: bool = False
    worker_count: int = 1
    distance_rank_direction: str = "ascending"
    overlap_rank_direction: str = "descending"
    verbose_geometry: bool = False

    def __post_init__(self):
        if not isinstance(self.corpus_paths, list) or not all(isinstance(p, str) for p in self.corpus_paths):
            raise ConfigError(f"corpus_paths must be a list of file paths, got {self.corpus_paths!r}")
        if not self.corpus_paths:
            raise ConfigError("corpus_paths must list at least one file")
        for name in ("vectors_path", "inventory_path", "output_prefix"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a file path, got {getattr(self, name)!r}")
            if not getattr(self, name):
                raise ConfigError(f"{name} is required")
        if not isinstance(self.reference_ranking_path, (str, type(None))):
            raise ConfigError(f"reference_ranking_path must be a file path or null,"
                              f" got {self.reference_ranking_path!r}")
        for name in ("strict_parsing", "verbose_geometry"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if isinstance(self.worker_count, bool) or not isinstance(self.worker_count, int):
            raise ConfigError(f"worker_count must be an integer, got {self.worker_count!r}")
        if self.worker_count < 1:
            raise ConfigError("worker_count must be >= 1")
        for name in ("distance_rank_direction", "overlap_rank_direction"):
            if getattr(self, name) not in RANK_DIRECTIONS:
                raise ConfigError(f"{name} must be 'ascending' or 'descending', got {getattr(self, name)!r}")


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as stream:
            data = json.load(stream)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 text ({exc.reason})") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        rules = ExtractionRules.from_dict(data.get("rules", {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad extraction rules: {exc}") from None
    try:
        return RunConfig(**{**data, "rules": rules})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.output_prefix:
        config.output_prefix = args.output_prefix
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config.worker_count = args.workers
    if args.strict:
        config.strict_parsing = True
    if args.max_sentence_length is not None:
        try:
            config.rules = replace(config.rules, max_sentence_length=args.max_sentence_length)
        except ValueError as exc:
            raise ConfigError(f"bad --max-sentence-length: {exc}") from None
    return config


def _check_readable(paths: list[str]) -> None:
    for path in paths:
        if path and not Path(path).is_file():
            raise FileNotFoundError(path)


def _read_input(path: str, read):
    """``read`` applied to the text of ``path``; malformed content raises an error naming the path."""
    try:
        with open(path, encoding="utf-8") as stream:
            return read(stream)
    except VectorFormatError as exc:
        raise VectorFormatError(exc.reason, exc.line_number, path) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    except (InputError, ValueError) as exc:  # bad JSON or entries
        raise InputError(f"{path}: {exc}") from None


def _load_inventory(config: RunConfig) -> VerbInventory:
    inventory = _read_input(config.inventory_path, load_inventory)
    if not config.reference_ranking_path:
        return inventory
    reference = _read_input(config.reference_ranking_path, load_reference_ranking)
    try:
        return VerbInventory(inventory.entries, reference)
    except InputError as exc:
        raise InputError(f"{config.reference_ranking_path}: {exc}") from None


def _prefix_path(config: RunConfig, suffix: str) -> Path:
    path = Path(f"{config.output_prefix}_{suffix}")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def _atomic_output(path: Path):
    """Text stream onto a temporary file beside ``path``, moved onto ``path`` only if the block completes.

    A run that fails or is interrupted part-way leaves no truncated artifact for a later stage to read.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as stream:
            yield stream
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with _atomic_output(path) as stream:
        stream.write(text)


class _ByteRange(io.RawIOBase):
    """Unbuffered reader over the next ``size`` bytes of an open binary file, which it closes."""

    def __init__(self, file, size: int):
        super().__init__()
        self._file = file
        self._left = size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self._left <= 0:
            return 0
        count = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count

    def close(self) -> None:
        self._file.close()
        super().close()


def _open_range(path: str, start: int, end: int) -> io.TextIOWrapper:
    """Bytes ``[start, end)`` of ``path`` as text, split into lines as ``open(path, encoding="utf-8")`` splits them."""
    file = open(path, "rb", buffering=0)
    file.seek(start)
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(file, end - start)), encoding="utf-8")


def _cut_ranges(path: str, offsets) -> list[tuple[int, int]]:
    """Cut ``path`` into byte ranges near ``offsets``, in file order.

    Each cut moves forward from its offset past the rest of the line
    that holds the byte before it, then to just after the next line
    whose bytes are all whitespace, or to the end of the file. Such a
    line is a blank separator for ``parse_conll``, so no sentence spans
    two ranges and the parser starts each range in the state a serial
    pass has there. Duplicate cuts are dropped; an empty file gives one
    empty range.
    """
    size = os.path.getsize(path)
    cuts = {0, size}
    with open(path, "rb") as stream:
        for offset in offsets:
            stream.seek(max(0, min(offset, size) - 1))
            stream.readline()  # the rest of the line the offset falls in
            line = stream.readline()
            while line and line.strip():
                line = stream.readline()
            cuts.add(stream.tell())
    cuts = sorted(cuts)
    return list(zip(cuts, cuts[1:])) or [(0, 0)]


def _lines_before(path: str, offset: int) -> int:
    """Number of text lines in the first ``offset`` bytes of ``path``, counted as the parser counts them."""
    with _open_range(path, 0, offset) as stream:
        return sum(1 for _ in stream)


def _extract_shard(path: str, start: int, end: int, targets: frozenset[str], rules: ExtractionRules,
                   strict: bool) -> tuple[Counter, ParseStats, int, int]:
    """Parse bytes ``[start, end)`` of one corpus file and count the fillers of its sentences.

    Returns the filler counts, the parse statistics, the number of
    sentences dropped by the length filter and the number processed.
    The range must start and end at cuts made by :func:`_cut_ranges`,
    so summing the results of a file's ranges equals one serial pass.
    A parse error names the file and its line in the whole file.
    """
    stats = ParseStats()
    counts: Counter = Counter()
    filtered = 0
    processed = 0
    try:
        with _open_range(path, start, end) as stream:
            for sentence in parse_conll(stream, strict=strict, stats=stats):
                if not passes_length_filter(sentence, rules):
                    filtered += 1
                    continue
                processed += 1
                counts.update(count_fillers([sentence], targets, rules))
    except ConllParseError as exc:
        raise ConllParseError(exc.reason, exc.line_number + _lines_before(path, start), path) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    return counts, stats, filtered, processed


def _merge_shards(shards: list[tuple[str, int, int]], results) -> tuple[Counter, ParseStats, int, int]:
    """Sum the shard results in shard order, naming the corpus file of a shard whose worker died."""
    counts: Counter = Counter()
    stats = ParseStats()
    filtered = 0
    processed = 0
    results = iter(results)
    for path, _, _ in shards:
        try:
            shard_counts, shard_stats, shard_filtered, shard_processed = next(results)
        except BrokenProcessPool as exc:
            raise InputError(f"{path}: a worker process stopped before its shard was done ({exc})") from None
        counts.update(shard_counts)
        stats.update(shard_stats)
        filtered += shard_filtered
        processed += shard_processed
    return counts, stats, filtered, processed


def _run_extraction(config: RunConfig, targets: frozenset[str]):
    """Extract every corpus file as ``worker_count`` byte-range shards; one shard runs in process at 1."""
    workers = config.worker_count
    shards = [
        (path, start, end)
        for path in config.corpus_paths
        for start, end in _cut_ranges(path, (os.path.getsize(path) * i // workers for i in range(1, workers)))
    ]
    arguments = (*zip(*shards), repeat(targets), repeat(config.rules), repeat(config.strict_parsing))
    if workers == 1:
        counts, stats, filtered, processed = _merge_shards(shards, map(_extract_shard, *arguments))
    else:
        # more processes than usable CPUs would only wait; the shards, and so the outputs, stay the same
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(workers, cpus, len(shards))) as pool:
            counts, stats, filtered, processed = _merge_shards(shards, pool.map(_extract_shard, *arguments))

    manifest = {
        "corpus_files": list(config.corpus_paths),
        **stats.as_dict(),
        "sentences_filtered_by_length": filtered,
        "sentences_processed": processed,
        "filler_records": int(sum(counts.values())),
        "target_verbs": sorted(targets),
        "rules": config.rules.to_dict(),
    }
    return lexical_sets_from_counts(counts), manifest


def cmd_extract(config: RunConfig) -> int:
    _check_readable(config.corpus_paths)
    _check_readable([config.inventory_path])
    inventory = _load_inventory(config)
    targets = frozenset(lemma.lower() for lemma in inventory.lemmas)
    sets, manifest = _run_extraction(config, targets)
    with _atomic_output(_prefix_path(config, "lexsets.json")) as stream:
        write_database(sets, stream)
    with _atomic_output(_prefix_path(config, "lexsets.tsv")) as stream:
        write_database_tsv(sets, stream)
    _write_text(_prefix_path(config, "manifest.json"), report.json_text(manifest))
    if not sets:
        print("warning: no target-verb occurrences found; database is empty", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(config: RunConfig, database_path: str | None = None) -> int:
    database_path = database_path or f"{config.output_prefix}_lexsets.json"
    _check_readable([database_path, config.vectors_path, config.inventory_path])
    if config.reference_ranking_path:
        _check_readable([config.reference_ranking_path])
    sets = _read_input(database_path, read_database)
    fillers = {lemma for lex_set in sets.values() for lemma in lex_set.counts}
    # a lambda looks up load_text_vectors when it runs, so a wrapper set on this module sees the call
    store = _read_input(config.vectors_path,
                        lambda stream: load_text_vectors(stream, metadata=config.vectors_path, vocabulary=fillers))
    inventory = _load_inventory(config)

    result = analyze_lexical_sets(
        sets,
        store,
        inventory,
        distance_rank_direction=config.distance_rank_direction,
        overlap_rank_direction=config.overlap_rank_direction,
    )

    geometry_csv, geometry_json = report.geometry_documents(result, verbose=config.verbose_geometry)
    analysis_csv, analysis_json = report.analysis_documents(result)
    _write_text(_prefix_path(config, "geometry.csv"), geometry_csv)
    _write_text(_prefix_path(config, "geometry.json"), geometry_json)
    _write_text(_prefix_path(config, "analysis.csv"), analysis_csv)
    _write_text(_prefix_path(config, "analysis.json"), analysis_json)
    for suffix, spec in report.figure_specs(result).items():
        _write_text(_prefix_path(config, f"{suffix}.svg"), report.render_svg(spec))

    manifest = {
        "database": database_path,
        "vectors": store.stats(),
        "verbs_included": [v.lemma for v in result.verbs],
        "verbs_excluded": result.excluded,
        "coverage": {
            f"{verb}/{role}": geometry.coverage() for (verb, role), geometry in sorted(result.geometries.items())
        },
        "distances_above_one": result.distances_above_one,
        "notes": result.notes,
    }
    _write_text(_prefix_path(config, "analysis_manifest.json"), report.json_text(manifest))

    if not result.verbs:
        print("error: every inventory verb was excluded from the analysis", file=sys.stderr)
        for item in result.excluded:
            print(f"  {item['verb']}: {item['reason']}", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_run(config: RunConfig) -> int:
    status = cmd_extract(config)
    if status != EXIT_OK:
        return status
    return cmd_analyze(config)


def cmd_validate_config(path: str) -> int:
    config = load_config(path)
    missing = [p for p in [*config.corpus_paths, config.vectors_path, config.inventory_path,
                           config.reference_ranking_path] if p and not Path(p).is_file()]
    if missing:
        for item in missing:
            print(f"error: missing input file: {item}", file=sys.stderr)
        return EXIT_INPUT
    _load_inventory(config)
    print(f"config {path} is valid")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexsets",
        description="Extract verb-argument lexical sets and analyse their vector geometry.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", required=True, help="JSON run configuration")
        sub.add_argument("--output-prefix", help="override the configured output prefix")
        sub.add_argument("--workers", type=int, help="override the configured worker count")
        sub.add_argument("--strict", action="store_true", help="abort on the first parse error")
        sub.add_argument(
            "--max-sentence-length", type=int, help="override the sentence-length cutoff"
        )

    add_common(subparsers.add_parser("extract", help="extract the lexical-set database"))
    analyze = subparsers.add_parser("analyze", help="analyse an extracted database")
    add_common(analyze)
    analyze.add_argument("--database", help="lexical-set database (default: <prefix>_lexsets.json)")
    add_common(subparsers.add_parser("run", help="extract then analyse"))
    validate = subparsers.add_parser("validate-config", help="check a config file")
    validate.add_argument("--config", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.command == "validate-config":
            return cmd_validate_config(args.config)
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "extract":
            return cmd_extract(config)
        if args.command == "analyze":
            return cmd_analyze(config, args.database)
        return cmd_run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except (LexsetsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
