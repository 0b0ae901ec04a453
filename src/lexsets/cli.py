"""Command-line pipeline: extract lexical sets, then analyse their geometry.

Subcommands: ``extract``, ``analyze``, ``run`` (both stages) and
``validate-config``. Runs are driven by a JSON config file; each command
takes only the flags it reads. Exit codes: 0 success, 1 usage/config error
or no numpy for a command that needs it, 2 input or parse error, 3 empty result.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import repeat
from pathlib import Path

from .corpus import (
    ExtractionRules,
    LexicalSet,
    ParseStats,
    count_fillers,
    json_text,
    lexical_sets_from_counts,
    parse_conll,
    read_database,
    write_database,
    write_database_tsv,
)
from .errors import ConfigError, ConllParseError, InputError, LexsetsError, VectorFormatError
from .inventory import VerbInventory, load_inventory, load_reference_ranking

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3


# _analyze reaches the numpy-backed load_text_vectors and analyze_lexical_sets as attributes of this module, where
# a wrapper set on the module replaces them. The package imports them on first use, and resolves its exports only.
def __getattr__(name: str):
    return sys.modules[__package__].__getattr__(name)


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
    verbose_geometry: bool = False

    def __post_init__(self):
        if not isinstance(self.corpus_paths, list) or not all(isinstance(p, str) and p for p in self.corpus_paths):
            raise ConfigError(f"corpus_paths must be a list of file paths, got {self.corpus_paths!r}")
        if not self.corpus_paths:
            raise ConfigError("corpus_paths must list at least one file")
        repeated = [path for path, times in Counter(self.corpus_paths).items() if times > 1]
        if repeated:  # its counts would be summed twice
            raise ConfigError(f"corpus_paths lists {repeated[0]!r} more than once")
        for name in ("vectors_path", "inventory_path", "output_prefix"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a file path, got {getattr(self, name)!r}")
            if not getattr(self, name):
                raise ConfigError(f"{name} is required")
        if self.reference_ranking_path == "" or not isinstance(self.reference_ranking_path, (str, type(None))):
            raise ConfigError(f"reference_ranking_path must be a file path or null,"
                              f" got {self.reference_ranking_path!r}")
        for name in ("strict_parsing", "verbose_geometry"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if isinstance(self.worker_count, bool) or not isinstance(self.worker_count, int):
            raise ConfigError(f"worker_count must be an integer, got {self.worker_count!r}")
        if self.worker_count < 1:
            raise ConfigError("worker_count must be >= 1")


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as stream:
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
    except ValueError as exc:
        raise ConfigError(f"bad extraction rules: {exc}") from None
    return RunConfig(**{**data, "rules": rules})


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """``config`` with the flags that were given; the new config passes the same checks as a config file."""
    # analyze has no --workers
    flags = {"output_prefix": args.output_prefix, "worker_count": getattr(args, "workers", None)}
    return replace(config, **{name: value for name, value in flags.items() if value is not None})


def _read_input(path: str, read, start: int = 0, end: int | None = None):
    """``read`` applied to the text of bytes ``[start, end)`` of ``path`` (the whole file by default).

    Malformed content raises an error naming the path; a located error
    gives its line in the whole file.
    """
    try:
        with _open_range(path, start, os.path.getsize(path) if end is None else end) as stream:
            return read(stream)
    except (ConllParseError, VectorFormatError) as exc:
        line_number = None if exc.line_number is None else exc.line_number + _lines_before(path, start)
        raise type(exc)(exc.reason, line_number, path) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    except (InputError, ValueError) as exc:  # bad JSON or entries
        raise InputError(f"{path}: {exc}") from None


def _prepare(config: RunConfig, paths: list[str]) -> VerbInventory:
    """Check a command's inputs before any work: every file exists, then the inventory, then the vector file.

    ``paths`` are the command's own inputs, and no two of its corpus entries may name one file.
    One error names every missing file, a line each, before any is opened.
    Then, when ``paths`` holds the vector file and numpy, which the commands that read vectors need,
    is installed, that file's head is checked as the loader checks it and its other rows are counted.
    """
    inputs = [*paths, config.inventory_path, config.reference_ranking_path]
    missing = [path for path in inputs if path and not Path(path).is_file()]
    if missing:  # main prints "error: " before the first line
        raise InputError("\nerror: ".join(f"missing input file: {path}" for path in missing))
    spellings: dict[tuple[int, int], str] = {}
    for path in (path for path in paths if path in config.corpus_paths):
        stat = os.stat(path)
        first = spellings.setdefault((stat.st_dev, stat.st_ino), path)  # the identity os.path.samefile compares
        if first != path:  # its counts would be summed twice
            raise ConfigError(f"corpus_paths lists one file twice, as {first!r} and {path!r}")
    inventory = _read_input(config.inventory_path, load_inventory)
    if config.reference_ranking_path:
        entries = inventory.entries
        inventory = _read_input(config.reference_ranking_path,
                                lambda stream: VerbInventory(entries, load_reference_ranking(stream)))
    if config.vectors_path in paths:
        if importlib.util.find_spec("numpy") is None:  # finds the package without importing it
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        from .vectorfile import _VectorReader

        _read_input(config.vectors_path, _VectorReader(()).check)
    return inventory


def _prefix_path(config: RunConfig, suffix: str) -> str:
    return f"{config.output_prefix}_{suffix}"


def _commit(config: RunConfig, outputs: dict, manifest_suffix: str, manifest: dict) -> None:
    """Replace a stage's files under the output prefix in the order given, then write its manifest last.

    ``outputs`` maps a suffix to a text, to a function that writes a stream, or to ``None`` for a file to remove.
    The old manifest goes first, so a prefix without its manifest holds a stage that did not finish; each file is
    renamed into place from a temporary file beside it, so a failed run leaves no truncated file for a later stage.
    """
    manifest_path = Path(_prefix_path(config, manifest_suffix))
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.unlink(missing_ok=True)
    for suffix, output in [*outputs.items(), (manifest_suffix, json_text(manifest))]:
        path = Path(_prefix_path(config, suffix))
        if output is None:
            path.unlink(missing_ok=True)
            continue
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(temp, "w", encoding="utf-8") as stream:
                output(stream) if callable(output) else stream.write(output)
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)


class _ByteRange(io.RawIOBase):
    """Unbuffered reader over the next ``size`` bytes of an open binary file, which it closes."""

    def __init__(self, file, size: int):
        super().__init__()
        self._file = file
        self.name = file.name  # what ``open(path).name`` gives
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
    """Bytes ``[start, end)`` of ``path`` as text, split into lines as ``open(path, encoding="utf-8")`` splits them.

    A byte-order mark at the start of the file is skipped; a U+FEFF anywhere else is data, as in a serial read.
    """
    file = open(path, "rb", buffering=0)
    file.seek(start)
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(file, end - start)),
                            encoding="utf-8-sig" if start == 0 else "utf-8")


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
                   strict: bool) -> tuple[dict[tuple[str, str], LexicalSet], ParseStats]:
    """Parse bytes ``[start, end)`` of one corpus file and build the lexical sets of its sentences.

    Returns the sets, built from the filler counts by :func:`lexical_sets_from_counts`
    as in the library route, and the parse statistics, which count the
    sentences dropped by the length filter. Given the targets and rules,
    ``parse_conll`` builds only the sentences that hold a target verb.
    The range must start and end at cuts made by :func:`_cut_ranges`,
    so merging the results of a file's ranges equals one serial pass.
    A parse error names the file and its line in the whole file.
    """
    def extract(stream) -> tuple[dict[tuple[str, str], LexicalSet], ParseStats]:
        stats = ParseStats()
        sentences = parse_conll(stream, strict=strict, stats=stats, targets=targets, rules=rules)
        counts = count_fillers(sentences, targets, rules, stats)
        return lexical_sets_from_counts(counts), stats

    return _read_input(path, extract, start, end)


def _merge_shards(shards: list[tuple[str, int, int]], start, worker_died: tuple[type[Exception], ...] = ()
                  ) -> tuple[dict[tuple[str, str], LexicalSet], ParseStats]:
    """Merge the results of ``start()`` in shard order, naming the corpus file of a shard whose worker died.

    A slot keeps the set of the first shard that has it; each later set of
    that slot adds its counts lemma by lemma, as ``Counter.update`` adds them.
    ``worker_died`` holds the exceptions raised for a dead worker (none in process), by ``start()`` too:
    a pool's ``map`` submits every shard, and a submission fails once a dead worker has broken the pool.
    """
    sets: dict[tuple[str, str], LexicalSet] = {}
    stats = ParseStats()
    results = None
    for path, _, _ in shards:
        try:
            if results is None:
                results = iter(start())
            shard_sets, shard_stats = next(results)
        except worker_died as exc:
            raise InputError(f"{path}: a worker process stopped before its shard was done ({exc})") from None
        for key, shard_set in shard_sets.items():
            merged = sets.setdefault(key, shard_set)
            if merged is not shard_set:
                counts = merged.counts
                for lemma, count in shard_set.counts.items():
                    counts[lemma] = counts.get(lemma, 0) + count
        stats.update(shard_stats)
        del shard_sets  # dropped once merged, before the next shard is taken
    return sets, stats


def _run_extraction(config: RunConfig, targets: frozenset[str]):
    """Extract every corpus file as ``worker_count`` byte-range shards; they run in process when one process would."""
    workers = config.worker_count
    shards = []
    for path in config.corpus_paths:
        size = os.path.getsize(path)
        # past one offset a byte, more parts give the same cuts, each at the cost of a seek and a scan
        parts = min(workers, max(size, 1))
        shards += [(path, start, end) for start, end in _cut_ranges(path, (size * i // parts for i in range(1, parts)))]
    arguments = (*zip(*shards), repeat(targets), repeat(config.rules), repeat(config.strict_parsing))
    # more processes than usable CPUs would only wait; the shards, and so the outputs, stay the same
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    processes = min(workers, cpus, len(shards))
    if processes == 1:
        sets, stats = _merge_shards(shards, lambda: map(_extract_shard, *arguments))
    else:
        # imported here, so that only a run that starts a pool loads it
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=processes) as pool:
            sets, stats = _merge_shards(shards, lambda: pool.map(_extract_shard, *arguments), (BrokenProcessPool,))

    manifest = {
        "corpus_files": list(config.corpus_paths),
        **stats.as_dict(),
        "sentences_processed": stats.sentences_parsed - stats.sentences_filtered_by_length,
        "filler_records": sum(ls.total_count for ls in sets.values()),
        "target_verbs": sorted(targets),
        "rules": config.rules.to_dict(),
    }
    return sets, manifest


# Each command checks its inputs once, in _prepare, then runs the stage bodies on the inventory it returns.
def cmd_extract(config: RunConfig) -> int:
    _extract(config, _prepare(config, config.corpus_paths))
    return EXIT_OK


def cmd_analyze(config: RunConfig, database_path: str | None = None) -> int:
    path = database_path or _prefix_path(config, "lexsets.json")
    inventory = _prepare(config, [path, config.vectors_path])
    sets = _read_input(path, read_database)
    if not database_path:  # a database named on the command line is read without a manifest
        _check_extract_manifest(_prefix_path(config, "manifest.json"), path, sum(s.total_count for s in sets.values()))
    return _analyze(config, inventory, sets, path)


def cmd_run(config: RunConfig) -> int:
    inventory = _prepare(config, [*config.corpus_paths, config.vectors_path])
    return _analyze(config, inventory, _extract(config, inventory), _prefix_path(config, "lexsets.json"))


def _extract(config: RunConfig, inventory: VerbInventory) -> dict[tuple[str, str], LexicalSet]:
    targets = frozenset(inventory.lemmas)
    sets, manifest = _run_extraction(config, targets)
    # the writers are looked up here, where a wrapper set on this module replaces them
    outputs = {"lexsets.json": partial(write_database, sets), "lexsets.tsv": partial(write_database_tsv, sets)}
    _commit(config, outputs, "manifest.json", manifest)
    if not sets:
        print("warning: no target-verb occurrences found; database is empty", file=sys.stderr)
    return sets


def _analyze(config: RunConfig, inventory: VerbInventory, sets: dict[tuple[str, str], LexicalSet],
             database_path: str) -> int:
    """Analyse ``sets``; ``database_path`` names their database in the analysis manifest."""
    from . import report

    this = sys.modules[__name__]  # see __getattr__
    fillers = {lemma for lex_set in sets.values() for lemma in lex_set.counts}
    store = _read_input(config.vectors_path, lambda stream: this.load_text_vectors(stream, vocabulary=fillers))

    result = this.analyze_lexical_sets(sets, store, inventory)

    geometry_csv, geometry_json = report.geometry_documents(result, verbose=config.verbose_geometry)
    analysis_csv, analysis_json = report.analysis_documents(result)
    outputs = {"geometry.csv": geometry_csv, "geometry.json": geometry_json,
               "analysis.csv": analysis_csv, "analysis.json": analysis_json}
    outputs.update((f"{suffix}.svg", report.render_svg(spec)) for suffix, spec in report.figure_specs(result).items())
    prefix = Path(_prefix_path(config, ""))  # an earlier run's figures that this run does not draw are removed
    names = {path.name[len(prefix.name):] for path in prefix.parent.glob("*.svg") if path.name.startswith(prefix.name)}
    stale = [name for name in sorted(names - outputs.keys())
             if name.startswith("fig1_") or name in ("fig2_S.svg", "fig2_O.svg", "fig3.svg")]
    manifest = {
        "database": database_path,
        "vectors": {**store.stats(), "metadata": config.vectors_path},
        "verbs_included": [v.lemma for v in result.verbs],
        "verbs_excluded": result.excluded,
        "coverage": {
            f"{verb}/{role}": geometry.coverage() for (verb, role), geometry in sorted(result.geometries.items())
        },
        "distances_above_one": result.distances_above_one,
        "notes": result.notes,
    }
    _commit(config, {**dict.fromkeys(stale), **outputs}, "analysis_manifest.json", manifest)

    if not result.verbs:
        print("error: every inventory verb was excluded from the analysis", file=sys.stderr)
        for item in result.excluded:
            print(f"  {item['verb']}: {item['reason']}", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def _check_extract_manifest(manifest_path: str, database_path: str, filler_records: int) -> None:
    """InputError unless ``manifest_path`` exists and counts the database's ``filler_records``.

    ``extract`` removes its manifest before it replaces the database and
    writes it last, so a database without a manifest that counts it is
    the output of an extract that did not finish, or of another run.
    """
    if not Path(manifest_path).is_file():
        raise InputError(f"{database_path} has no extract manifest {manifest_path}: its extract did not finish"
                         " or did not write it; run extract again, or read it with --database")
    manifest = _read_input(manifest_path, json.load)
    recorded = manifest.get("filler_records") if isinstance(manifest, dict) else None
    if type(recorded) is not int or recorded != filler_records:
        raise InputError(f"{manifest_path} records {recorded!r} filler records, but {database_path} holds"
                         f" {filler_records}, so they come from different runs; run extract again")


def cmd_validate_config(path: str) -> int:
    config = load_config(path)
    _prepare(config, [*config.corpus_paths, config.vectors_path])
    print(f"config {path} is valid")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexsets",
        description="Extract verb-argument lexical sets and analyse their vector geometry.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text in (("extract", "extract the lexical-set database"), ("analyze", "analyse an extracted database"),
                       ("run", "extract then analyse"), ("validate-config", "check a config file and its inputs")):
        commands[name] = subparsers.add_parser(name, help=text)
        commands[name].add_argument("--config", required=True, help="JSON run configuration")
    for name in ("extract", "analyze", "run"):
        commands[name].add_argument("--output-prefix", help="override the configured output prefix")
    for name in ("extract", "run"):
        commands[name].add_argument("--workers", type=int, metavar="N", help="override the configured worker count")
    commands["analyze"].add_argument("--database", help="lexical-set database, read without its extract manifest"
                                     " (default: <prefix>_lexsets.json, checked against <prefix>_manifest.json)")
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
    except ModuleNotFoundError as exc:  # every command but extract needs numpy for the vectors
        if exc.name != "numpy" and not (exc.name or "").startswith("numpy."):
            raise
        print(f"error: {args.command} needs numpy, which cannot be imported ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except (LexsetsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
