"""The public names of ``lexsets``: the same objects as their modules define, resolved on first use."""

import importlib

import pytest

import lexsets

from conftest import run_python

# every public name of the package -> the module that defines it
EXPORTS = {
    "AnalysisResult": "analysis",
    "CorrelationResult": "analysis",
    "analyze_lexical_sets": "analysis",
    "centroid_distance": "analysis",
    "rank_values": "analysis",
    "spearman": "analysis",
    "split_half_median_average": "analysis",
    "t_approximation_pvalue": "analysis",
    "weighted_overlap": "analysis",
    "InventoryEntry": "inventory",
    "VerbInventory": "inventory",
    "default_inventory": "inventory",
    "load_inventory": "inventory",
    "load_reference_ranking": "inventory",
    "ExtractionRules": "corpus",
    "LexicalSet": "corpus",
    "ParseStats": "corpus",
    "Sentence": "corpus",
    "Token": "corpus",
    "count_fillers": "corpus",
    "extract_fillers": "corpus",
    "lexical_sets_from_counts": "corpus",
    "parse_conll": "corpus",
    "read_database": "corpus",
    "write_database": "corpus",
    "write_database_tsv": "corpus",
    "EmbeddingStore": "embeddings",
    "cosine_distance": "embeddings",
    "cosine_similarity": "embeddings",
    "load_text_vectors": "embeddings",
    "ConfigError": "errors",
    "ConllParseError": "errors",
    "DegenerateVectorError": "errors",
    "DimensionMismatchError": "errors",
    "EmptySetError": "errors",
    "InputError": "errors",
    "LexsetsError": "errors",
    "PlotSpecError": "errors",
    "UndefinedCorrelationError": "errors",
    "VectorFormatError": "errors",
    "BoxStats": "geometry",
    "SetGeometry": "geometry",
    "box_stats": "geometry",
    "compute_set_geometry": "geometry",
    "weighted_box_stats": "geometry",
    "weighted_quantile": "geometry",
    "PlotSpec": "report",
    "emit_tables": "report",
    "figure_specs": "report",
    "render_svg": "report",
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_each_export_is_the_object_its_module_defines(name):
    module = importlib.import_module(f"lexsets.{EXPORTS[name]}")
    value = getattr(lexsets, name)
    assert value is getattr(module, name)
    assert value.__module__ == module.__name__


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from lexsets import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert all(namespace[name] is getattr(lexsets, name) for name in EXPORTS)
    assert set(EXPORTS) <= set(dir(lexsets))
    assert sorted(lexsets.__all__) == sorted(EXPORTS)


def test_importing_the_package_loads_no_numpy(tmp_path):
    code = (
        "import sys, lexsets; "
        "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')]; "
        "assert not loaded, loaded; "
        "lexsets.LexicalSet; lexsets.ParseStats; lexsets.InputError; lexsets.load_inventory; "
        "assert 'numpy' not in sys.modules; "
        "lexsets.spearman; assert 'numpy' in sys.modules"
    )
    result = run_python(tmp_path, "-c", code)
    assert result.returncode == 0, result.stderr


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lexsets.no_such_name
    with pytest.raises(ImportError):
        exec("from lexsets import no_such_name", {})
