"""Target-verb inventories: the spontaneity scale and an optional reference ranking.

An inventory lists the verbs whose lexical sets are extracted and
analysed, each with a gloss and its rank on the spontaneity
scale; a reference ranking re-ranks the same lemmas. Reading one needs
no numpy, so the ``extract`` command can load it without the analysis
modules.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources
from typing import IO

from .errors import InputError


@dataclass(frozen=True)
class InventoryEntry:
    gloss: str
    lemma: str
    spontaneity_rank: int


@dataclass
class VerbInventory:
    """Target verbs ordered on a spontaneity scale (rank 1 = least spontaneous).

    ``reference_ranking`` optionally carries an external ranking (such as
    cross-linguistic frequency ratios) over exactly the same lemmas.
    """

    entries: list[InventoryEntry]
    reference_ranking: dict[str, float] | None = None

    def __post_init__(self):
        if not self.entries:
            raise InputError("inventory has no entries")
        lemmas = [e.lemma for e in self.entries]
        # the extractor lower-cases corpus lemmas, so a capital would never match its sets
        for lemma in lemmas:
            if lemma != lemma.lower():
                raise InputError(f"inventory lemmas must be lower-case, got {lemma!r}")
        if len(set(lemmas)) != len(lemmas):
            raise InputError("inventory lemmas must be unique")
        ranks = sorted(e.spontaneity_rank for e in self.entries)
        if ranks != list(range(1, len(self.entries) + 1)):
            raise InputError("spontaneity ranks must be a permutation of 1..N")
        if self.reference_ranking is not None:
            if set(self.reference_ranking) != set(lemmas):
                raise InputError("reference ranking must cover exactly the inventory lemmas")

    @property
    def lemmas(self) -> list[str]:
        return [e.lemma for e in self.entries]

    def ordered_entries(self) -> list[InventoryEntry]:
        return sorted(self.entries, key=lambda e: e.spontaneity_rank)


def load_inventory(stream: IO[str]) -> VerbInventory:
    """Read an inventory JSON array of {gloss, lemma, spontaneity_rank}.

    Values are taken as they are, never converted: InputError names the
    first entry that is not an object with a string gloss, a string
    lemma and a JSON-integer rank. A reference ranking is attached with
    ``VerbInventory(entries, load_reference_ranking(...))``.
    """
    data = json.load(stream)
    if not isinstance(data, list):
        raise InputError("inventory file must be a JSON array")
    entries = []
    for number, item in enumerate(data, start=1):
        values = item if isinstance(item, dict) else {}
        gloss, lemma, rank = values.get("gloss"), values.get("lemma"), values.get("spontaneity_rank")
        # type() rather than isinstance(): JSON true and false load as bools, which are ints
        if not isinstance(gloss, str) or not isinstance(lemma, str) or type(rank) is not int:
            raise InputError(f"inventory entry {number} needs a string gloss, a string lemma and an integer"
                             f" spontaneity_rank, got {item!r}")
        entries.append(InventoryEntry(gloss=gloss, lemma=lemma, spontaneity_rank=rank))
    return VerbInventory(entries=entries)


def load_reference_ranking(stream: IO[str]) -> dict[str, float]:
    """Read a reference ranking JSON array of {lemma, rank}.

    InputError names the first entry that is not an object with a string
    lemma and a finite JSON number (not true or false) as its rank, or
    that repeats a lemma.
    """
    data = json.load(stream)
    if not isinstance(data, list):
        raise InputError("reference ranking file must be a JSON array")
    ranking = {}
    for number, item in enumerate(data, start=1):
        values = item if isinstance(item, dict) else {}
        lemma, rank = values.get("lemma"), values.get("rank")
        # NaN fails both comparisons, and so does an integer too large to convert to a float
        if (not isinstance(lemma, str) or type(rank) not in (int, float)
                or not -sys.float_info.max <= rank <= sys.float_info.max):
            raise InputError(f"reference-ranking entry {number} needs a string lemma and a finite numeric rank,"
                             f" got {item!r}")
        if lemma in ranking:
            raise InputError(f"reference-ranking entry {number} repeats lemma {lemma!r}")
        ranking[lemma] = float(rank)
    return ranking


def default_inventory() -> VerbInventory:
    """The bundled 20-verb spontaneity scale with its editorial Italian lemmas."""
    path = resources.files("lexsets.data").joinpath("spontaneity_inventory.json")
    with path.open("r", encoding="utf-8") as stream:
        return load_inventory(stream)
