"""S-O separation vs a spontaneity scale, end to end on the toy corpus.

For every verb of a small inventory the script compares the subject
and object lexical sets three ways:

  * cosine distance between the S and O centroids,
  * count-weighted multiset overlap of the raw filler sets,
  * per-set median distances (set density).

The verbs are then ranked by centroid distance and the ranking is
correlated (Spearman) against the inventory's spontaneity ranks. With
only four verbs the exact-permutation p-value is used; at the original
study's scale (n = 20) the Student-t approximation kicks in instead.
"""

import io
from pathlib import Path

from lexsets import analyze_lexical_sets, load_inventory, load_text_vectors, parse_conll
from lexsets import ExtractionRules, count_fillers, lexical_sets_from_counts

DATA = Path(__file__).parent.parent / "tests" / "data"


def main():
    rules = ExtractionRules(max_sentence_length=15)
    with open(DATA / "toy_inventory.json", encoding="utf-8") as stream:
        inventory = load_inventory(stream)
    targets = set(inventory.lemmas)

    with open(DATA / "toy.conllu", encoding="utf-8") as stream:
        sets = lexical_sets_from_counts(count_fillers(parse_conll(stream, strict=False), targets, rules))
    with open(DATA / "toy_vectors.txt", encoding="utf-8") as stream:
        store = load_text_vectors(stream)

    result = analyze_lexical_sets(sets, store, inventory)

    print(f"{'verb':<10} {'rank':>4} {'S median':>9} {'O median':>9} "
          f"{'S-O dist':>9} {'overlap':>8}")
    for verb in result.verbs:
        print(
            f"{verb.lemma:<10} {verb.spontaneity_rank:>4} {verb.s_median:>9.6f} "
            f"{verb.o_median:>9.6f} {verb.centroid_distance:>9.6f} {verb.weighted_overlap:>8.4f}"
        )
    for item in result.excluded:
        print(f"{item['verb']:<10} excluded: {item['reason']}")

    correlation = result.distance_correlation
    print(f"\nSpearman rho(distance rank, spontaneity rank) = {correlation.rho:.5f}")
    print(f"two-sided p = {correlation.p_value:.5f}  ({correlation.method}, n = {correlation.n})")

    low, high = result.s_split_half
    print(f"\nS-set median averages, low vs high half of the scale: "
          f"{low:.6f} vs {high:.6f}")
    low, high = result.o_split_half
    print(f"O-set median averages, low vs high half of the scale: "
          f"{low:.6f} vs {high:.6f}")


if __name__ == "__main__":
    main()
