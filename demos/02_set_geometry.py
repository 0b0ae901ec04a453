"""Geometry of one lexical set: centroid, distances, box statistics.

Fillers live in a 2-D toy vector space so the numbers are easy to
follow by eye. The centroid is the token-frequency-weighted mean of
the filler vectors; every filler type is then scored by its cosine
distance from that centroid, and the weighted distance distribution is
summarised with quantiles and Tukey whiskers.
"""

import io

from lexsets import LexicalSet, box_stats, compute_set_geometry, load_text_vectors

VECTORS = """\
5 2
porta 1.0 0.1
finestra 0.9 0.3
cancello 0.95 0.2
negozio 0.7 0.0
idea -0.3 0.9
"""


def main():
    store = load_text_vectors(io.StringIO(VECTORS))
    # "aprire" objects: mostly concrete openable things, one odd filler
    # out ("idea") and one out-of-vocabulary lemma ("sportello").
    lex_set = LexicalSet(
        "aprire", "O", {"porta": 6, "finestra": 3, "cancello": 2, "idea": 1, "sportello": 2}
    )

    geometry = compute_set_geometry(lex_set, store)
    print(f"centroid: {geometry.centroid.round(4)}")
    print(f"coverage: {geometry.covered_tokens} tokens in vocabulary, {geometry.oov_tokens} OOV tokens "
          f"({geometry.oov_types} OOV type)")

    print("\ncosine distance of each filler type from the centroid:")
    for lemma, distance, weight in geometry.filler_distances:
        bar = "#" * min(60, max(1, round(distance * 200)))
        print(f"  {lemma:<10} weight {weight}  distance {distance:.6f}  {bar}")

    stats = box_stats(geometry)
    print(f"\nweighted median distance: {stats.median:.6f}")
    print("(6 of the 12 covered tokens are 'porta', so the median hugs it)")

    print("\nbox statistics:")
    for key, value in stats.as_dict().items():
        print(f"  {key:<13} {value:.6f}" if isinstance(value, float) else f"  {key:<13} {value}")
    print("\n'idea' points away from the cluster: it sits beyond the upper")
    print("whisker and is counted as an outlier.")


if __name__ == "__main__":
    main()
