"""Walk through the filler-extraction rules on a handful of parsed sentences.

Each sentence below is a miniature dependency parse in the 10-column
CoNLL layout. The extractor collects, for every target verb:

  * direct objects                  -> O fillers
  * passive subjects                -> O fillers
  * subjects of intransitive uses   -> S fillers

A verb used with a direct object is transitive, so its subject is NOT
an S filler -- unless the clitic "si" is attached to the verb, which
marks the intransitive (anticausative or reflexive) reading.
"""

import io

from lexsets import (
    ExtractionRules,
    count_fillers,
    extract_fillers,
    lexical_sets_from_counts,
    parse_conll,
)

CORPUS = """\
# Maria breaks the glass: "bicchiere" is a direct object.
1	Maria	Maria	PROPN	_	_	2	nsubj	_	_
2	rompe	rompere	VERB	_	_	0	root	_	_
3	il	il	DET	_	_	4	det	_	_
4	bicchiere	bicchiere	NOUN	_	_	2	dobj	_	_

# The glass breaks (with "si"): "bicchiere" is an intransitive subject.
1	Il	il	DET	_	_	2	det	_	_
2	bicchiere	bicchiere	NOUN	_	_	4	nsubj	_	_
3	si	si	PRON	_	_	4	expl	_	_
4	rompe	rompere	VERB	_	_	0	root	_	_

# The key was broken: the passive subject counts as an object.
1	La	il	DET	_	_	2	det	_	_
2	chiave	chiave	NOUN	_	_	4	nsubjpass	_	_
3	fu	essere	AUX	_	_	4	auxpass	_	_
4	rotta	rompere	VERB	_	_	0	root	_	_

# The man breaks the key: "uomo" is a transitive subject -> ignored.
1	L'	il	DET	_	_	2	det	_	_
2	uomo	uomo	NOUN	_	_	3	nsubj	_	_
3	rompe	rompere	VERB	_	_	0	root	_	_
4	la	il	DET	_	_	5	det	_	_
5	chiave	chiave	NOUN	_	_	3	dobj	_	_

# The branch breaks (with "si"): another S filler.
1	Il	il	DET	_	_	2	det	_	_
2	ramo	ramo	NOUN	_	_	4	nsubj	_	_
3	si	si	PRON	_	_	4	expl	_	_
4	rompe	rompere	VERB	_	_	0	root	_	_
"""


def main():
    rules = ExtractionRules()  # dobj / nsubj / nsubjpass, clitic "si"
    targets = {"rompere"}

    sentences = list(parse_conll(io.StringIO(CORPUS)))
    print("Per-sentence extraction, as (verb, role, filler) triples:")
    for sentence in sentences:
        print(f"  {' '.join(t.surface for t in sentence.tokens)!r}")
        found = extract_fillers(sentence, targets, rules)
        for verb, role, filler in found:
            print(f"    -> {verb} / {role} / {filler}")
        if not found:
            print("    -> (nothing extracted)")

    print("\nAggregated lexical sets:")
    sets = lexical_sets_from_counts(count_fillers(sentences, targets, rules))
    for (verb, role), lex_set in sorted(sets.items()):
        print(f"  {verb}/{role}: {lex_set.counts}  (total {lex_set.total_count} tokens)")

    print("\nNote: the transitive subject 'uomo' never shows up in rompere/S,")
    print("while both 'si' sentences contribute their subjects there.")


if __name__ == "__main__":
    main()
