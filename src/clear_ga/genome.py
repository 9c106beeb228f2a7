"""Crossover and mutation operators for fixed- and variable-length genotypes.

All operators are pure functions of their inputs plus the supplied random
stream; callers own one stream per logical sequence and must not share it
across threads.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .schema import Cue, CueSchema, Genotype

_VARIABLE_OPS = ("swap", "delete", "add")


def dedup(cues: Sequence[Cue]) -> tuple[Cue, ...]:
    """Drop repeated labels, keeping the first occurrence in order."""
    return tuple(dict.fromkeys(cues))


def _check_same_shape(p1: Genotype, p2: Genotype) -> None:
    if len(p1.chromosomes) != len(p2.chromosomes):
        raise ValueError(
            f"parents have {len(p1.chromosomes)} and {len(p2.chromosomes)} chromosomes"
        )


def crossover_fixed(p1: Genotype, p2: Genotype, rng: Random) -> Genotype:
    """Uniform crossover: each chromosome's single cue comes from either parent."""
    _check_same_shape(p1, p2)
    child: list[tuple[Cue, ...]] = []
    for a, b in zip(p1.chromosomes, p2.chromosomes):
        if len(a) != 1 or len(b) != 1:
            raise ValueError("fixed-length crossover requires exactly one cue per chromosome")
        child.append(a if rng.random() < 0.5 else b)
    return Genotype(child)


def mutate_fixed(g: Genotype, schema: CueSchema, rng: Random) -> Genotype:
    """Switch one uniformly chosen chromosome's cue for a different cue of its category.

    If the chosen category holds a single cue there is nothing to switch to
    and the genotype is returned unchanged. The replacement is the one
    ``rng.choice`` would draw from the other cues in schema order: one
    ``randrange`` of their count, stepped past the current cue's index.
    """
    index = rng.randrange(len(g.chromosomes))
    cues = schema.categories[index].cues
    if len(cues) == 1:
        return g
    current = cues.index(g.chromosomes[index][0])
    pick = rng.randrange(len(cues) - 1)
    chromosomes = list(g.chromosomes)
    chromosomes[index] = (cues[pick + (pick >= current)],)
    return Genotype(chromosomes)


def crossover_variable(p1: Genotype, p2: Genotype, rng: Random) -> Genotype:
    """Positional crossover with 0.5 inheritance of the longer parent's extras.

    Per chromosome: positions shared by both parents take either parent's cue
    with probability 0.5; each position present only in the longer parent is
    inherited with probability 0.5. Duplicates created by the mix (parents can
    hold the same cue at different positions) are then removed, keeping the
    first occurrence.
    """
    _check_same_shape(p1, p2)
    child: list[tuple[Cue, ...]] = []
    for a, b in zip(p1.chromosomes, p2.chromosomes):
        shared = min(len(a), len(b))
        longer = a if len(a) >= len(b) else b
        mixed = [a[i] if rng.random() < 0.5 else b[i] for i in range(shared)]
        for extra in longer[shared:]:
            if rng.random() < 0.5:
                mixed.append(extra)
        child.append(dedup(mixed))
    return Genotype(child)


def mutate_variable(g: Genotype, schema: CueSchema, rng: Random) -> Genotype:
    """Apply one of swap / delete / add to one uniformly chosen chromosome.

    Swap replaces a uniformly chosen cue with a uniformly chosen allowable cue
    (possibly the same one); on an empty chromosome it adds a cue instead.
    Delete removes a uniformly chosen cue and is a no-op on an empty
    chromosome. Add appends a uniformly chosen allowable cue. Duplicates are
    removed afterwards, keeping the first occurrence.
    """
    index = rng.randrange(len(g.chromosomes))
    op = rng.choice(_VARIABLE_OPS)
    chromosome = list(g.chromosomes[index])
    category = schema.categories[index]
    if op == "swap":
        if chromosome:
            chromosome[rng.randrange(len(chromosome))] = rng.choice(category.cues)
        else:
            chromosome.append(rng.choice(category.cues))
    elif op == "delete":
        if chromosome:
            del chromosome[rng.randrange(len(chromosome))]
    else:
        chromosome.append(rng.choice(category.cues))
    chromosomes = list(g.chromosomes)
    chromosomes[index] = dedup(chromosome)
    return Genotype(chromosomes)
