"""Crossover and mutation operator contracts for both encodings."""

from __future__ import annotations

import math
from random import Random

import pytest

from clear_ga.genome import (
    crossover_fixed,
    crossover_variable,
    dedup,
    mutate_fixed,
    mutate_variable,
)
from clear_ga.schema import Genotype, random_genotype, validate_genotype

from conftest import build_schema


class TestDedup:
    def test_adjacent_duplicate(self):
        assert dedup(["brick", "brick"]) == ("brick",)

    def test_first_occurrence_kept(self):
        assert dedup(["a", "b", "a", "c", "b"]) == ("a", "b", "c")

    def test_empty(self):
        assert dedup([]) == ()


class TestCrossoverFixed:
    def test_children_drawn_from_parent_loci(self):
        p1 = Genotype((("a1",), ("b1",)))
        p2 = Genotype((("a2",), ("b2",)))
        rng = Random(0)
        seen = set()
        for _ in range(200):
            child = crossover_fixed(p1, p2, rng)
            assert child.chromosomes[0] in (("a1",), ("a2",))
            assert child.chromosomes[1] in (("b1",), ("b2",))
            seen.add(child.chromosomes)
        assert len(seen) == 4  # all combinations occur

    def test_identical_parents_give_identical_child(self):
        p = Genotype((("a1",), ("b1",)))
        assert crossover_fixed(p, p, Random(1)) == p

    def test_mismatched_shape_rejected(self):
        with pytest.raises(ValueError, match="chromosomes"):
            crossover_fixed(Genotype((("a",),)), Genotype((("a",), ("b",))), Random(0))

    def test_per_locus_inheritance_is_half(self):
        p1 = Genotype((("a1",), ("b1",), ("c1",)))
        p2 = Genotype((("a2",), ("b2",), ("c2",)))
        rng = Random(13)
        n = 10000
        from_p1 = [0, 0, 0]
        for _ in range(n):
            child = crossover_fixed(p1, p2, rng)
            for locus in range(3):
                if child.chromosomes[locus] == p1.chromosomes[locus]:
                    from_p1[locus] += 1
        sigma = math.sqrt(n * 0.25)
        for count in from_p1:
            assert abs(count - n / 2) <= 3 * sigma


def choice_mutate_fixed(g: Genotype, schema, rng: Random) -> Genotype:
    """The reference ``mutate_fixed``: ``rng.choice`` over a list of the other
    cues of the chosen category, in schema order."""
    index = rng.randrange(len(g.chromosomes))
    category = schema.categories[index]
    if len(category.cues) == 1:
        return g
    current = g.chromosomes[index][0]
    replacement = rng.choice([c for c in category.cues if c != current])
    chromosomes = list(g.chromosomes)
    chromosomes[index] = (replacement,)
    return Genotype(tuple(chromosomes))


class TestMutateFixed:
    def test_equals_a_choice_over_the_other_cues(self):
        # Sizes around powers of two, where the draw's bit count changes.
        schema = build_schema(category_sizes=(1, 2, 3, 4, 5, 8, 9, 12, 17, 64, 65))
        for seed in range(300):
            stepped, reference = Random(seed), Random(seed)
            g = random_genotype(schema, Random(-seed))
            for _ in range(20):
                child = mutate_fixed(g, schema, stepped)
                assert child == choice_mutate_fixed(g, schema, reference)
                assert stepped.getstate() == reference.getstate()
                g = child

    def test_switches_to_a_different_cue_of_same_category(self):
        schema = build_schema(category_sizes=(3,))
        g = Genotype((("c0_0",),))
        rng = Random(2)
        seen = set()
        for _ in range(100):
            mutated = mutate_fixed(g, schema, rng)
            assert mutated.chromosomes[0][0] in ("c0_1", "c0_2")
            seen.add(mutated.chromosomes[0][0])
        assert seen == {"c0_1", "c0_2"}

    def test_size_one_category_unchanged(self):
        schema = build_schema(category_sizes=(1,))
        g = Genotype((("c0_0",),))
        assert mutate_fixed(g, schema, Random(3)) == g

    def test_exactly_one_locus_touched(self):
        schema = build_schema(category_sizes=tuple([4] * 8))
        rng = Random(4)
        g = random_genotype(schema, rng)
        for _ in range(50):
            mutated = mutate_fixed(g, schema, rng)
            unchanged = sum(
                mutated.chromosomes[i] == g.chromosomes[i] for i in range(8)
            )
            assert unchanged in (7, 8)  # 8 only if a size-1 category drawn; none here
            assert unchanged == 7


class TestCrossoverVariable:
    def possible_children(self):
        # Independent enumeration of the recombination rule for the worked
        # example: shared positions from either parent, the extra cue kept or
        # dropped, duplicates then removed keeping the first occurrence.
        children = set()
        for pos0 in ("brick", "laminated"):
            for pos1 in ("concrete", "brick"):
                for extra in ((), ("wood",)):
                    children.add(dedup((pos0, pos1) + extra))
        return children

    def test_worked_example_outcomes(self):
        p1 = Genotype((("brick", "concrete", "wood"),))
        p2 = Genotype((("laminated", "brick"),))
        expected = self.possible_children()
        rng = Random(5)
        seen = set()
        for _ in range(2000):
            child = crossover_variable(p1, p2, rng)
            assert child.chromosomes[0] in expected
            seen.add(child.chromosomes[0])
        assert seen == expected
        assert ("brick",) in seen  # the overspecified child, deduped
        assert ("laminated", "concrete", "wood") in seen

    def test_empty_chromosomes(self):
        g = Genotype(((),))
        assert crossover_variable(g, g, Random(0)) == g

    def test_identical_parents_reproduce_exactly(self):
        p = Genotype((("x", "y", "z"), ("q",)))
        for seed in range(20):
            assert crossover_variable(p, p, Random(seed)) == p

    def test_mismatched_shape_rejected(self):
        with pytest.raises(ValueError, match="chromosomes"):
            crossover_variable(Genotype(((),)), Genotype(((), ())), Random(0))

    def test_no_spontaneous_cues_and_length_bound(self):
        schema = build_schema(category_sizes=(6, 6, 6))
        rng = Random(6)
        for _ in range(500):
            parents = []
            for _ in range(2):
                chromosomes = tuple(
                    tuple(rng.sample(c.cues, rng.randint(0, len(c.cues))))
                    for c in schema.categories
                )
                parents.append(Genotype(chromosomes))
            child = crossover_variable(parents[0], parents[1], rng)
            for i, chromosome in enumerate(child.chromosomes):
                a = parents[0].chromosomes[i]
                b = parents[1].chromosomes[i]
                assert set(chromosome) <= set(a) | set(b)
                assert len(chromosome) <= max(len(a), len(b))


class TestMutateVariable:
    def test_delete_on_empty_is_noop(self):
        schema = build_schema(category_sizes=(3,))
        g = Genotype(((),))
        rng = Random(1)
        outcomes = {mutate_variable(g, schema, rng).chromosomes for _ in range(300)}
        assert ((),) in outcomes  # delete path
        assert all(len(ch[0]) <= 1 for ch in outcomes)  # swap-on-empty adds, add adds

    def test_add_then_dedup(self):
        schema = build_schema(category_sizes=(1,))
        g = Genotype((("c0_0",),))
        for seed in range(30):
            mutated = mutate_variable(g, schema, Random(seed))
            assert mutated.chromosomes[0] in ((), ("c0_0",))

    def test_at_most_one_chromosome_changes(self):
        schema = build_schema(category_sizes=(4, 4, 4, 4))
        rng = Random(8)
        for _ in range(400):
            chromosomes = tuple(
                tuple(rng.sample(c.cues, rng.randint(0, len(c.cues))))
                for c in schema.categories
            )
            g = Genotype(chromosomes)
            mutated = mutate_variable(g, schema, rng)
            changed = [
                i for i in range(4) if mutated.chromosomes[i] != g.chromosomes[i]
            ]
            assert len(changed) <= 1
            if changed:
                before = set(g.chromosomes[changed[0]])
                after = set(mutated.chromosomes[changed[0]])
                assert len(before - after) <= 2  # swap can also collapse a duplicate
                assert len(after - before) <= 1

    def test_reachability_on_small_schema(self):
        # Constructive check: enumerate the one-step successor relation implied
        # by the operator definitions over the 2-category, 3-cue search space
        # (order-free states), and confirm the empty and full genotypes are
        # reachable from every state; then confirm mutate_variable only ever
        # produces states inside the analytic successor set.
        schema = build_schema(category_sizes=(3, 3))
        cues = [set(c.cues) for c in schema.categories]

        def successors(state: tuple[frozenset, frozenset]) -> set[tuple[frozenset, frozenset]]:
            out = set()
            for i in range(2):
                current = state[i]
                variants = set()
                if current:
                    for cue in current:
                        variants.add(current - {cue})  # delete
                        for replacement in cues[i]:
                            variants.add((current - {cue}) | {replacement})  # swap
                else:
                    variants.update(frozenset({c}) for c in cues[i])  # swap-on-empty
                    variants.add(current)  # delete no-op
                for addition in cues[i]:
                    variants.add(current | {addition})  # add (dedup folds repeats)
                for v in variants:
                    nxt = list(state)
                    nxt[i] = frozenset(v)
                    out.add(tuple(nxt))
            return out

        from itertools import combinations

        def powerset(s):
            return [frozenset(c) for r in range(len(s) + 1) for c in combinations(s, r)]

        states = [(a, b) for a in powerset(cues[0]) for b in powerset(cues[1])]
        empty = (frozenset(), frozenset())
        full = (frozenset(cues[0]), frozenset(cues[1]))
        for start in states:
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nxt in successors(node):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert empty in seen and full in seen

        rng = Random(10)
        for _ in range(500):
            state = (
                frozenset(rng.sample(sorted(cues[0]), rng.randint(0, 3))),
                frozenset(rng.sample(sorted(cues[1]), rng.randint(0, 3))),
            )
            g = Genotype(tuple(tuple(sorted(s)) for s in state))
            mutated = mutate_variable(g, schema, rng)
            result = tuple(frozenset(ch) for ch in mutated.chromosomes)
            assert result in successors(state) | {state}


class TestClosure:
    def test_operators_preserve_invariants(self):
        rng = Random(12)
        for _ in range(1000):
            sizes = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 5)))
            schema = build_schema(category_sizes=sizes)
            # fixed mode
            p1 = random_genotype(schema, rng)
            p2 = random_genotype(schema, rng)
            child = mutate_fixed(crossover_fixed(p1, p2, rng), schema, rng)
            validate_genotype(child, schema, mode="fixed")
            # variable mode, from arbitrary valid variable-length parents
            parents = []
            for _ in range(2):
                chromosomes = tuple(
                    tuple(rng.sample(c.cues, rng.randint(0, len(c.cues))))
                    for c in schema.categories
                )
                parents.append(Genotype(chromosomes))
            child = mutate_variable(crossover_variable(parents[0], parents[1], rng), schema, rng)
            validate_genotype(child, schema, mode="variable")
            assert len(child.chromosomes) == schema.category_count
