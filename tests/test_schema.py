"""Schema documents, genotypes, keys, and rendering."""

from __future__ import annotations

import json
import math
from random import Random

import pytest

from clear_ga.schema import (
    CueCategory,
    DataItem,
    Genotype,
    SchemaError,
    canonical_key,
    load_schema,
    load_schema_file,
    random_genotype,
    render_cue_list,
    save_schema,
    schema_digest,
    schema_to_json,
    validate_genotype,
)

from conftest import build_schema


def windows_document() -> str:
    """A seven-category windows schema whose first category holds 14 cues."""
    material = [
        "Window Frame Material", "Window Thickness", "Frame Insulation", "Frame Color",
        "Sash Construction", "Sill Material", "Seal Condition", "Glass Pane Count",
        "Spacer Bars", "Frame Joinery", "Trickle Vents", "Glazing Beads",
        "Frame Profile Depth", "Depth of Window Frame",
    ]
    categories = [{"name": "Material and Construction", "cues": material}]
    for i in range(6):
        categories.append(
            {"name": f"Aspect {i}", "cues": [f"aspect {i} cue {j}" for j in range(4)]}
        )
    return json.dumps({"data_item": "windows", "region": "UK", "categories": categories})


class TestLoadSchema:
    def test_seven_category_windows_document(self):
        schema = load_schema(windows_document())
        assert schema.data_item is DataItem.WINDOWS
        assert schema.category_count == 7
        assert len(schema.categories[0].cues) == 14
        assert schema.categories[0].name == "Material and Construction"

    def test_minimal_schema(self):
        schema = load_schema(
            json.dumps({"data_item": "energy", "region": "UK",
                        "categories": [{"name": "only", "cues": ["brick"]}]})
        )
        assert schema.category_count == 1
        assert schema.categories[0].cues == ("brick",)

    def test_duplicate_cue_rejected(self):
        doc = json.dumps({"data_item": "energy", "region": "UK",
                          "categories": [{"name": "c", "cues": ["brick", "brick"]}]})
        with pytest.raises(SchemaError, match="duplicate cue"):
            load_schema(doc)

    def test_duplicate_category_rejected(self):
        doc = json.dumps({"data_item": "energy", "region": "UK",
                          "categories": [{"name": "c", "cues": ["a"]},
                                         {"name": "c", "cues": ["b"]}]})
        with pytest.raises(SchemaError, match="duplicate category"):
            load_schema(doc)

    def test_malformed_json(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_schema("{nope")

    def test_error_names_offending_path(self):
        doc = json.dumps({"data_item": "energy", "region": "UK",
                          "categories": [{"name": "ok", "cues": ["a"]},
                                         {"name": "bad", "cues": ["a", "  "]}]})
        with pytest.raises(SchemaError, match=r"categories\[1\].cues\[1\]"):
            load_schema(doc)

    def test_unknown_data_item(self):
        doc = json.dumps({"data_item": "colour", "region": "UK",
                          "categories": [{"name": "c", "cues": ["a"]}]})
        with pytest.raises(SchemaError, match="data_item"):
            load_schema(doc)

    def test_order_preserved_and_round_trip(self, tmp_path):
        schema = load_schema(windows_document())
        path = tmp_path / "windows.schema.json"
        save_schema(schema, path)
        again = load_schema_file(path)
        assert again == schema
        assert schema_to_json(again) == schema_to_json(schema)
        assert schema_digest(again) == schema_digest(schema)

    def test_untrimmed_cue_rejected_in_direct_construction(self):
        with pytest.raises(SchemaError, match="not trimmed"):
            CueCategory(name="c", cues=(" brick",))

    def test_load_trims_labels(self):
        doc = json.dumps({"data_item": "energy", "region": "UK",
                          "categories": [{"name": "c", "cues": ["  brick  "]}]})
        assert load_schema(doc).categories[0].cues == ("brick",)


class TestRandomGenotype:
    def test_singleton_categories_forced(self):
        schema = build_schema(category_sizes=(1, 1, 1))
        g = random_genotype(schema, Random(5))
        assert g.chromosomes == (("c0_0",), ("c1_0",), ("c2_0",))

    def test_same_seed_same_genotype(self):
        schema = build_schema(category_sizes=(4, 4, 4))
        assert random_genotype(schema, Random(42)) == random_genotype(schema, Random(42))

    def test_one_cue_per_chromosome_and_membership(self):
        schema = build_schema(category_sizes=(2, 5, 9))
        rng = Random(7)
        for _ in range(1000):
            g = random_genotype(schema, rng)
            validate_genotype(g, schema, mode="fixed")

    def test_uniform_within_three_sigma(self):
        schema = build_schema(category_sizes=(2, 4))
        rng = Random(11)
        counts = {"c0_0": 0, "c1_0": 0}
        n = 1000
        for _ in range(n):
            g = random_genotype(schema, rng)
            if g.chromosomes[0][0] == "c0_0":
                counts["c0_0"] += 1
            if g.chromosomes[1][0] == "c1_0":
                counts["c1_0"] += 1
        for expected_p, key in ((0.5, "c0_0"), (0.25, "c1_0")):
            sigma = math.sqrt(n * expected_p * (1 - expected_p))
            assert abs(counts[key] - n * expected_p) <= 3 * sigma


class TestCanonicalKey:
    def test_within_chromosome_order_ignored(self):
        assert canonical_key(Genotype((("brick", "wood"),))) == canonical_key(
            Genotype((("wood", "brick"),))
        )

    def test_chromosome_position_significant(self):
        assert canonical_key(Genotype((("brick",), ("steel",)))) != canonical_key(
            Genotype((("steel",), ("brick",)))
        )

    def test_presence_matters(self):
        assert canonical_key(Genotype(((),))) != canonical_key(Genotype((("brick",),)))

    def test_stable_representation(self):
        # Pinned literal: the key must not change across releases or processes,
        # or old checkpoints would silently lose their cache.
        assert canonical_key(Genotype((("wood", "brick"), ()))) == '[["brick","wood"],[]]'

    def test_shuffle_congruence(self):
        schema = build_schema(category_sizes=(6, 6, 6))
        rng = Random(3)
        for _ in range(200):
            chromosomes = [
                rng.sample(category.cues, rng.randint(0, len(category.cues)))
                for category in schema.categories
            ]
            g = Genotype(tuple(tuple(ch) for ch in chromosomes))
            shuffled = [list(ch) for ch in chromosomes]
            for ch in shuffled:
                rng.shuffle(ch)
            assert canonical_key(Genotype(tuple(tuple(ch) for ch in shuffled))) == canonical_key(g)

    def test_equals_the_json_of_each_chromosome_sorted(self):
        # Empty, one-cue and multi-cue chromosomes; only the last need sorting.
        cases = [
            ((),), (("b",),), ((), ("b",), ("é", "a", "c")), (("wood", "brick"), ("x",), ()),
        ]
        schema = build_schema(category_sizes=(1, 2, 5, 5))
        rng = Random(8)
        for _ in range(200):
            cases.append(tuple(
                tuple(rng.sample(category.cues, rng.randint(0, len(category.cues))))
                for category in schema.categories
            ))
        for chromosomes in cases:
            expected = json.dumps([sorted(ch) for ch in chromosomes], ensure_ascii=False,
                                  separators=(",", ":"))
            assert canonical_key(Genotype(chromosomes)) == expected

    def test_moving_cue_across_chromosomes_changes_key(self):
        g = Genotype((("a", "b"), ("c",)))
        moved = Genotype((("a",), ("c", "b")))
        assert canonical_key(g) != canonical_key(moved)


class TestRenderCueList:
    def test_joins_in_order_skipping_empties(self):
        g = Genotype((("high ceilings", "ceiling rose"), (), ("sash windows",)))
        assert render_cue_list(g) == "high ceilings, ceiling rose, sash windows"

    def test_empty(self):
        assert render_cue_list(Genotype(((), (), ()))) == ""

    def test_single(self):
        assert render_cue_list(Genotype((("Window Frame Material",),))) == "Window Frame Material"

    def test_contains_every_label_exactly_once(self):
        schema = build_schema(category_sizes=(5, 5))
        rng = Random(9)
        for _ in range(100):
            chromosomes = tuple(
                tuple(rng.sample(category.cues, rng.randint(0, len(category.cues))))
                for category in schema.categories
            )
            g = Genotype(chromosomes)
            rendered = render_cue_list(g)
            labels = [cue for _, cue in g.iter_cues()]
            assert rendered == ", ".join(labels)
            for label in labels:
                assert rendered.count(label) == 1


class TestValidateGenotype:
    def test_wrong_chromosome_count(self):
        schema = build_schema(category_sizes=(2, 2))
        with pytest.raises(SchemaError, match="chromosomes"):
            validate_genotype(Genotype((("c0_0",),)), schema)

    def test_foreign_cue(self):
        schema = build_schema(category_sizes=(2, 2))
        with pytest.raises(SchemaError, match="not in category"):
            validate_genotype(Genotype((("c1_0",), ("c1_0",))), schema)

    def test_duplicate_within_chromosome(self):
        schema = build_schema(category_sizes=(3, 3))
        with pytest.raises(SchemaError, match="duplicate"):
            validate_genotype(Genotype((("c0_0", "c0_0"), ("c1_0",))), schema)

    def test_fixed_mode_cardinality(self):
        schema = build_schema(category_sizes=(3, 3))
        with pytest.raises(SchemaError, match="exactly 1"):
            validate_genotype(Genotype((("c0_0", "c0_1"), ("c1_0",))), schema, mode="fixed")
