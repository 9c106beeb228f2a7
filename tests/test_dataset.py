"""Manifest loading, truth cleaning, and the stratified split."""

from __future__ import annotations

from random import Random

import pytest

from clear_ga.dataset import DatasetError, load_manifest, manifest_digest, split_records
from clear_ga.fitness import HeatingClass, WindowClass, YearRange
from clear_ga.schema import DataItem

from conftest import write_manifest


def entry(building_id: str, **overrides) -> dict:
    doc = {
        "id": building_id,
        "region": "UK",
        "image_sets": {},
        "truth": {
            "age": "1990-2020",
            "lighting_pct": 40,
            "heating": "water_radiators",
            "windows": "double",
            "energy_kwh_m2": 150,
        },
    }
    truth_overrides = overrides.pop("truth", {})
    doc.update(overrides)
    doc["truth"] = {**doc["truth"], **truth_overrides}
    return doc


class TestLoadManifest:
    def test_happy_path_with_images(self, tmp_path):
        image = tmp_path / "img" / "front.jpg"
        image.parent.mkdir()
        image.write_bytes(b"\xff\xd8fake")
        manifest = write_manifest(
            tmp_path / "data.json",
            [entry("b1", image_sets={"building": ["img/front.jpg"], "windows": []})],
        )
        records = load_manifest(manifest, current_year=2025)
        assert len(records) == 1
        record = records[0]
        assert record.id == "b1"
        assert record.image_sets["building"][0] == image
        assert record.image_sets["heating"] == ()
        assert record.truth.age == YearRange(1990, 2020)
        assert record.truth.heating is HeatingClass.WATER_RADIATORS
        assert record.truth.windows is WindowClass.DOUBLE

    def test_age_cleaning_forms(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "data.json",
            [
                entry("b1", truth={"age": 2014}),
                entry("b2", truth={"age": "19th century"}),
                entry("b3", truth={"age": "before 1900"}),
                entry("b4", truth={"age": "2020-now"}),
            ],
        )
        records = load_manifest(manifest, current_year=2030)
        assert records[0].truth.age == YearRange(2014, 2014)
        assert records[1].truth.age == YearRange(1801, 1900)
        assert records[2].truth.age == YearRange(1000, 1899)
        assert records[3].truth.age == YearRange(2020, 2030)

    def test_class_aliases(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "data.json",
            [entry("b1", truth={"heating": "electric panels", "windows": "single glazed"})],
        )
        record = load_manifest(manifest, current_year=2025)[0]
        assert record.truth.heating is HeatingClass.ELECTRIC_PANEL
        assert record.truth.windows is WindowClass.SINGLE

    def test_missing_image_file(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "data.json", [entry("b1", image_sets={"building": ["gone.jpg"]})]
        )
        with pytest.raises(DatasetError, match="image file not found"):
            load_manifest(manifest, current_year=2025)

    @pytest.mark.parametrize("path", [5, None, True, ["front.jpg"], {"p": "front.jpg"}])
    def test_image_path_that_is_not_a_string_rejected(self, tmp_path, path):
        (tmp_path / "front.jpg").write_bytes(b"\xff\xd8fake")
        manifest = write_manifest(
            tmp_path / "data.json", [entry("b1", image_sets={"building": ["front.jpg", path]})]
        )
        with pytest.raises(DatasetError, match=r"^buildings\[0\]\.building: must be an array "
                                               r"of file paths$"):
            load_manifest(manifest, current_year=2025)

    def test_unknown_image_subset(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "data.json", [entry("b1", image_sets={"garden": []})]
        )
        with pytest.raises(DatasetError, match="unknown image subset"):
            load_manifest(manifest, current_year=2025)

    def test_duplicate_ids_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path / "data.json", [entry("b1"), entry("b1")])
        with pytest.raises(DatasetError, match="duplicate building id"):
            load_manifest(manifest, current_year=2025)

    def test_partial_truth_tolerated(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "data.json",
            [{"id": "b1", "region": "UK", "truth": {"energy_kwh_m2": 99}}],
        )
        record = load_manifest(manifest, current_year=2025)[0]
        assert record.truth.energy_kwh_m2 == 99
        assert record.truth.age is None

    def test_invalid_values_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "data.json", [entry("b1", truth={"lighting_pct": 140})]
        )
        with pytest.raises(DatasetError, match="lighting_pct"):
            load_manifest(manifest, current_year=2025)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("age", [1900, 1950]),
            ("age", 1950.0),
            ("age", True),
            ("age", {"from": 1900}),
            ("lighting_pct", True),
            ("energy_kwh_m2", True),
            ("energy_kwh_m2", float("nan")),
            ("energy_kwh_m2", float("inf")),
        ],
    )
    def test_wrongly_typed_truth_rejected(self, tmp_path, field, value):
        manifest = write_manifest(tmp_path / "data.json", [entry("b1", truth={field: value})])
        with pytest.raises(DatasetError, match=field):
            load_manifest(manifest, current_year=2025)

    def test_not_an_array(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(DatasetError, match="non-empty JSON array"):
            load_manifest(path, current_year=2025)

    def test_digest_tracks_content(self, tmp_path):
        a = write_manifest(tmp_path / "a.json", [entry("b1")])
        b = write_manifest(tmp_path / "b.json", [entry("b1")])
        c = write_manifest(tmp_path / "c.json", [entry("b2")])
        assert manifest_digest(a) == manifest_digest(b)
        assert manifest_digest(a) != manifest_digest(c)


class TestSplitRecords:
    def make_records(self, tmp_path, energies: list[int]):
        manifest = write_manifest(
            tmp_path / "data.json",
            [entry(f"b{i}", truth={"energy_kwh_m2": e}) for i, e in enumerate(energies)],
        )
        return load_manifest(manifest, current_year=2025)

    def test_sixty_forty(self, tmp_path):
        records = self.make_records(tmp_path, [150] * 10)
        train, test = split_records(records, DataItem.ENERGY, Random(0))
        assert len(train) == 6 and len(test) == 4

    def test_disjoint_union(self, tmp_path):
        records = self.make_records(tmp_path, [50, 90, 150, 150, 220, 300, 120, 180, 95, 210])
        train, test = split_records(records, DataItem.ENERGY, Random(1))
        ids = {r.id for r in records}
        assert {r.id for r in train} | {r.id for r in test} == ids
        assert {r.id for r in train} & {r.id for r in test} == set()

    def test_rare_stratum_lands_on_both_sides(self, tmp_path):
        # two <100 buildings among many mid-range: both splits must see one
        records = self.make_records(tmp_path, [50, 60] + [150] * 8)
        train, test = split_records(records, DataItem.ENERGY, Random(2))
        low_train = [r for r in train if r.truth.energy_kwh_m2 < 100]
        low_test = [r for r in test if r.truth.energy_kwh_m2 < 100]
        assert len(low_train) == 1 and len(low_test) == 1

    def test_singleton_stratum_goes_to_training(self, tmp_path):
        records = self.make_records(tmp_path, [50] + [150] * 5)
        train, test = split_records(records, DataItem.ENERGY, Random(3))
        assert any(r.truth.energy_kwh_m2 == 50 for r in train)
        assert all(r.truth.energy_kwh_m2 != 50 for r in test)

    def test_deterministic_given_seed(self, tmp_path):
        records = self.make_records(tmp_path, [50, 90, 150, 150, 220, 300, 120, 180])
        first = split_records(records, DataItem.ENERGY, Random(9))
        second = split_records(records, DataItem.ENERGY, Random(9))
        assert [r.id for r in first[0]] == [r.id for r in second[0]]
        assert [r.id for r in first[1]] == [r.id for r in second[1]]

    def test_missing_truth_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "data.json",
            [{"id": "b1", "region": "UK", "truth": {"windows": "double"}}],
        )
        records = load_manifest(manifest, current_year=2025)
        with pytest.raises(DatasetError, match="no truth"):
            split_records(records, DataItem.ENERGY, Random(0))
