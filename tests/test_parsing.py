"""Answer extraction and per-item parsers."""

from __future__ import annotations

import pytest

from clear_ga.fitness import HeatingClass, ValueRange, WindowClass, YearRange
from clear_ga.items import parse_estimate
from clear_ga.parsing import (
    ParseError,
    extract_delimited,
    parse_age,
    parse_categorical,
    parse_lighting,
    parse_numeric,
)
from clear_ga.prompts import (
    AGE_ANSWER_OPTIONS,
    HEATING_ANSWER_OPTIONS,
    LIGHTING_ANSWER_OPTIONS,
    WINDOWS_ANSWER_OPTIONS,
)
from clear_ga.schema import DataItem

CURRENT_YEAR = 2025


class TestExtractDelimited:
    def test_single_pair(self):
        assert extract_delimited("...reasoning... ### double glazed ###") == "double glazed"

    def test_minimal(self):
        assert extract_delimited("### 120 ###") == "120"

    def test_no_delimiters(self):
        with pytest.raises(ParseError):
            extract_delimited("no delimiters here")

    def test_unpaired_delimiter(self):
        with pytest.raises(ParseError):
            extract_delimited("only one ### marker")

    def test_last_complete_pair_wins(self):
        text = "options are ### a ### or ### b ### final answer ### c ###"
        assert extract_delimited(text) == "c"

    def test_trailing_unpaired_after_complete_pair(self):
        assert extract_delimited("### answer ### and ### dangling") == "answer"


class TestParseAge:
    def test_nineteenth_century(self):
        assert parse_age("19th century", CURRENT_YEAR) == YearRange(1801, 1900)

    def test_before_1900(self):
        assert parse_age("before 1900", CURRENT_YEAR) == YearRange(1000, 1899)

    def test_exact_year(self):
        assert parse_age("2014", CURRENT_YEAR) == YearRange(2014, 2014)

    def test_span(self):
        assert parse_age("2007-2011", CURRENT_YEAR) == YearRange(2007, 2011)

    def test_now_bound_comes_from_config(self):
        assert parse_age("2020-now", 2031) == YearRange(2020, 2031)

    def test_case_and_whitespace_insensitive(self):
        assert parse_age("  Before   1900 ", CURRENT_YEAR) == YearRange(1000, 1899)
        assert parse_age("19TH CENTURY", CURRENT_YEAR) == YearRange(1801, 1900)

    def test_other_centuries(self):
        assert parse_age("21st century", CURRENT_YEAR) == YearRange(2001, 2100)
        assert parse_age("2nd century", CURRENT_YEAR) == YearRange(101, 200)

    def test_integer_passthrough(self):
        assert parse_age(2014, CURRENT_YEAR) == YearRange(2014, 2014)

    def test_reversed_span_normalized(self):
        assert parse_age("2011-2007", CURRENT_YEAR) == YearRange(2007, 2011)

    def test_unrecognized_forms_rejected(self):
        for bad in ("Victorian", "old", "circa 1900s", ""):
            with pytest.raises(ParseError):
                parse_age(bad, CURRENT_YEAR)

    def test_all_prompt_options_parse(self):
        expected = {
            "before 1900": YearRange(1000, 1899),
            "1900-1930": YearRange(1900, 1930),
            "1930-1950": YearRange(1930, 1950),
            "1950-1970": YearRange(1950, 1970),
            "1970-1990": YearRange(1970, 1990),
            "1990-2020": YearRange(1990, 2020),
            "2020-now": YearRange(2020, CURRENT_YEAR),
        }
        assert set(expected) == set(AGE_ANSWER_OPTIONS)
        for option, value in expected.items():
            assert parse_age(option, CURRENT_YEAR) == value


class TestParseLighting:
    def test_all_prompt_options_parse(self):
        expected = {
            "no low energy lighting": 0,
            "low energy in 20%": 20,
            "low energy in 40%": 40,
            "low energy in 60%": 60,
            "low energy in 80%": 80,
            "low energy in 100%": 100,
        }
        assert set(expected) == set(LIGHTING_ANSWER_OPTIONS)
        for option, value in expected.items():
            assert parse_lighting(option) == value

    def test_bare_percentage_tolerated(self):
        assert parse_lighting("86%") == 86

    def test_off_menu_bucket_rejected(self):
        with pytest.raises(ParseError):
            parse_lighting("low energy in 50%")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            parse_lighting("150%")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_lighting("mostly LEDs")


class TestParseCategorical:
    def test_windows_numbered_option(self):
        assert parse_categorical("(2) double glazed", WINDOWS_ANSWER_OPTIONS) is WindowClass.DOUBLE

    def test_windows_without_numbering(self):
        assert parse_categorical("double glazed", WINDOWS_ANSWER_OPTIONS) is WindowClass.DOUBLE

    def test_heating_option(self):
        assert (
            parse_categorical("water radiators", HEATING_ANSWER_OPTIONS)
            is HeatingClass.WATER_RADIATORS
        )

    def test_invented_option_rejected(self):
        with pytest.raises(ParseError):
            parse_categorical("triple-pane", WINDOWS_ANSWER_OPTIONS)

    def test_ambiguous_substring_rejected(self):
        with pytest.raises(ParseError, match="ambiguous"):
            parse_categorical("glazed", WINDOWS_ANSWER_OPTIONS)

    def test_case_and_punctuation_insensitive(self):
        assert parse_categorical("Double-Glazed.", WINDOWS_ANSWER_OPTIONS) is WindowClass.DOUBLE
        assert (
            parse_categorical("ELECTRIC STORAGE HEATERS", HEATING_ANSWER_OPTIONS)
            is HeatingClass.ELECTRIC_STORAGE
        )

    def test_payload_containing_option(self):
        answer = "the apartment has (3) high efficiency double or triple glazed windows"
        assert parse_categorical(answer, WINDOWS_ANSWER_OPTIONS) is WindowClass.HIGH_EFFICIENCY

    def test_all_heating_options(self):
        for text, value in HEATING_ANSWER_OPTIONS:
            assert parse_categorical(text, HEATING_ANSWER_OPTIONS) is value

    def test_all_windows_options(self):
        for text, value in WINDOWS_ANSWER_OPTIONS:
            assert parse_categorical(text, WINDOWS_ANSWER_OPTIONS) is value


class TestParseNumeric:
    def test_point(self):
        assert parse_numeric("120") == ValueRange(120, 120)

    def test_range_with_unit(self):
        assert parse_numeric("100-200 kwh") == ValueRange(100, 200)

    def test_decimal(self):
        assert parse_numeric("2.3") == ValueRange(2.3, 2.3)

    def test_unit_with_embedded_digit_stripped(self):
        assert parse_numeric("120 kWh/m2") == ValueRange(120, 120)
        assert parse_numeric("kwh: 120") == ValueRange(120, 120)

    def test_reversed_range_normalized(self):
        assert parse_numeric("200-100") == ValueRange(100, 200)

    def test_no_number(self):
        with pytest.raises(ParseError):
            parse_numeric("quite a lot")

    @pytest.mark.parametrize(
        "payload",
        ["9" * 400, f"{'9' * 400} kWh/m2", f"120-{'9' * 400}", f"{'9' * 400}-120"],
        ids=["point", "point-with-unit", "span-end", "span-start"],
    )
    def test_number_past_the_float_range_rejected(self, payload):
        # float() reads it as infinity, which no error function can score.
        with pytest.raises(ParseError, match="float range"):
            parse_numeric(payload)

    def test_largest_finite_numbers_still_parse(self):
        big = "9" * 308
        assert parse_numeric(big) == ValueRange(float(big), float(big))


class TestParseNumericSignsAndSeparators:
    @pytest.mark.parametrize(
        "payload",
        [
            "-40", "-40 kWh/m2", "about -40", "-100-200", "100--200",
            "–40", "−40", "−2.5 W/m2K", "about –40 kWh/m2",  # en dash, minus sign
        ],
    )
    def test_negative_number_rejected(self, payload):
        with pytest.raises(ParseError):
            parse_numeric(payload)

    def test_negative_answers_rejected_for_energy_and_uvalue(self):
        with pytest.raises(ParseError):
            parse_estimate(DataItem.ENERGY, "-40", CURRENT_YEAR)
        with pytest.raises(ParseError):
            parse_estimate(DataItem.WINDOWS_UVALUE, "-2.5", CURRENT_YEAR)

    @pytest.mark.parametrize(
        "payload", ["100-200", "100 - 200", "100 – 200", "100–200", "100–200 kWh/m2", "100 − 200"]
    )
    def test_spans_still_parse_as_ranges(self, payload):
        assert parse_numeric(payload) == ValueRange(100, 200)

    @pytest.mark.parametrize("payload", ["1,200 kWh/m2", "1,200", "12,000-15,000", "2,5"])
    def test_comma_between_digits_rejected(self, payload):
        with pytest.raises(ParseError):
            parse_numeric(payload)

    def test_thousands_separator_rejected_for_energy(self):
        with pytest.raises(ParseError):
            parse_estimate(DataItem.ENERGY, "1,200 kWh/m2", CURRENT_YEAR)

    def test_comma_not_between_digits_tolerated(self):
        assert parse_numeric("120, roughly") == ValueRange(120, 120)


class TestParseEstimate:
    def test_round_trip_every_canonical_option(self):
        # Delimit each canonical option string as the estimator would emit it,
        # then confirm the per-item parser lands on the intended typed value.
        cases = []
        for option in AGE_ANSWER_OPTIONS:
            cases.append((DataItem.BUILDING_AGE, option, parse_age(option, CURRENT_YEAR)))
        for option in LIGHTING_ANSWER_OPTIONS:
            cases.append((DataItem.LIGHTING, option, parse_lighting(option)))
        for option, value in HEATING_ANSWER_OPTIONS:
            cases.append((DataItem.HEATING, option, value))
        for option, value in WINDOWS_ANSWER_OPTIONS:
            cases.append((DataItem.WINDOWS, option, value))
        assert len(cases) == 7 + 6 + 5 + 3
        for item, option, expected in cases:
            payload = extract_delimited(f"thinking... ### {option} ###")
            assert parse_estimate(item, payload, CURRENT_YEAR) == expected

    def test_energy_range(self):
        assert parse_estimate(DataItem.ENERGY, "100-200", CURRENT_YEAR) == ValueRange(100, 200)

    def test_uvalue_point(self):
        assert parse_estimate(DataItem.WINDOWS_UVALUE, "2.3", CURRENT_YEAR) == 2.3

    def test_uvalue_range_maps_to_midpoint(self):
        assert parse_estimate(DataItem.WINDOWS_UVALUE, "2.0-3.0", CURRENT_YEAR) == 2.5

    def test_uvalue_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_estimate(DataItem.WINDOWS_UVALUE, "0", CURRENT_YEAR)

    def test_parsers_idempotent_on_canonical_renderings(self):
        age = parse_age("1930-1950", CURRENT_YEAR)
        assert parse_age(f"{age.start}-{age.end}", CURRENT_YEAR) == age
        value = parse_numeric("100-200")
        rendered = f"{value.start:g}-{value.end:g}"
        assert parse_numeric(rendered) == value
