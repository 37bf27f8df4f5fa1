"""Tests for repro.core.wcdp (the paper's §3.1 WCDP rule)."""

import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.patterns import WCDP_NAME
from repro.core.results import (
    REGIONS,
    BerRecord,
    CharacterizationDataset,
    HcFirstRecord,
)
from repro.core.wcdp import (
    append_wcdp_records,
    derive_wcdp_records,
    select_wcdp,
    wcdp_assignments,
)
from repro.errors import AnalysisError


def ber(pattern, flips, row=10):
    return BerRecord(channel=0, pseudo_channel=0, bank=0, row=row,
                     region="first", pattern=pattern, repetition=0,
                     hammer_count=262144, flips=flips, row_bits=8192,
                     duration_s=0.025)


def hc(pattern, hc_first, row=10):
    return HcFirstRecord(channel=0, pseudo_channel=0, bank=0, row=row,
                         region="first", pattern=pattern, repetition=0,
                         hc_first=hc_first, max_hammers=262144, probes=10,
                         flips_at_max=5)


ROW_KEY = (0, 0, 0, 10)


class TestSelectionRule:
    def test_smallest_hcfirst_wins(self):
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", 50_000), hc("Rowstripe1", 40_000),
                        ber("Rowstripe0", 100), ber("Rowstripe1", 50)])
        assert select_wcdp(dataset, ROW_KEY) == "Rowstripe1"

    def test_tie_broken_by_largest_ber(self):
        """Paper: ties on HC_first go to the largest BER at 256K."""
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", 40_000), hc("Rowstripe1", 40_000),
                        ber("Rowstripe0", 100), ber("Rowstripe1", 200)])
        assert select_wcdp(dataset, ROW_KEY) == "Rowstripe1"

    def test_censored_patterns_lose_to_uncensored(self):
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", None), hc("Checkered0", 200_000),
                        ber("Rowstripe0", 500), ber("Checkered0", 1)])
        assert select_wcdp(dataset, ROW_KEY) == "Checkered0"

    def test_all_censored_falls_back_to_ber(self):
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", None), hc("Rowstripe1", None),
                        ber("Rowstripe0", 3), ber("Rowstripe1", 9)])
        assert select_wcdp(dataset, ROW_KEY) == "Rowstripe1"

    def test_ber_only_dataset_uses_largest_ber(self):
        dataset = CharacterizationDataset()
        dataset.extend([ber("Rowstripe0", 3), ber("Checkered1", 9)])
        assert select_wcdp(dataset, ROW_KEY) == "Checkered1"

    def test_repetitions_use_best_hcfirst(self):
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", 60_000), hc("Rowstripe0", 30_000),
                        hc("Rowstripe1", 40_000)])
        assert select_wcdp(dataset, ROW_KEY) == "Rowstripe0"

    def test_unknown_row_raises(self):
        with pytest.raises(AnalysisError):
            select_wcdp(CharacterizationDataset(), ROW_KEY)


class TestDerivedRecords:
    @pytest.fixture
    def dataset(self):
        dataset = CharacterizationDataset()
        dataset.extend([
            hc("Rowstripe0", 50_000, row=1), hc("Rowstripe1", 90_000, row=1),
            ber("Rowstripe0", 100, row=1), ber("Rowstripe1", 10, row=1),
            hc("Rowstripe0", 90_000, row=2), hc("Rowstripe1", 50_000, row=2),
            ber("Rowstripe0", 10, row=2), ber("Rowstripe1", 100, row=2),
        ])
        return dataset

    def test_assignments_are_per_row(self, dataset):
        assignments = wcdp_assignments(dataset)
        assert assignments[(0, 0, 0, 1)] == "Rowstripe0"
        assert assignments[(0, 0, 0, 2)] == "Rowstripe1"

    def test_derived_records_copy_the_chosen_pattern(self, dataset):
        ber_records, hc_records = derive_wcdp_records(dataset)
        assert len(ber_records) == 2
        assert len(hc_records) == 2
        by_row = {record.row: record for record in ber_records}
        assert by_row[1].flips == 100
        assert by_row[2].flips == 100
        assert all(record.pattern == "WCDP" for record in ber_records)

    def test_append_is_idempotent_on_wcdp(self, dataset):
        append_wcdp_records(dataset)
        first_count = len(dataset.ber_records)
        append_wcdp_records(dataset)
        # Re-appending adds the same number again (WCDP inputs are
        # excluded from selection), so the count grows by the same 2.
        assert len(dataset.ber_records) == first_count + 2


# ----------------------------------------------------------------------
# The one-pass grouping against select_wcdp, the per-row oracle
# ----------------------------------------------------------------------
def outcome(call):
    """``("ok", value)``, or ``("raises", type)`` if ``call`` raises."""
    try:
        return "ok", call()
    except Exception as error:  # the oracle's exception type is the spec
        return "raises", type(error)


def per_row_assignments(dataset):
    """WCDP per row by calling the oracle once per row, in key order."""
    row_keys = sorted({record.row_key for record in
                       dataset.ber_records + dataset.hcfirst_records})
    return [(row_key, select_wcdp(dataset, row_key)) for row_key in row_keys]


def per_row_derived(dataset):
    """The WCDP copies, asking the oracle for each record's row."""
    def chosen(records):
        return [replace(record, pattern=WCDP_NAME) for record in records
                if record.pattern != WCDP_NAME
                and select_wcdp(dataset, record.row_key) == record.pattern]
    return chosen(dataset.ber_records), chosen(dataset.hcfirst_records)


def assert_matches_oracle(dataset):
    expected = outcome(lambda: per_row_assignments(dataset))
    grouped = outcome(lambda: list(wcdp_assignments(dataset).items()))
    assert grouped == expected
    derived = outcome(lambda: derive_wcdp_records(dataset))
    if expected[0] == "ok":
        assert derived == ("ok", per_row_derived(dataset))
    else:
        assert derived == expected


def dataset_of(records):
    dataset = CharacterizationDataset()
    dataset.extend(records)
    return dataset


def rep(record, repetition):
    return replace(record, repetition=repetition)


def generated_record(kind, pattern, flips, hc_first, row, repetition):
    value = flips if kind is ber else hc_first
    return rep(kind(pattern, value, row=row), repetition)


#: Hand-built datasets, one per case the grouping must get right.
ORACLE_CASES = {
    "interleaved-rows-and-repetitions": [
        ber("Rowstripe0", 7, row=2), hc("Rowstripe1", 40_000, row=1),
        rep(ber("Rowstripe1", 3, row=1), 1), ber("Rowstripe0", 5, row=1),
        rep(hc("Rowstripe1", 30_000, row=2), 1), ber("Rowstripe1", 9, row=2),
        rep(ber("Rowstripe0", 1, row=2), 1), hc("Rowstripe0", 30_000, row=2),
        rep(hc("Rowstripe0", 20_000, row=1), 1), ber("Rowstripe1", 6, row=1),
    ],
    "hcfirst-tie-broken-by-ber": [
        hc("Rowstripe0", 40_000), hc("Checkered1", 40_000),
        hc("Rowstripe1", 90_000), ber("Rowstripe0", 10),
        ber("Checkered1", 20), ber("Rowstripe1", 99),
    ],
    "all-censored": [
        hc("Rowstripe0", None), hc("Rowstripe1", None),
        ber("Rowstripe0", 3), ber("Rowstripe1", 9),
    ],
    "ber-only-and-hcfirst-only-rows": [
        ber("Rowstripe0", 3, row=1), ber("Checkered1", 9, row=1),
        hc("Rowstripe0", 70_000, row=2), hc("Checkered1", 50_000, row=2),
    ],
    "already-holds-wcdp": [
        hc("Rowstripe0", 50_000), hc("Rowstripe1", 40_000),
        ber("Rowstripe0", 100), ber("Rowstripe1", 50),
        hc(WCDP_NAME, 10_000), ber(WCDP_NAME, 8_000),
    ],
    "wcdp-only-ber-row": [ber(WCDP_NAME, 5)],
    "wcdp-only-hcfirst-row": [hc(WCDP_NAME, 10_000)],
    "wcdp-only-hcfirst-next-to-ber": [hc(WCDP_NAME, 10_000),
                                      ber("Rowstripe0", 5)],
}


class TestGroupedSelectionMatchesOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_case(self, case):
        assert_matches_oracle(dataset_of(ORACLE_CASES[case]))

    def test_after_append(self):
        dataset = dataset_of(ORACLE_CASES["interleaved-rows-and-repetitions"])
        append_wcdp_records(dataset)
        assert_matches_oracle(dataset)

    @given(st.lists(st.builds(
        generated_record,
        kind=st.sampled_from((ber, hc)),
        pattern=st.sampled_from(("Rowstripe0", "Rowstripe1", "Checkered0",
                                 WCDP_NAME)),
        # Few distinct values, so BER and HC_first ties are common.
        flips=st.integers(min_value=0, max_value=3),
        hc_first=st.sampled_from((None, 20_000, 30_000)),
        row=st.integers(min_value=1, max_value=4),
        repetition=st.integers(min_value=0, max_value=2)),
        max_size=40))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_datasets(self, records):
        assert_matches_oracle(dataset_of(records))


class TestPaperDensity:
    """8 channels x 3 regions x 3,072 rows: the paper's Fig. 3 grid."""

    PATTERNS = ("Rowstripe0", "Rowstripe1", "Checkered0", "Checkered1")

    def test_append_is_linear_at_paper_density(self):
        dataset = CharacterizationDataset()
        for channel in range(8):
            for index, region in enumerate(REGIONS):
                for row in range(index * 5_000, index * 5_000 + 3_072):
                    for rank, pattern in enumerate(self.PATTERNS):
                        dataset.ber_records.append(BerRecord(
                            channel, 0, 0, row, region, pattern, 0, 262144,
                            (row * 7 + rank) % 41, 8192, 0.025))
                        hc_first = (None if (row + rank) % 13 == 0 else
                                    20_000 + (row + rank) % 4 * 1_000)
                        dataset.hcfirst_records.append(HcFirstRecord(
                            channel, 0, 0, row, region, pattern, 0,
                            hc_first, 262144, 18, 3))
        rows = 8 * len(REGIONS) * 3_072
        started = time.monotonic()
        append_wcdp_records(dataset)
        # Grouping takes about 3 s here; rescanning per row takes hours.
        assert time.monotonic() - started < 60.0
        for records in (dataset.ber_records, dataset.hcfirst_records):
            wcdp_rows = [record.row_key for record in records
                         if record.pattern == WCDP_NAME]
            assert len(wcdp_rows) == rows
            assert len(set(wcdp_rows)) == rows
