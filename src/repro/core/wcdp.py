"""Per-row worst-case data pattern (WCDP) selection.

Paper §3.1: *"We define the worst-case data pattern (WCDP) as the data
pattern that causes the smallest HC_first for a given row.  When multiple
data patterns cause the smallest HC_first, we select WCDP as the data
pattern that causes the largest BER at a hammer count of 256K."*

Figures 3 and 4 plot WCDP as a fifth column next to the four Table 1
patterns; Figure 5 uses the per-row WCDP for its row sweep.  This module
derives WCDP views from a dataset containing per-pattern BER and HC_first
records and emits synthesized records carrying ``pattern="WCDP"``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.patterns import WCDP_NAME
from repro.core.results import (
    BerRecord,
    CharacterizationDataset,
    HcFirstRecord,
    RowKey,
)
from repro.errors import AnalysisError


def _mean_ber_by_pattern(records: List[BerRecord]) -> Dict[str, float]:
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in records:
        sums[record.pattern] = sums.get(record.pattern, 0.0) + record.ber
        counts[record.pattern] = counts.get(record.pattern, 0) + 1
    return {pattern: sums[pattern] / counts[pattern] for pattern in sums}


def _best_hcfirst_by_pattern(
        records: List[HcFirstRecord]) -> Dict[str, Optional[int]]:
    best: Dict[str, Optional[int]] = {}
    for record in records:
        current = best.get(record.pattern, "unset")
        if current == "unset":
            best[record.pattern] = record.hc_first
            continue
        if record.hc_first is None:
            continue
        if current is None or record.hc_first < current:
            best[record.pattern] = record.hc_first
    return best


def _select_row(row_key: RowKey, ber_records: List[BerRecord],
                hc_records: List[HcFirstRecord]) -> str:
    """The paper's §3.1 rule over one row's records, in dataset order.

    ``ber_records`` excludes ``WCDP`` records; ``hc_records`` may hold
    them (they are skipped here, but still mark the row as having
    HC_first data).
    """
    if not hc_records and not ber_records:
        raise AnalysisError(f"no records for row {row_key}")

    mean_ber = _mean_ber_by_pattern(ber_records)

    if hc_records:
        best_hc = _best_hcfirst_by_pattern(
            [r for r in hc_records if r.pattern != WCDP_NAME])
        uncensored = {pattern: hc for pattern, hc in best_hc.items()
                      if hc is not None}
        if uncensored:
            smallest = min(uncensored.values())
            tied = sorted(pattern for pattern, hc in uncensored.items()
                          if hc == smallest)
        else:
            tied = sorted(best_hc)
        if len(tied) == 1:
            return tied[0]
        if mean_ber:
            return max(tied, key=lambda pattern: (
                mean_ber.get(pattern, -1.0), pattern))
        return tied[0]

    if not mean_ber:
        raise AnalysisError(f"no per-pattern BER for row {row_key}")
    return max(mean_ber, key=lambda pattern: (mean_ber[pattern], pattern))


def select_wcdp(dataset: CharacterizationDataset,
                row_key: RowKey) -> str:
    """The WCDP name for one row, by the paper's rule.

    Smallest (uncensored) HC_first wins; ties — including the case where
    every pattern is censored — are broken by largest BER at 256K.  Rows
    with no HC_first data at all fall back to the largest-BER rule.
    This is the single-row form of :func:`wcdp_assignments`: it scans
    the whole dataset, so use it for one row, not in a loop over rows.
    """
    hc_records = [r for r in dataset.hcfirst_records if r.row_key == row_key]
    ber_records = [r for r in dataset.ber_records
                   if r.row_key == row_key and r.pattern != WCDP_NAME]
    return _select_row(row_key, ber_records, hc_records)


def wcdp_assignments(
        dataset: CharacterizationDataset) -> Dict[RowKey, str]:
    """WCDP name for every row present in the dataset.

    One pass groups the records by row, keeping dataset order within
    each row, so the result equals :func:`select_wcdp` per row at a
    cost linear in the number of records.
    """
    ber_by_row: Dict[RowKey, List[BerRecord]] = {}
    for record in dataset.ber_records:
        # A row holding only WCDP BER records is still a row: the rule
        # raises for it, as select_wcdp does.
        row_records = ber_by_row.setdefault(record.row_key, [])
        if record.pattern != WCDP_NAME:
            row_records.append(record)
    hc_by_row: Dict[RowKey, List[HcFirstRecord]] = {}
    for record in dataset.hcfirst_records:
        hc_by_row.setdefault(record.row_key, []).append(record)
    row_keys = sorted(ber_by_row.keys() | hc_by_row.keys())
    return {row_key: _select_row(row_key, ber_by_row.get(row_key, []),
                                 hc_by_row.get(row_key, []))
            for row_key in row_keys}


def derive_wcdp_records(
        dataset: CharacterizationDataset
) -> Tuple[List[BerRecord], List[HcFirstRecord]]:
    """Synthesize ``pattern="WCDP"`` records for plotting.

    For each row, copies the records of its selected WCDP with the
    pattern field rewritten — the exact construction behind the WCDP
    columns of Figs. 3 and 4.
    """
    assignments = wcdp_assignments(dataset)
    ber_out: List[BerRecord] = []
    hc_out: List[HcFirstRecord] = []
    for record in dataset.ber_records:
        if record.pattern == WCDP_NAME:
            continue
        if assignments.get(record.row_key) == record.pattern:
            ber_out.append(replace(record, pattern=WCDP_NAME))
    for record in dataset.hcfirst_records:
        if record.pattern == WCDP_NAME:
            continue
        if assignments.get(record.row_key) == record.pattern:
            hc_out.append(replace(record, pattern=WCDP_NAME))
    return ber_out, hc_out


def append_wcdp_records(dataset: CharacterizationDataset) -> None:
    """Add the synthesized WCDP records to the dataset in place."""
    ber_records, hc_records = derive_wcdp_records(dataset)
    dataset.ber_records.extend(ber_records)
    dataset.hcfirst_records.extend(hc_records)
