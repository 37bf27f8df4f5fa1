"""Tests for repro.core.results (records + dataset serialization)."""

import csv
import hashlib
import json
from dataclasses import asdict

import pytest

from repro.core.results import (
    BerRecord,
    CharacterizationDataset,
    HcFirstRecord,
)
from repro.errors import AnalysisError


def make_ber(channel=0, pattern="Rowstripe0", row=10, region="first",
             flips=82, repetition=0):
    return BerRecord(channel=channel, pseudo_channel=0, bank=0, row=row,
                     region=region, pattern=pattern, repetition=repetition,
                     hammer_count=262144, flips=flips, row_bits=8192,
                     duration_s=0.025)


def make_hc(channel=0, pattern="Rowstripe0", row=10, hc_first=50000,
            region="first"):
    return HcFirstRecord(channel=channel, pseudo_channel=0, bank=0, row=row,
                         region=region, pattern=pattern, repetition=0,
                         hc_first=hc_first, max_hammers=262144, probes=20,
                         flips_at_max=42)


class TestRecords:
    def test_ber_property(self):
        assert make_ber(flips=8192).ber == 1.0
        assert make_ber(flips=82).ber == pytest.approx(0.01, abs=1e-4)

    def test_row_key(self):
        assert make_ber(channel=3, row=7).row_key == (3, 0, 0, 7)

    def test_censored_flag(self):
        assert make_hc(hc_first=None).censored
        assert not make_hc(hc_first=100).censored


class TestDatasetFiltering:
    @pytest.fixture
    def dataset(self):
        dataset = CharacterizationDataset()
        dataset.extend([
            make_ber(channel=0, pattern="Rowstripe0"),
            make_ber(channel=0, pattern="Rowstripe1"),
            make_ber(channel=7, pattern="Rowstripe0", region="last"),
            make_hc(channel=0),
            make_hc(channel=7, hc_first=None),
        ])
        return dataset

    def test_filter_by_channel(self, dataset):
        assert len(dataset.ber(channel=0)) == 2
        assert len(dataset.ber(channel=7)) == 1

    def test_filter_by_pattern(self, dataset):
        assert len(dataset.ber(pattern="Rowstripe1")) == 1

    def test_filter_by_region(self, dataset):
        assert len(dataset.ber(region="last")) == 1

    def test_filter_by_predicate(self, dataset):
        heavy = dataset.ber(predicate=lambda record: record.flips > 50)
        assert len(heavy) == 3

    def test_hcfirst_censoring_filter(self, dataset):
        assert len(dataset.hcfirst()) == 2
        assert len(dataset.hcfirst(include_censored=False)) == 1

    def test_channels_and_patterns(self, dataset):
        assert dataset.channels() == [0, 7]
        assert "Rowstripe1" in dataset.patterns()

    def test_add_rejects_unknown_type(self, dataset):
        with pytest.raises(AnalysisError):
            dataset.add("not a record")

    def test_merge(self, dataset):
        other = CharacterizationDataset(metadata={"source": "other"})
        other.add(make_ber(channel=3))
        dataset.merge(other)
        assert len(dataset.ber(channel=3)) == 1
        assert dataset.metadata["source"] == "other"


class TestSerialization:
    @pytest.fixture
    def dataset(self):
        dataset = CharacterizationDataset(metadata={"seed": 11})
        dataset.add(make_ber())
        dataset.add(make_hc())
        dataset.add(make_hc(hc_first=None))
        return dataset

    def test_json_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "dataset.json"
        dataset.to_json(path)
        loaded = CharacterizationDataset.from_json(path)
        assert loaded.ber_records == dataset.ber_records
        assert loaded.hcfirst_records == dataset.hcfirst_records
        assert loaded.metadata == dataset.metadata

    def test_censored_survives_json(self, dataset, tmp_path):
        path = tmp_path / "dataset.json"
        dataset.to_json(path)
        loaded = CharacterizationDataset.from_json(path)
        censored = [record for record in loaded.hcfirst_records
                    if record.censored]
        assert len(censored) == 1

    def test_ber_csv(self, dataset, tmp_path):
        path = tmp_path / "ber.csv"
        dataset.ber_to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("channel,")
        assert len(lines) == 2

    def test_hcfirst_csv(self, dataset, tmp_path):
        path = tmp_path / "hc.csv"
        dataset.hcfirst_to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3


class TestEncoderMatchesAsdict:
    """The archive, CSV and fingerprint encodings, byte for byte.

    The reference is the ``dataclasses.asdict`` encoding every archive
    and pinned fingerprint was written with.
    """

    BER_COLUMNS = ["channel", "pseudo_channel", "bank", "row", "region",
                   "pattern", "repetition", "hammer_count", "flips",
                   "row_bits", "duration_s"]
    HCFIRST_COLUMNS = ["channel", "pseudo_channel", "bank", "row",
                       "region", "pattern", "repetition", "hc_first",
                       "max_hammers", "probes", "flips_at_max"]

    @pytest.fixture
    def dataset(self):
        dataset = CharacterizationDataset(
            metadata={"seed": 7, "telemetry": {"wall_s": 1.5}})
        dataset.extend([
            make_ber(flips=0),
            BerRecord(channel=7, pseudo_channel=1, bank=15, row=2**40,
                      region="last", pattern="Checkered1", repetition=4,
                      hammer_count=2**62 + 1, flips=10**20, row_bits=8192,
                      duration_s=0.1 + 0.2),
            BerRecord(channel=0, pseudo_channel=0, bank=0, row=0,
                      region="middle", pattern="WCDP", repetition=0,
                      hammer_count=1, flips=1, row_bits=3,
                      duration_s=1e-300),
            make_hc(hc_first=None),
            make_hc(hc_first=2**53 + 1, region="middle"),
            HcFirstRecord(channel=3, pseudo_channel=1, bank=2, row=16383,
                          region="last", pattern="WCDP", repetition=2,
                          hc_first=None, max_hammers=10**18, probes=0,
                          flips_at_max=0),
        ])
        return dataset

    @staticmethod
    def reference_csv(path, records, columns):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for record in records:
                row = asdict(record)
                writer.writerow([row[column] for column in columns])

    def test_json_bytes(self, dataset, tmp_path):
        dataset.to_json(tmp_path / "dataset.json")
        reference = json.dumps({
            "metadata": {"seed": 7},
            "ber_records": [asdict(r) for r in dataset.ber_records],
            "hcfirst_records": [asdict(r) for r in dataset.hcfirst_records],
        }, indent=1).encode()
        assert (tmp_path / "dataset.json").read_bytes() == reference

    def test_csv_bytes(self, dataset, tmp_path):
        dataset.ber_to_csv(tmp_path / "ber.csv")
        dataset.hcfirst_to_csv(tmp_path / "hc.csv")
        self.reference_csv(tmp_path / "ber_ref.csv", dataset.ber_records,
                           self.BER_COLUMNS)
        self.reference_csv(tmp_path / "hc_ref.csv",
                           dataset.hcfirst_records, self.HCFIRST_COLUMNS)
        assert ((tmp_path / "ber.csv").read_bytes()
                == (tmp_path / "ber_ref.csv").read_bytes())
        assert ((tmp_path / "hc.csv").read_bytes()
                == (tmp_path / "hc_ref.csv").read_bytes())

    def test_fingerprint(self, dataset):
        hasher = hashlib.blake2b(digest_size=16)
        for record in dataset.ber_records:
            hasher.update(repr(asdict(record)).encode())
        hasher.update(b"|")
        for record in dataset.hcfirst_records:
            hasher.update(repr(asdict(record)).encode())
        assert dataset.fingerprint() == hasher.hexdigest()

    def test_payload_roundtrip_keeps_record_order(self, dataset):
        back = CharacterizationDataset.from_payload(dataset.to_payload())
        assert back.ber_records == dataset.ber_records
        assert back.hcfirst_records == dataset.hcfirst_records
        assert back.fingerprint() == dataset.fingerprint()
