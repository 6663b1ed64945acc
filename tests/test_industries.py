"""Industry mix construction, exclusion, and code resolution."""

import itertools

import numpy as np
import pytest

from distancing import csvio
from distancing.errors import IngestionError
from distancing.industries import (
    GROUPS,
    CodeTable,
    IndustryMix,
    MixResolver,
    build_mix,
    exclude_sectors,
    industry_index_table,
    read_exclusions,
    read_matrix_csv,
)
from distancing.occupations import ExposureFlags


def flag(teamwork=False, customer=False, presence=False):
    return ExposureFlags(teamwork, customer, presence)


FLAGS = {
    "11-1011": flag(teamwork=True),
    "41-2031": flag(customer=True),
    "53-3032": flag(presence=True),
    "43-9061": flag(),
    "29-1141": flag(teamwork=True, customer=True),
}


class TestBuildMix:
    def test_fifty_fifty_communication(self):
        rows = [("44", "41-2031", 10.0), ("44", "43-9061", 10.0)]
        report = build_mix(rows, FLAGS, None)
        (mix,) = report.mixes
        assert mix.chi["communication"] == pytest.approx(0.5)
        assert mix.chi["teamwork"] == 0.0
        assert mix.chi["presence"] == 0.0

    def test_no_flagged_occupations(self):
        rows = [("31", "43-9061", 5.0)]
        (mix,) = build_mix(rows, FLAGS, None).mixes
        assert all(mix.chi[g] == 0.0 for g in GROUPS)

    def test_row_order_irrelevant(self):
        rows = [
            ("62", "11-1011", 250.0),
            ("62", "29-1141", 250.0),
            ("62", "43-9061", 500.0),
            ("44", "41-2031", 600.0),
            ("44", "43-9061", 400.0),
        ]
        forward = build_mix(rows, FLAGS, None)
        backward = build_mix(list(reversed(rows)), FLAGS, None)
        for a, b in zip(forward.mixes, backward.mixes):
            assert a.industry_code == b.industry_code
            assert a.chi == b.chi

    def test_scaling_employment_leaves_chi(self):
        rows = [("62", "11-1011", 3.0), ("62", "43-9061", 7.0)]
        scaled = [(i, s, e * 1234.5) for i, s, e in rows]
        a = build_mix(rows, FLAGS, None).mixes[0]
        b = build_mix(scaled, FLAGS, None).mixes[0]
        for g in GROUPS:
            assert a.chi[g] == pytest.approx(b.chi[g], abs=1e-12)

    def test_chi_bounds_and_union_sandwich(self):
        rng = np.random.default_rng(31)
        socs = list(FLAGS)
        rows = []
        for i in range(12):
            for soc in socs:
                rows.append((f"{40 + i}", soc, float(rng.uniform(0, 100))))
        for mix in build_mix(rows, FLAGS, None).mixes:
            assert all(0.0 <= mix.chi[g] <= 1.0 for g in GROUPS)
            assert mix.chi["communication"] >= max(mix.chi["teamwork"], mix.chi["customer"]) - 1e-12
            assert mix.chi["communication"] <= mix.chi["teamwork"] + mix.chi["customer"] + 1e-12

    def test_zero_employment_industry_skipped(self):
        report = build_mix([("44", "41-2031", 0.0)], FLAGS, None)
        assert report.mixes == []
        assert report.skipped_industries == ["44"]

    def test_unknown_socs_reported_and_counted_unexposed(self):
        rows = [("44", "41-2031", 50.0), ("44", "99-9999", 50.0)]
        report = build_mix(rows, FLAGS, None)
        assert report.unknown_socs == ["99-9999"]
        # the unknown occupation stays in the denominator
        assert report.mixes[0].chi["communication"] == pytest.approx(0.5)

    def test_negative_employment_rejected(self):
        with pytest.raises(IngestionError):
            build_mix([("44", "41-2031", -1.0)], FLAGS, None)

    def test_repeated_pairs_sum_in_any_row_order(self):
        # added in file order, 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit
        rows = [("44", "11-1011", 0.1), ("44", "11-1011", 0.2), ("44", "11-1011", 0.3),
                ("44", "43-9061", 1.0)]
        results = {tuple(build_mix(order, FLAGS, None).mixes[0].chi.items())
                   for order in itertools.permutations(rows)}
        assert len(results) == 1
        (chi,) = results
        assert dict(chi)["teamwork"] == pytest.approx(0.375)


def mix_with(code, comm, name=None):
    return IndustryMix(
        industry_code=code,
        name=name or code,
        chi={"teamwork": 0.0, "customer": comm, "communication": comm, "presence": 0.0},
    )


class TestExclusions:
    def test_exact_match_removed(self):
        mixes = [mix_with("62", 0.4), mix_with("44", 0.6)]
        kept, removed = exclude_sectors(mixes, ["62"])
        assert [m.industry_code for m in kept] == ["44"]
        assert removed == ["62"]

    def test_empty_list_is_identity(self):
        mixes = [mix_with("62", 0.4)]
        kept, removed = exclude_sectors(mixes, [])
        assert kept == mixes and removed == []

    def test_sector_prefix_removes_every_industry_under_it(self, caplog):
        mixes = [mix_with("621", 0.4), mix_with("622", 0.5), mix_with("44", 0.6)]
        with caplog.at_level("WARNING"):
            kept, removed = exclude_sectors(mixes, ["62"])
        assert [m.industry_code for m in kept] == ["44"]
        assert removed == ["62"]
        assert not any("matches no industry" in r.message for r in caplog.records)

    def test_range_entry_removes_the_range_and_its_sectors(self):
        mixes = [mix_with("44-45", 0.6), mix_with("452", 0.3), mix_with("31-33", 0.2)]
        kept, removed = exclude_sectors(mixes, ["44-45", "99"])
        assert [m.industry_code for m in kept] == ["31-33"]
        assert removed == ["44-45"]

    def test_absent_code_warns_not_raises(self, caplog):
        mixes = [mix_with("44", 0.6)]
        with caplog.at_level("WARNING"):
            kept, removed = exclude_sectors(mixes, ["99"])
        assert kept == mixes and removed == []
        assert any("99" in record.message for record in caplog.records)


class TestResolver:
    def test_exact_match(self):
        resolver = MixResolver([mix_with("44", 0.6)])
        assert resolver.resolve("44").industry_code == "44"

    def test_prefix_fallback(self):
        resolver = MixResolver([mix_with("44", 0.6)])
        assert resolver.resolve("445110").industry_code == "44"
        assert resolver.fallbacks == {"445110": "44"}

    def test_range_alias(self):
        resolver = MixResolver([mix_with("44-45", 0.6), mix_with("31-33", 0.1)])
        assert resolver.resolve("453110").industry_code == "44-45"
        assert resolver.resolve("327999").industry_code == "31-33"

    def test_most_specific_wins(self):
        resolver = MixResolver([mix_with("44", 0.6), mix_with("4451", 0.9)])
        assert resolver.resolve("445110").industry_code == "4451"

    def test_unresolved_recorded(self):
        resolver = MixResolver([mix_with("44", 0.6)])
        assert resolver.resolve("99999") is None
        assert "99999" in resolver.unresolved

    def test_each_code_walks_once(self):
        mixes = [mix_with("44-45", 0.6), mix_with("4451", 0.9), mix_with("31", 0.1)]
        codes = ["445110", "453110", "99999", "4451", "311111", "44", "99"] * 3

        class CountingDict(dict):
            probes = 0

            def get(self, key, default=None):
                CountingDict.probes += 1
                return super().get(key, default)

            def __contains__(self, key):
                CountingDict.probes += 1
                return super().__contains__(key)

        resolver = MixResolver(mixes)
        resolver._held = CountingDict(resolver._held)
        first = [resolver.resolve(code) for code in codes[:7]]
        probes = CountingDict.probes
        assert probes  # the first lookups walk the table
        assert [resolver.resolve(code) for code in codes] == first * 3
        assert CountingDict.probes == probes  # repeats never walk again

        # the same records as walking every code on a fresh resolver
        fallbacks, unresolved = {}, set()
        for code in codes:
            fresh = MixResolver(mixes)
            assert fresh.resolve(code) is resolver.resolve(code)
            fallbacks.update(fresh.fallbacks)
            unresolved |= fresh.unresolved
        assert resolver.fallbacks == fallbacks == {
            "445110": "4451", "453110": "44-45", "311111": "31",
        }
        assert resolver.unresolved == unresolved == {"99999", "99"}


class TestCodeTable:
    @pytest.mark.parametrize("entries", [
        {"44-45": "range", "45": "sector"}, {"45": "sector", "44-45": "range"},
    ])
    def test_a_held_sector_beats_a_range_holding_it(self, entries):
        table = CodeTable(entries)
        assert table.resolve("453110") == "sector" and table.covering("453110") == "45"
        assert table.resolve("441200") == "range" and table.covering("441200") == "44-45"
        assert table.resolve("44") == "range" and table.resolve("44-45") == "range"
        assert table.fallbacks == {"453110": "45", "441200": "44-45"}

    def test_no_code_below_two_digits_is_found(self):
        table = CodeTable({"4": "one digit", "44": "sector"})
        assert table.resolve("4") is None and table.resolve("441") == "sector"
        assert table.unresolved == {"4"}


class TestCsv:
    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("industry_code,soc_code,employment\n44,41-2031,600\n")
        assert read_matrix_csv(path) == [("44", "41-2031", 600.0)]

    def test_exclusions_file(self, tmp_path):
        path = tmp_path / "excl.txt"
        path.write_text("# hospitals\n622\n\n92 # government\n")
        assert read_exclusions(path) == ["622", "92"]

    def test_industry_index_exact_schema(self, tmp_path):
        path = tmp_path / "industry-index.csv"
        csvio.write_rows(
            path, *industry_index_table([mix_with("44", 0.6, name="Retail trade")]), "stamp"
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# stamp"
        assert lines[1] == (
            "industry_code,name,chi_teamwork,chi_customer,chi_communication,chi_presence"
        )
        assert lines[2] == "44,Retail trade,0.0,0.6,0.6,0.0"
