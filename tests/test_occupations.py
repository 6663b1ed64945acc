"""Classification rules, boundaries, and CSV round-trips for occupations."""

import numpy as np
import pytest

from distancing import csvio
from distancing.errors import ClassificationError, IngestionError
from distancing.occupations import (
    CUSTOMER_TASKS,
    EMAIL,
    FACE_TO_FACE,
    LETTERS,
    PRESENCE_TASKS,
    PROXIMITY,
    TEAMWORK_TASKS,
    ClassificationThresholds,
    ExposureFlags,
    OccupationProfile,
    classify_all,
    classify_customer,
    classify_presence,
    classify_teamwork,
    composite_index,
    flags_table,
    read_profiles_csv,
)

from frames import THRESHOLDS

ALL_TASKS = sorted(set(TEAMWORK_TASKS) | set(CUSTOMER_TASKS) | set(PRESENCE_TASKS))


def make_profile(
    soc="11-1011",
    teamwork=50.0,
    customer=50.0,
    presence=50.0,
    face=3,
    email=3,
    letters=3,
    proximity=3,
):
    """Profile with a constant score within each task group (shared task
    'Provide Consultation and Advice to Others' takes the teamwork value)."""
    scores = {}
    for task in PRESENCE_TASKS:
        scores[task] = presence
    for task in CUSTOMER_TASKS:
        scores[task] = customer
    for task in TEAMWORK_TASKS:
        scores[task] = teamwork
    return OccupationProfile(
        soc_code=soc,
        title="fixture",
        task_scores=scores,
        context_levels={FACE_TO_FACE: face, EMAIL: email, LETTERS: letters, PROXIMITY: proximity},
    )


class TestCompositeIndex:
    def test_constant_mean(self):
        p = make_profile(teamwork=70.0)
        assert composite_index(p, TEAMWORK_TASKS) == 70.0

    def test_plain_mean(self):
        p = make_profile()
        p.task_scores.update(dict(zip(TEAMWORK_TASKS, [100, 100, 100, 0, 0])))
        assert composite_index(p, TEAMWORK_TASKS) == 60.0

    def test_boundary_value_fails_strict_cutoff(self):
        p = make_profile(teamwork=62.5, face=5, email=1, letters=1)
        assert composite_index(p, TEAMWORK_TASKS) == 62.5
        assert not classify_teamwork(p, THRESHOLDS)


class TestTeamwork:
    def test_all_gates_pass(self):
        assert classify_teamwork(make_profile(teamwork=70, face=5, email=3, letters=2), THRESHOLDS)

    def test_email_parity_blocks(self):
        # face-to-face must be strictly more frequent than email
        p = make_profile(teamwork=70, face=5, email=5, letters=2)
        assert not classify_teamwork(p, THRESHOLDS)

    def test_letters_parity_blocks(self):
        p = make_profile(teamwork=70, face=5, email=2, letters=5)
        assert not classify_teamwork(p, THRESHOLDS)

    def test_cutoff_blocks(self):
        p = make_profile(teamwork=61, face=5, email=1, letters=1)
        assert not classify_teamwork(p, THRESHOLDS)

    def test_frequency_gate(self):
        p = make_profile(teamwork=70, face=3, email=1, letters=1)
        assert not classify_teamwork(p, THRESHOLDS)

    def test_thresholds_are_configurable(self):
        loose = ClassificationThresholds(cutoff=50.0, face_to_face_level=3, proximity_level=3)
        assert classify_teamwork(make_profile(teamwork=55, face=3, email=1, letters=1), loose)


class TestCustomer:
    def test_passes_without_email_gate(self):
        # heavy email does not matter for the customer flag
        assert classify_customer(make_profile(customer=67, face=4, email=5, letters=5), THRESHOLDS)

    def test_frequency_gate(self):
        assert not classify_customer(make_profile(customer=67, face=3), THRESHOLDS)

    def test_cutoff(self):
        assert not classify_customer(make_profile(customer=50, face=5), THRESHOLDS)


class TestPresence:
    def test_shared_office_threshold(self):
        assert classify_presence(make_profile(presence=80, proximity=3), THRESHOLDS)

    def test_below_shared_office(self):
        assert not classify_presence(make_profile(presence=80, proximity=2), THRESHOLDS)

    def test_exact_cutoff_fails(self):
        assert not classify_presence(make_profile(presence=62.5, proximity=5), THRESHOLDS)


class TestClassifyAll:
    def test_empty_input(self):
        assert classify_all([], THRESHOLDS, lenient=False) == {}

    def test_three_way_fixture(self):
        profiles = [
            make_profile(soc="11-1011", teamwork=70, customer=40, face=5, email=3, letters=2,
                         proximity=2),
            make_profile(soc="41-2031", teamwork=40, customer=70, face=4, email=5, letters=5,
                         proximity=2),
            make_profile(soc="53-3032", teamwork=30, customer=30, presence=80, face=2,
                         proximity=4),
        ]
        flags = classify_all(profiles, THRESHOLDS, lenient=False)
        assert flags["11-1011"] == ExposureFlags(True, False, False)
        assert flags["41-2031"] == ExposureFlags(False, True, False)
        assert flags["53-3032"] == ExposureFlags(False, False, True)

    def test_duplicate_soc_rejected(self):
        with pytest.raises(IngestionError, match="duplicate"):
            classify_all([make_profile(), make_profile()], THRESHOLDS, lenient=False)

    def test_order_independent(self):
        profiles = [
            make_profile(soc=f"{11 + i}-{1000 + i:04d}", teamwork=60 + i, face=5, email=2,
                         letters=2)
            for i in range(8)
        ]
        forward = classify_all(profiles, THRESHOLDS, lenient=False)
        backward = classify_all(list(reversed(profiles)), THRESHOLDS, lenient=False)
        assert forward == backward
        assert list(forward) == sorted(forward)

    def test_missing_context_hard_error_by_default(self):
        p = make_profile()
        del p.context_levels[FACE_TO_FACE]
        with pytest.raises(ClassificationError):
            classify_all([p], THRESHOLDS, lenient=False)

    def test_lenient_fails_closed(self):
        p = make_profile(teamwork=90, customer=90, presence=90, proximity=5)
        del p.context_levels[FACE_TO_FACE]
        flags = classify_all([p], THRESHOLDS, lenient=True)
        # both communication flags fail closed; presence is untouched
        assert flags[p.soc_code] == ExposureFlags(False, False, True)


class TestMonotonicity:
    def test_raising_scores_never_unsets_flags(self):
        rng = np.random.default_rng(17)
        rules = (classify_teamwork, classify_customer, classify_presence)
        for _ in range(300):
            p = make_profile(
                teamwork=float(rng.uniform(0, 100)),
                customer=float(rng.uniform(0, 100)),
                presence=float(rng.uniform(0, 100)),
                face=int(rng.integers(1, 6)),
                email=int(rng.integers(1, 6)),
                letters=int(rng.integers(1, 6)),
                proximity=int(rng.integers(1, 6)),
            )
            before = tuple(rule(p, THRESHOLDS) for rule in rules)
            task = ALL_TASKS[int(rng.integers(0, len(ALL_TASKS)))]
            p.task_scores[task] = min(100.0, p.task_scores[task] + float(rng.uniform(0, 40)))
            after = tuple(rule(p, THRESHOLDS) for rule in rules)
            for b, a in zip(before, after):
                assert a or not b

    def test_raising_face_to_face_never_unsets_communication_flags(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            p = make_profile(
                teamwork=float(rng.uniform(40, 90)),
                customer=float(rng.uniform(40, 90)),
                face=int(rng.integers(1, 5)),
                email=int(rng.integers(1, 6)),
                letters=int(rng.integers(1, 6)),
            )
            before = (classify_teamwork(p, THRESHOLDS), classify_customer(p, THRESHOLDS))
            p.context_levels[FACE_TO_FACE] += 1
            after = (classify_teamwork(p, THRESHOLDS), classify_customer(p, THRESHOLDS))
            for b, a in zip(before, after):
                assert a or not b

    def test_communication_is_the_union(self):
        rng = np.random.default_rng(29)
        profiles = [
            make_profile(
                soc=f"{20 + i % 30}-{2000 + i:04d}",
                teamwork=float(rng.uniform(0, 100)),
                customer=float(rng.uniform(0, 100)),
                face=int(rng.integers(1, 6)),
                email=int(rng.integers(1, 6)),
                letters=int(rng.integers(1, 6)),
            )
            for i in range(60)
        ]
        for soc, flags in classify_all(profiles, THRESHOLDS, lenient=False).items():
            assert flags.communication == (flags.teamwork or flags.customer)


class TestCsv:
    def test_round_trip(self, tmp_path):
        header = ["soc_code", "title", *ALL_TASKS,
                  "ctx_face_to_face", "ctx_email", "ctx_letters", "ctx_proximity"]
        row = ["11-1011", "Sample, with comma"] + [str(60.0)] * len(ALL_TASKS) + ["5", "2", "1", "3"]
        path = tmp_path / "occ.csv"
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerow(row)
        profiles = read_profiles_csv(path)
        assert len(profiles) == 1
        assert profiles[0].title == "Sample, with comma"
        assert profiles[0].task_scores[ALL_TASKS[0]] == 60.0
        assert profiles[0].context_levels[FACE_TO_FACE] == 5

        flags = classify_all(profiles, THRESHOLDS, lenient=False)
        out = tmp_path / "flags.csv"
        csvio.write_rows(out, *flags_table(profiles, flags), "test")
        text = out.read_text().splitlines()
        assert text[0] == "# test"
        assert text[1] == "soc_code,title,teamwork,customer,communication,presence"
        assert text[2].startswith("11-1011,")
