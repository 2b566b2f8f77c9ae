"""Campaign plumbing: determinism, ordering, witness capping, serialisation."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import support
from g2calc import ddt, dhym, g2, product, suites
from g2calc.forms import KForm, Metric
from g2calc.suites import (
    MAX_WITNESSES,
    SUITE_IDS,
    Campaign,
    Report,
    _RUNNERS,
    _Column,
    _Recorder,
    all_passed,
    emit,
)
from support import (
    reference_appendix_a,
    reference_appendix_b,
    reference_cor_d2,
    reference_dhym,
    reference_prop_d1,
    reference_product,
    reference_thm_c1,
    replay_columns,
)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")

FAST = ("appendixA", "appendixB", "propD1", "dhym", "product")

# Rows per batched call in the tests that need a call to span several chunks.
SMALL_CHUNK = 16


@pytest.fixture(scope="module")
def full_run():
    campaign = Campaign(seed=3, samples=30)
    return campaign, campaign.run()


class TestCampaign:
    def test_suite_ids_are_the_published_names(self):
        assert list(SUITE_IDS) == [
            "appendixA", "appendixB", "thmC1", "propD1",
            "corD2", "dhym", "product", "torus",
        ]
        assert sorted(SUITE_IDS.values()) == list(range(1, 9))

    def test_suites_normalised_to_canonical_order(self):
        campaign = Campaign(seed=0, suites=("torus", "appendixA", "dhym"))
        assert campaign.suites == ("appendixA", "dhym", "torus")

    def test_duplicate_suites_collapse(self):
        campaign = Campaign(seed=0, suites=("propD1", "propD1"))
        assert campaign.suites == ("propD1",)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suites: appendixZ"):
            Campaign(seed=0, suites=("appendixZ",))

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be positive"):
            Campaign(seed=0, samples=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            Campaign(seed=-1, samples=3)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.0), ("seed", "0"), ("seed", None), ("samples", 2.5), ("samples", "3"),
    ])
    def test_non_integer_seed_or_samples_rejected(self, name, value):
        kwargs = {"seed": 0, "samples": 3, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Campaign(**kwargs)

    def test_integer_like_seed_and_samples_become_ints(self):
        campaign = Campaign(seed=np.int64(4), samples=np.int32(3), suites=("propD1",))
        assert type(campaign.seed) is int and type(campaign.samples) is int
        assert campaign == Campaign(seed=4, samples=3, suites=("propD1",))

    @pytest.mark.parametrize("name", ["tol_rel", "tol_identity"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-12])
    def test_bad_tolerance_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            Campaign(seed=0, samples=3, suites=("propD1",), **{name: value})

    @pytest.mark.parametrize("name", ["tol_rel", "tol_identity"])
    @pytest.mark.parametrize("value", ["x", None, 1j])
    def test_non_number_tolerance_rejected(self, name, value):
        # These used to raise a bare TypeError from math.isfinite.
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative, got"):
            Campaign(seed=0, samples=3, suites=("propD1",), **{name: value})

    def test_bare_suite_name_rejected(self):
        # A string used to be read letter by letter: "unknown suites: o, r, s, t, u".
        with pytest.raises(ValueError, match="suites must be a list of names, not the string 'torus'"):
            Campaign(seed=0, suites="torus")

    @pytest.mark.parametrize("value, shown", [
        (None, "got None"), (("torus", 5), "got 5 in it"), ([["torus"]], "got ['torus'] in it"),
    ])
    def test_suite_list_of_non_names_rejected(self, value, shown):
        # These used to end in a bare TypeError (not iterable, join of the
        # unknown names, unhashable list).
        with pytest.raises(ValueError, match=f"suites must be a list of names, {re.escape(shown)}"):
            Campaign(seed=0, suites=value)

    @pytest.mark.parametrize("value", [(), []])
    def test_empty_suite_list_rejected(self, value):
        # An empty campaign would certify nothing and still print "overall: PASS".
        with pytest.raises(ValueError, match="suites must name at least one suite"):
            Campaign(seed=0, suites=value)

    def test_zero_tolerance_accepted(self):
        assert Campaign(seed=0, tol_rel=0.0, tol_identity=0.0).tol_rel == 0.0

    def test_run_suite_gives_the_report_run_gives(self):
        campaign = Campaign(seed=4, samples=9, suites=("propD1", "dhym"))
        assert [campaign.run_suite(name) for name in campaign.suites] == campaign.run()
        with pytest.raises(ValueError, match="unknown suite 'appendixZ'"):
            campaign.run_suite("appendixZ")

    def test_to_dict_round_trips_through_json(self):
        # The fields hold plain numbers and names, so the plan serialises as it is.
        campaign = Campaign(seed=5, samples=10, suites=("dhym",))
        payload = json.loads(json.dumps(dataclasses.asdict(campaign)))
        assert payload == {
            "seed": 5, "samples": 10, "tol_rel": 1e-9,
            "tol_identity": 1e-8, "suites": ["dhym"],
        }


class TestDeterminism:
    def test_same_seed_gives_identical_bytes(self):
        first = Campaign(seed=11, samples=25, suites=FAST)
        second = Campaign(seed=11, samples=25, suites=FAST)
        assert emit(first.run(), "json", first) == emit(second.run(), "json", second)

    def test_different_seed_changes_the_bytes(self):
        base = Campaign(seed=11, samples=25, suites=("propD1", "dhym"))
        other = Campaign(seed=12, samples=25, suites=("propD1", "dhym"))
        assert emit(base.run(), "json", base) != emit(other.run(), "json", other)

    def test_subset_reproduces_the_full_run(self, full_run):
        campaign, reports = full_run
        by_name = {r.suite: r for r in reports}
        subset = Campaign(seed=3, samples=30, suites=("product", "thmC1")).run()
        assert [r.suite for r in subset] == ["thmC1", "product"]
        for rep in subset:
            assert rep == by_name[rep.suite]


class TestReports:
    def test_every_suite_passes(self, full_run):
        _, reports = full_run
        assert [r.suite for r in reports] == list(SUITE_IDS)
        for rep in reports:
            assert rep.failed == 0, rep.witnesses
            assert rep.passed > 0
            assert rep.witnesses == ()
        assert all_passed(reports)

    def test_worst_residuals_comfortably_inside_tolerance(self, full_run):
        _, reports = full_run
        for rep in reports:
            assert rep.worst_residual < 1e-10

    def test_torus_details_carry_the_dimension_summary(self, full_run):
        _, reports = full_run
        torus = next(r for r in reports if r.suite == "torus")
        for key, value in (("cutoff", 3), ("dim_check_H1", 7),
                           ("dim_H2", 0), ("b1", 7)):
            assert torus.details[key] == value

    def test_witnesses_capped_and_json_clean(self):
        campaign = Campaign(seed=2, samples=12, tol_rel=1e-30,
                            suites=("propD1",))
        rep = campaign.run()[0]
        assert rep.failed == 12
        assert len(rep.witnesses) == MAX_WITNESSES
        dumped = json.loads(json.dumps(rep.to_dict()))
        assert dumped["failed"] == 12
        for witness in dumped["witnesses"]:
            assert witness["check"] == "type split reassembles the residual"
            assert witness["tolerance"] == 1e-30
            assert witness["flux"]["dim"] == 7
            assert witness["flux"]["grade"] == 2
            assert len(witness["flux"]["coeffs"]) == 21


class TestOrientationSign:
    def test_negated_induced_star_fails_the_sign_check(self, monkeypatch):
        # The induced metric with the opposite orientation negates the star of
        # phi~.  The sign is read off that star, so it no longer matches the
        # factor on any solution, while the conformal residual, taken with
        # the same sign, still vanishes.
        unpatched = ddt.metric_from_three_form

        def reversed_orientation(phi):
            m = unpatched(phi)
            return Metric(7, m.gram, orientation=-m.orientation)

        monkeypatch.setattr(ddt, "metric_from_three_form", reversed_orientation)
        monkeypatch.setattr(suites, "MAX_WITNESSES", 10**6)
        report = Campaign(seed=0, samples=60, suites=("thmC1",)).run()[0]
        failed = [w["check"] for w in report.witnesses]
        assert failed.count("orientation sign matches factor") == report.details["solutions_certified"]
        assert "conformal normalisation is a structure" not in failed


class TestEmit:
    def test_json_payload_is_the_report_array(self, full_run):
        campaign, reports = full_run
        blob = emit(reports, "json", campaign)
        assert blob.endswith(b"\n")
        payload = json.loads(blob)
        assert isinstance(payload, list)
        assert [r["suite"] for r in payload] == list(SUITE_IDS)
        assert all(r["failed"] == 0 for r in payload)
        torus = payload[-1]
        assert torus["details"]["dim_check_H1"] == 7

    def test_empty_report_list_is_an_empty_array(self):
        assert json.loads(emit([], "json")) == []

    def test_text_lines(self, full_run):
        campaign, reports = full_run
        lines = emit(reports, "text", campaign).decode().splitlines()
        assert lines[0].startswith("campaign seed=3 ")
        assert lines[1].startswith("suite appendixA: passed=")
        assert lines[-1] == "overall: PASS"

    def test_text_reports_failures(self):
        campaign = Campaign(seed=2, samples=3, tol_rel=1e-30, suites=("propD1",))
        text = emit(campaign.run(), "text", campaign).decode()
        assert "failed=3" in text
        assert "witness" in text
        assert text.rstrip().endswith("overall: FAIL")

    def test_unknown_format_rejected(self, full_run):
        campaign, reports = full_run
        with pytest.raises(ValueError, match="unknown format"):
            emit(reports, "yaml", campaign)


class TestNonFinite:
    def test_nan_residual_fails_and_stays_worst(self):
        rec = _Recorder("x")
        rec.check("a", float("nan"), 1e-9)
        rec.check("b", 1e-12, 1e-9)
        rec.check("c", float("inf"), 1e-9)
        rep = rec.report()
        assert (rep.passed, rep.failed) == (1, 2)
        assert math.isnan(rep.worst_residual)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_residual_fails_and_is_worst(self, value):
        rec = _Recorder("x")
        rec.check("a", 1e-12, 1e-9)
        rec.check("b", value, 1e-9)
        rec.check("c", 0.5, 1.0)
        rep = rec.report()
        assert (rep.passed, rep.failed) == (2, 1)
        assert rep.worst_residual == value

    def test_json_names_non_finite_values(self):
        report = Report(
            suite="x", passed=0, failed=2, worst_residual=float("nan"),
            witnesses=({"check": "a", "residual": float("inf")},
                       {"check": "b", "residual": float("-inf")}),
            details={"values": [1.0, float("nan")]},
        )
        payload = json.loads(emit([report], "json"), parse_constant=reject_constant)
        assert payload[0]["worst_residual"] == "NaN"
        assert [w["residual"] for w in payload[0]["witnesses"]] == ["Infinity", "-Infinity"]
        assert payload[0]["details"]["values"] == [1.0, "NaN"]
        for line in emit([report], "text").decode().splitlines():
            if line.startswith("  witness "):
                json.loads(line[len("  witness "):], parse_constant=reject_constant)



def random_table(rng, rows, specials=0.15):
    """A table of two to five checks over rows, with every kind of entry mixed in.

    Residual checks hold values from 0 to 1 on a log scale, with NaN, +inf,
    -inf, 0.0 and -0.0 scattered at the rate specials; expectations hold
    booleans; about half the checks carry a mask.  Witness fields include a
    form and numpy scalars, as the suites' do.
    """
    table = []
    for c in range(int(rng.integers(2, 6))):
        tol = None if rng.random() < 0.4 else float(rng.choice([0.0, 1e-9, 1e-3, 0.5]))
        if tol is None:
            values = rng.random(rows) < 0.6
        else:
            values = 10.0 ** rng.uniform(-14.0, 0.0, size=rows)
            special = rng.random(rows) < specials
            values[special] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], size=special.sum())
        where = None if rng.random() < 0.5 else rng.random(rows) < 0.7

        def info(row, c=c, values=values):
            return {"sample": row, "column": c, "value": values[row], "count": np.int64(row),
                    "form": KForm(3, 1, [float(row), float(c), 0.5])}

        table.append(_Column(f"check {c}", values, tol, info, where))
    return table


def recorder_state(rec):
    # repr keeps NaN, the sign of an infinity and of a zero apart.
    return (rec.passed, rec.failed, repr(rec.worst),
            [json.dumps(w) for w in rec.report().witnesses])


class TestColumns:
    """_Recorder.columns against the check() and expect() calls it stands for."""

    def both(self, before, tables):
        """The recorder state after before(rec) and the tables, by columns and by scalar calls."""
        states = []
        for record in (_Recorder.columns, replay_columns):
            rec = _Recorder("x")
            before(rec)
            for table in tables:
                record(rec, table)
            states.append(recorder_state(rec))
        return states

    @pytest.mark.parametrize("cap", [MAX_WITNESSES, 10**6])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables_match_the_scalar_calls(self, monkeypatch, seed, cap):
        monkeypatch.setattr(suites, "MAX_WITNESSES", cap)
        rng = np.random.default_rng(900 + seed)
        tables = [random_table(rng, int(rng.integers(1, 40))) for _ in range(int(rng.integers(1, 4)))]
        got, want = self.both(lambda rec: rec.check("before", 1e-12, 1e-9), tables)
        assert got == want

    @pytest.mark.parametrize("first", [0.25, math.nan, math.inf, -math.inf])
    def test_earlier_checks_keep_their_worst(self, first):
        # A non-finite worst recorded before the table stays; a finite one is
        # replaced only by a larger or non-finite residual of the table.
        rng = np.random.default_rng(950)
        table = random_table(rng, 30)
        got, want = self.both(lambda rec: rec.check("before", first, 1e-9), [table])
        assert got == want

    def test_table_with_every_kind_of_entry(self, monkeypatch):
        # Masked entries, NaN, both infinities and more than MAX_WITNESSES
        # failures spread over three labels, on a cap and uncapped.
        values = np.array([1e-12, np.nan, np.inf, -np.inf, 0.5, 2e-10, np.nan, 0.7])
        where = np.array([True, True, False, True, True, False, True, True])
        outcomes = np.array([True, False, True, False, False, True, True, False])

        def info(row):
            return {"sample": row, "form": KForm(2, 1, [float(row), -1.0])}

        table = [
            _Column("residual", values, 1e-9, info),
            _Column("masked residual", values[::-1].copy(), 1e-9, info, where),
            _Column("outcome", outcomes, None, info, where[::-1].copy()),
        ]
        failed = set()
        for cap in (MAX_WITNESSES, 10**6):
            monkeypatch.setattr(suites, "MAX_WITNESSES", cap)
            got, want = self.both(lambda rec: None, [table])
            assert got == want
            passed, count, worst, witnesses = got
            assert count > MAX_WITNESSES
            assert len(witnesses) == min(cap, count)
            assert worst == "nan"
            failed |= {json.loads(w)["check"] for w in witnesses}
        assert failed == {"residual", "masked residual", "outcome"}

    def test_builds_witness_fields_only_for_witnesses(self):
        built = []

        def info(row):
            built.append(row)
            return {"sample": row}

        values = np.array([0.0, 1.0, 0.0, 1.0] * 5)
        rec = _Recorder("x")
        rec.columns([_Column("a", values, 0.5, info), _Column("b", values < 0.5, None, info)])
        assert (rec.passed, rec.failed) == (20, 20)
        # Failing rows in (row, check) order: (1, a), (1, b), (3, a), ...; the first five.
        assert built == [1, 1, 3, 3, 5]
        assert [w["check"] for w in rec.witnesses] == ["a", "b", "a", "b", "a"]


REFERENCES = {
    "appendixA": reference_appendix_a,
    "appendixB": reference_appendix_b,
    "thmC1": reference_thm_c1,
    "propD1": reference_prop_d1,
    "corD2": reference_cor_d2,
    "dhym": reference_dhym,
    "product": reference_product,
}

@pytest.fixture
def check_log(monkeypatch):
    """Every recorded check as (label, sample, numbers), one list per run.

    The numbers are a check's residual, or an expectation's outcome and the
    numeric values it reports (bounds, norms, ranks).
    """
    logs = []
    check, expect = _Recorder.check, _Recorder.expect

    def numbers(info):
        return [float(v) for k, v in info.items()
                if k != "sample" and isinstance(v, (bool, int, float, np.number, np.bool_))]

    def logged_check(self, label, residual, tol, **info):
        logs[-1].append((label, info.get("sample"), [float(residual)]))
        check(self, label, residual, tol, **info)

    def logged_expect(self, label, ok, **info):
        logs[-1].append((label, info.get("sample"), [float(ok)] + numbers(info)))
        expect(self, label, ok, **info)

    monkeypatch.setattr(_Recorder, "check", logged_check)
    monkeypatch.setattr(_Recorder, "expect", logged_expect)
    # A table is logged entry by entry through the scalar calls it stands for.
    monkeypatch.setattr(_Recorder, "columns", replay_columns)
    return logs


def run_both(name, campaign, logs=None):
    """The batched runner's report and the reference loop's, on the same draws."""
    reports = []
    for run in (_RUNNERS[name], REFERENCES[name]):
        if logs is not None:
            logs.append([])
        reports.append(run(campaign, np.random.default_rng([campaign.seed, SUITE_IDS[name]])))
    return reports


def assert_same_log(batched, reference):
    # A batch row equals its single-form call, so every logged number is equal bit for bit.
    assert batched == reference


def assert_same_witnesses(got, want):
    # Bit for bit, with types and key order: 1, 1.0, True and -0.0, 0.0 serialise differently.
    assert [json.dumps(w) for w in got] == [json.dumps(w) for w in want]


def fingerprint_rows(lhs, rhs, floor=None):
    """A stand-in residual that differs from sample to sample: |lhs - rhs / 2| per row."""
    return np.linalg.norm(np.asarray(lhs) - 0.5 * np.asarray(rhs), axis=-1)


def fingerprint(lhs, rhs, floor=None):
    return float(fingerprint_rows(np.ravel(lhs), np.ravel(rhs)))


def fingerprint_duality(point, alpha):
    """A stand-in for j_duality_residual that differs from covector to covector."""
    value = np.linalg.norm(alpha.coeffs - 0.5, axis=-1)
    return float(value) if value.ndim == 0 else value


class TestBatchedSuites:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    @pytest.mark.parametrize("name", REFERENCES)
    def test_counts_and_residuals_match_the_reference_loop(self, check_log, name, seed):
        got, want = run_both(name, Campaign(seed=seed, samples=60, suites=(name,)), check_log)
        assert (got.passed, got.failed, got.details) == (want.passed, want.failed, want.details)
        assert got.witnesses == want.witnesses == ()
        assert_same_log(*check_log)

    @pytest.mark.parametrize("samples", [61, 1000])
    @pytest.mark.parametrize("name", ["appendixA", "appendixB", "dhym", "product"])
    def test_bulk_draws_leave_the_generator_where_the_reference_loop_does(self, name, samples):
        # These suites take consecutive normal draws in one call.  One of another
        # length would leave the generator elsewhere even where the reports
        # agree; 61 samples end part way through a cycle of three.
        campaign = Campaign(seed=0, samples=samples, suites=(name,))
        rngs = [np.random.default_rng([0, SUITE_IDS[name]]) for _ in range(2)]
        got = _RUNNERS[name](campaign, rngs[0])
        want = REFERENCES[name](campaign, rngs[1])
        assert got == want
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("name, samples", [("appendixA", 800), ("appendixB", 60),
                                               ("propD1", 60), ("thmC1", 60), ("dhym", 200)])
    def test_each_row_keeps_its_sample(self, monkeypatch, check_log, name, samples):
        # The identities hold, so true residuals are rounding noise that would
        # not show two samples' rows swapped; this stand-in is O(1) per sample.
        # dhym's own residuals stay real, since its normal form is gated by them;
        # its reports' radii and symbols are O(1) per sample already.
        for module in (suites, g2, ddt):
            monkeypatch.setattr(module, "row_residual", fingerprint_rows)
        for module in (suites, support):
            monkeypatch.setattr(module, "rel_residual", fingerprint)
            monkeypatch.setattr(module, "j_duality_residual", fingerprint_duality)
        # Chunks of a few rows, so that every batched call spans several of them.
        monkeypatch.setattr(suites, "CHUNK_ROWS", SMALL_CHUNK)
        rows = {"appendixA": samples // 24, "thmC1": 67, "dhym": samples // 3}.get(name, samples)
        assert rows > SMALL_CHUNK
        campaign = Campaign(seed=7, samples=samples, suites=(name,))
        got, want = run_both(name, campaign, check_log)
        assert (got.passed, got.failed) == (want.passed, want.failed)
        assert got.failed > 0
        assert_same_log(*check_log)
        if name == "thmC1":
            # Each solution logs its own stand-in density residual, so a row
            # moved between samples changes the log.
            density = [entry[2][0] for entry in check_log[0]
                       if entry[0] == "linearised density routes agree"]
            assert len(set(density)) == len(density) == 201

    @pytest.mark.parametrize("seed", [0, 1, 42])
    @pytest.mark.parametrize("name, label", [
        ("thmC1", "linearised density routes agree"),
        ("dhym", "symbol routes agree"),
    ], ids=["thmC1-linearised density routes disagree", "dhym-symbol routes disagree"])
    def test_every_witness_matches_the_reference(self, monkeypatch, name, label, seed):
        # Uncapped, the witnesses include every row whose routes disagree, each
        # with its residual and tolerance.  The suites record those rows from
        # the batch: the guarded single-form calls raise here.
        def refuse(*args, **kwargs):
            raise RuntimeError("a suite re-ran a failing row")

        for module in (ddt, suites):
            monkeypatch.setattr(module, "linearization_density", refuse, raising=False)
        for module in (dhym, suites):
            monkeypatch.setattr(module, "symbol_bound", refuse, raising=False)
        monkeypatch.setattr(suites, "MAX_WITNESSES", 10**6)
        campaign = Campaign(seed=seed, samples=60, tol_rel=1e-30, tol_identity=1e-30,
                            suites=(name,))
        got, want = run_both(name, campaign)
        assert (got.passed, got.failed) == (want.passed, want.failed)
        assert len(got.witnesses) == got.failed
        assert_same_witnesses(got.witnesses, want.witnesses)
        assert any(w["check"] == label for w in got.witnesses)

    @pytest.mark.parametrize("seed", [0, 1, 42])
    @pytest.mark.parametrize("name", REFERENCES)
    def test_witnesses_carry_the_reference_inputs(self, name, seed):
        campaign = Campaign(seed=seed, samples=60, tol_rel=1e-30, tol_identity=1e-30,
                            suites=(name,))
        got, want = run_both(name, campaign)
        assert got.failed > 0
        assert_same_witnesses(got.witnesses, want.witnesses)


# Bound on the traced allocation peak of one pointwise suite at 1000 samples.
# At 32-row chunks the largest was 3.94 MB (appendixA); forms._contract caps
# its tensors whatever the chunk size, so a larger CHUNK_ROWS must stay under it.
PEAK_MB = 5.0


class TestMemory:
    @pytest.mark.parametrize("name", REFERENCES)
    def test_pointwise_suite_peak_stays_bounded(self, name):
        Campaign(0, 1000, suites=(name,)).run()  # standard structures and tables built
        tracemalloc.start()
        try:
            report = Campaign(0, 1000, suites=(name,)).run()[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.failed == 0
        assert peak / 2**20 <= PEAK_MB


class TestDrawLoops:
    BUILDERS = ("_unitary_rotations", "_zero_phase_fluxes", "_cartan_roots")

    @pytest.mark.parametrize("name, calls", [
        # 20 samples each of n = 2 and n = 3: one chunk per complex dimension.
        ("dhym", {"_unitary_rotations": 2}),
        # 20 zero-phase fluxes: one chunk, whose fluxes are built with one rotation stack.
        ("product", {"_zero_phase_fluxes": 1, "_unitary_rotations": 1}),
        # 67 families solved at once.
        ("thmC1", {"_cartan_roots": 1}),
        # The pure contraction roots, then the 67 families at once.
        ("corD2", {"_cartan_roots": 2}),
    ])
    def test_builders_run_once_per_chunk(self, monkeypatch, name, calls):
        # The draw loops only draw; arithmetic moved back into them would run
        # once per sample and show here.
        counts = dict.fromkeys(self.BUILDERS, 0)

        def counted(builder, original):
            def wrapper(*args, **kwargs):
                counts[builder] += 1
                return original(*args, **kwargs)
            return wrapper

        for module in (ddt, dhym, product, suites):
            for builder in self.BUILDERS:
                if hasattr(module, builder):
                    monkeypatch.setattr(module, builder, counted(builder, getattr(module, builder)))
        report = Campaign(0, 60, suites=(name,)).run()[0]
        assert report.failed == 0
        assert counts == {**dict.fromkeys(self.BUILDERS, 0), **calls}

    def test_thm_c1_builds_each_induced_structure_once(self, monkeypatch):
        # Each chunk's report builds the metrics of (1+F#)* phi and of its
        # normalisation, and the density check reads that report's induced star:
        # two calls per chunk, each on the chunk's rows.
        rows = []
        original = ddt.metric_from_three_form

        def counted(phi):
            rows.append(len(phi.coeffs))
            return original(phi)

        monkeypatch.setattr(ddt, "metric_from_three_form", counted)
        monkeypatch.setattr(suites, "CHUNK_ROWS", 32)
        report = Campaign(0, 60, suites=("thmC1",)).run()[0]
        solutions = report.details["solutions_certified"]
        assert report.failed == 0
        assert solutions == 201
        assert len(rows) == 2 * -(-solutions // 32) == 14
        assert sum(rows) == 2 * solutions
