"""Acceptance gate: every criterion read off the suite rows, one line each.

The suites are the only definition of a check.  Each criterion names a
suite, the config seed it runs at, the row ids it reads (an id ending in
"-" is a prefix) and, where it has one, a runtime budget for the suite
run.  Every listed id must match a row, and every matched gating row
must pass at the suite's own tolerance.  Run with
`pytest -s tests/test_acceptance.py` to see the ACCEPTANCE lines.
"""

import pytest

from oscresp.suites import Config, run_suite


def check(criterion, suite, seed, ids, budget=None):
    report = run_suite(suite, Config(seed=seed))
    failing = []
    for key in ids:
        rows = [row for row in report.rows
                if row.id == key or (key.endswith("-") and row.id.startswith(key))]
        assert rows, f"criterion {criterion}: no {suite} suite row matches {key!r}"
        for row in rows:
            print(f"ACCEPTANCE {criterion:>3} {row.id}: "
                  f"{'PASS' if row.passed else 'FAIL'} "
                  f"(residual={row.residual:.3e}, tolerance={row.tolerance:.1e})")
            if row.gating and not row.passed:
                failing.append(row.id)
    if budget is not None:
        elapsed = report.wall_time_s
        print(f"ACCEPTANCE {criterion:>3} runtime: {'PASS' if elapsed <= budget else 'FAIL'} "
              f"({elapsed:.2f}s <= {budget}s)")
        assert elapsed <= budget
    assert not failing, f"criterion {criterion}: gating rows fail: {failing}"


def test_criterion_1_kernel_identity_suite():
    check(1, "kernels", 1, ["dr-from-contractions", "dr-antisymmetrized", "d-from-dr",
                            "df-from-dr", "dfconj-from-dr"], budget=1.0)


def test_criterion_2_fock_two_point_agreement():
    check(2, "kernels", 2, ["two-point-forward", "two-point-plain", "two-point-backward"],
          budget=1.0)


def test_criterion_3_wick_verification():
    check(3, "wick", 3, ["four-point-forward", "randomized-expansion"], budget=30.0)


def test_criterion_4_response_substitution_theorem():
    check(4, "functional", 4, ["vacuum-emission-form", "substitution-roundtrip"], budget=5.0)


def test_criterion_5_driven_factorization_moments():
    check(5, "driven", 5, ["factorization-"], budget=10.0)


def test_criterion_5_displacement_vs_ode_oracle():
    # the end-corrected (fourth-order) retarded convolution against an
    # independent integration of the equation of motion at dt = 0.005
    check(5, "driven", 5, ["displacement-vs-ode-"])


def test_criterion_6_commutator_reconstruction():
    check(6, "kernels", 6, ["commutator-reconstruction", "qp-commutator",
                            "canonical-commutator"])


def test_criterion_7_charged_field_suite():
    check(7, "charged", 7, ["charged-dr-two-defs", "charged-da-from-dr", "charged-db-from-dr",
                            "charged-df-from-dr", "charged-dfdag-from-dr",
                            "charged-anti-hermitian", "charged-substitution"], budget=2.0)


def test_criterion_8_neutral_field_suite():
    check(8, "field", 8, ["field-d-from-dr", "field-df-from-dr"])


def test_criterion_9_symmetric_ordering_checks():
    check(9, "functional", 9, ["weyl-two-point", "weyl-kernel-rearrangement",
                               "weyl-four-point"])


def test_a_listed_id_without_a_suite_row_fails():
    with pytest.raises(AssertionError, match="no kernels suite row"):
        check(1, "kernels", 1, ["no-such-row"])


def test_criterion_10_determinism():
    rows_a = run_suite("all", Config(seed=7)).rows
    rows_b = run_suite("all", Config(seed=7)).rows
    identical = rows_a == rows_b
    print(f"ACCEPTANCE  10 determinism: {'PASS' if identical else 'FAIL'} "
          f"({len(rows_a)} residual rows bit-identical across runs)")
    assert identical
