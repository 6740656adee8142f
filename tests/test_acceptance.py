"""Acceptance suite: every shipped claim, one test per criterion.

Each test runs one registered criterion end to end, prints its one-line
PASS/FAIL summary, and enforces the runtime budget where one is part of
the claim being checked.
"""

import os
import subprocess
import sys
from pathlib import Path

from genvar import acceptance


def _check(k, max_seconds=None):
    r = acceptance.run_criterion(k)
    print("criterion %02d %s %s (%ss)" % (
        k, "PASS" if r["passed"] else "FAIL", r["name"], r["seconds"]))
    assert r["passed"], "criterion %d failed: %s" % (k, r["detail"])
    if max_seconds is not None:
        assert r["seconds"] < max_seconds, (
            "criterion %d took %ss, budget %ss"
            % (k, r["seconds"], max_seconds))
    return r


def test_base_change_power_to_trace_family_is_bit_exact():
    _check(1, max_seconds=1.0)


def test_base_change_power_to_quotient_family_is_bit_exact():
    _check(2, max_seconds=1.0)


def test_quasi_simple_character_matches_closed_form():
    _check(3, max_seconds=5.0)


def test_denominator_vectors_equal_dimension_vectors():
    _check(4)


def test_dynkin_generic_values_are_cluster_monomials():
    _check(5, max_seconds=120.0)


def test_double_delta_separates_power_and_quotient_families():
    _check(6)


def test_characters_factor_through_canonical_decomposition():
    _check(7, max_seconds=300.0)


def test_structural_and_search_decompositions_agree():
    _check(8)


def test_polynomial_family_identities_hold_to_degree_twenty():
    _check(9, max_seconds=1.0)


def test_expansion_coefficients_obey_parity_and_positivity():
    _check(10)


def test_power_family_window_is_linearly_independent():
    _check(11)


def test_tube_characters_expand_integrally():
    _check(12)


def test_criterion_fails_on_a_corrupted_golden_under_optimize():
    # `python -O` strips `assert`; the criteria must still fail
    code = ("import sys\n"
            "from genvar import acceptance as a\n"
            "g = a.P_POWER_TO_F\n"
            "a.P_POWER_TO_F = ((2,) + g[0][1:],) + g[1:]\n"
            "r = a.run_criterion(1)\n"
            "print(sys.flags.optimize, r['passed'], r['detail'])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out.startswith("1 False ConsistencyError: forward matrix differs"), out
