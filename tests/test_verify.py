"""The property-suite driver itself, including the negative control."""

import pytest

import irrseq.sequence as sequence_mod
from irrseq import ExtField, InternalInvariantError, TieBreak
from irrseq.verify import (check_ext_sqrt, check_nu2_doubling, check_sequence_goldens,
                           check_tree_depth_doubling, run_all)


def test_goldens_pass_on_healthy_build():
    res = check_sequence_goldens()
    assert res.ok


def test_goldens_catch_mutated_tie_break(monkeypatch):
    # negative control: flipping the tie-break must produce a golden diff
    real = sequence_mod.choose_factor

    def flipped(g1, g2, policy):
        chosen, other = real(g1, g2, TieBreak.DESCENDING_LEX)
        return other, chosen

    monkeypatch.setattr(sequence_mod, "choose_factor", flipped)
    res = check_sequence_goldens()
    assert not res.ok
    assert any("run from" in f for f in res.failures)


def test_ext_sqrt_records_invariant_errors(monkeypatch):
    # negative control: a kernel-dimension fault inside sqrt is a failure
    # string, not an exception out of the sweep
    def broken(self, a):
        raise InternalInvariantError("square-root system has kernel dimension 2")

    monkeypatch.setattr(ExtField, "sqrt", broken)
    res = check_ext_sqrt(samples=5, p_max=50, n_max=3)
    assert res.cases == 5 and len(res.failures) == 5
    assert all("kernel dimension 2" in f for f in res.failures)


def test_nu2_counterexamples_guarded():
    res = check_nu2_doubling(31, 2)
    assert res.ok and res.cases > 2


def test_rabin_bruteforce_full_documented_range():
    from irrseq.verify import check_rabin_bruteforce
    res = check_rabin_bruteforce(7, 4)
    assert res.ok and res.cases == 3700


def test_tree_depth_doubling_has_cases():
    res = check_tree_depth_doubling(169)
    assert res.ok
    assert res.cases >= 2  # at least the 5 -> 25 and 9 -> 81 rebuilds


def test_run_all_reports_every_property():
    results = run_all(5, 2, graph_q_max=25, sqrt_samples=25)
    names = [r.name for r in results]
    assert len(names) == len(set(names)) == 12
    for r in results:
        assert r.ok, (r.name, r.failures[:3])
        assert r.cases > 0
