"""Worked cases for the benchmark's own oracles and failure counting.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracles.py
"""

from types import SimpleNamespace

import numpy as np
import pytest

from oracles import lcp_solutions, linear_degree, signed_root
from workloads import DEGREE_MATRICES, EXAMPLE1, FAILED, OK, WRONG, Op, certify_case, solve_ops
from worker import run_passes

def test_example1_matrix_has_linear_degree_minus_one():
    assert linear_degree(EXAMPLE1, np.random.default_rng(0)) == -1


def test_identity_has_linear_degree_one():
    assert linear_degree(np.eye(3), np.random.default_rng(0)) == 1


def test_linear_degree_matches_pcpkit_lcp_degree():
    from pcpkit.lcp import lcp_degree

    rng = np.random.default_rng(7)
    found = set()
    for A in DEGREE_MATRICES.values():
        d = linear_degree(A, rng)
        assert d == lcp_degree(A, seed=1).value
        found.add(d)
    assert found == {-1, 0, 1}


def test_lcp_with_two_solutions_is_listed_in_full():
    # x1 in {0, 1} solves -x1 + 1 >= 0 complementarily; x2 = 0 is forced
    M = np.array([[-1.0, 0.0], [0.0, 1.0]])
    sols, non_isolated = lcp_solutions(M, np.array([1.0, 1.0]))
    assert not non_isolated
    assert sorted(tuple(x) for x in sols) == [(0.0, 0.0), (1.0, 0.0)]


def test_singular_consistent_piece_is_flagged():
    sols, non_isolated = lcp_solutions(np.zeros((1, 1)), np.zeros(1))
    assert non_isolated


def test_signed_root_inverts_odd_power():
    v = np.array([-8.0, 0.0, 27.0])
    assert np.allclose(signed_root(v, 3) ** 3, v)


@pytest.mark.parametrize("n,per_axis,order", [(2, 41, 3), (3, 15, 4)])
def test_certify_constructions(n, per_axis, order):
    rng = np.random.default_rng(3)
    unsolvable = certify_case(rng, n, per_axis, order, unsolvable=True)
    planted = certify_case(rng, n, per_axis, order, unsolvable=False)
    cert_u, cert_p = unsolvable.run(), planted.run()
    assert cert_u.status == "no-solution-certified"
    assert cert_p.status == "inconclusive"
    assert unsolvable.check(cert_u) == OK and planted.check(cert_p) == OK
    # a verdict swapped between the two is judged: giving up on the
    # unsolvable box is a failure, a certificate for the planted one is wrong
    assert unsolvable.check(_with(cert_u, status="inconclusive")) == FAILED
    assert planted.check(_with(cert_p, status="no-solution-certified")) == WRONG
    # so is a minimum the harness cannot reproduce at the reported argmin
    assert planted.check(_with(cert_p, min_residual=cert_p.min_residual + 1.0)) == WRONG


def _with(report, **changes):
    return SimpleNamespace(**{**vars(report), **changes})


def test_wrong_answer_counts_as_failed():
    op = solve_ops(0)[0]
    good = op.run()
    assert op.check(good) == OK
    shifted = _with(good, solutions=[good.solutions[0] + 0.5])
    stuck = _with(good, status="budget-exhausted", solutions=[])
    ops = [
        Op("wrong", lambda: shifted, op.check),
        Op("stuck", lambda: stuck, op.check),
        Op("raises", lambda: 1 / 0, op.check),
        op,
    ]
    res = run_passes(ops, seconds=0.0, min_passes=2)
    assert res["passes"] == 2 and res["attempted"] == 8
    assert res["failed"] == 6 and res["wrong"] == 2
    assert set(res["failures"]) == {"wrong", "stuck", "raises"}
    assert np.isinf(res["best"][:3]).all() and np.isfinite(res["best"][3])
