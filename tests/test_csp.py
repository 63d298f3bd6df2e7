"""Unit tests for HD-guided CSP solving."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.hypergraph.cq import CSPInstance
from repro.query.csp import DecompositionCSPSolver, backtracking_solve, csp_to_query


def _cyclic_csp(satisfiable: bool = True) -> CSPInstance:
    triples = ((0, 1), (1, 2), (2, 0))
    last = triples if satisfiable else ((0, 0),)
    return CSPInstance(
        constraints=(
            ("c1", ("x", "y"), triples),
            ("c2", ("y", "z"), triples),
            ("c3", ("z", "x"), last),
        ),
        name="cyclic",
    )


def test_csp_to_query_structure():
    csp = _cyclic_csp()
    query, database = csp_to_query(csp)
    assert len(query.atoms) == 3
    assert set(query.free_variables) == {"x", "y", "z"}
    assert len(database) == 3


def test_csp_to_query_requires_constraints():
    with pytest.raises(QueryError):
        csp_to_query(CSPInstance())


def test_satisfiable_instance():
    solution = DecompositionCSPSolver().solve(_cyclic_csp(True))
    assert solution.satisfiable
    assert solution.assignment is not None
    assert solution.num_solutions_found == 3
    assert solution.width == 2
    # The witness must satisfy every constraint.
    assignment = solution.assignment
    for _, scope, tuples in _cyclic_csp(True).constraints:
        assert tuple(assignment[v] for v in scope) in tuples


def test_unsatisfiable_instance():
    solution = DecompositionCSPSolver().solve(_cyclic_csp(False))
    assert not solution.satisfiable
    assert solution.assignment is None
    assert solution.num_solutions_found == 0


def test_agreement_with_backtracking():
    for satisfiable in (True, False):
        csp = _cyclic_csp(satisfiable)
        hd_solution = DecompositionCSPSolver().solve(csp)
        bt_solution = backtracking_solve(csp)
        assert hd_solution.satisfiable == (bt_solution is not None)


def test_backtracking_requires_constraints():
    with pytest.raises(QueryError):
        backtracking_solve(CSPInstance())


def test_backtracking_respects_domains():
    csp = CSPInstance(
        domains={"x": (0, 1), "y": (1,)},
        constraints=(("c", ("x", "y"), ((0, 1), (5, 5))),),
    )
    solution = backtracking_solve(csp)
    assert solution == {"x": 0, "y": 1}


def test_acyclic_csp_uses_width_one():
    csp = CSPInstance(
        constraints=(
            ("c1", ("a", "b"), ((1, 2), (2, 3))),
            ("c2", ("b", "c"), ((2, 5), (3, 6))),
        ),
        name="chain",
    )
    solution = DecompositionCSPSolver().solve(csp)
    assert solution.satisfiable
    assert solution.width == 1
    assert solution.num_solutions_found == 2


def _fast_paths(solver: DecompositionCSPSolver, csp: CSPInstance) -> tuple[bool, int]:
    """The ``boolean`` and ``count`` answers of the solver's engine."""
    query, database = csp_to_query(csp)
    run = solver.engine.execute
    return (
        run(query, database, "boolean", executor=solver.executor).boolean,
        run(query, database, "count", executor=solver.executor).count,
    )


def _chain_csp() -> CSPInstance:
    return CSPInstance(
        constraints=(
            ("c1", ("a", "b"), ((1, 2), (2, 3))),
            ("c2", ("b", "c"), ((2, 5), (3, 6))),
        ),
        name="chain",
    )


@pytest.mark.parametrize("executor", ["columnar", "sql"])
@pytest.mark.parametrize(
    "csp",
    [_cyclic_csp(True), _cyclic_csp(False), _chain_csp()],
    ids=["cyclic-sat", "cyclic-unsat", "chain"],
)
def test_fast_paths_agree_with_solve_and_backtracking(csp, executor):
    # The boolean/count fast paths never materialise the solutions; they
    # must still say what the enumerating solve() and the oracle say.
    solver = DecompositionCSPSolver(executor=executor)
    boolean, count = _fast_paths(solver, csp)
    assert boolean == (backtracking_solve(csp) is not None)
    assert count == solver.solve(csp).num_solutions_found


@pytest.mark.parametrize("executor", ["columnar", "sql"])
@pytest.mark.parametrize(
    "domains, tuples, solutions",
    [
        # the only allowed tuple lies outside the domains
        ({"x": (0,), "y": (0,)}, ((1, 1),), 0),
        # the domains cut three allowed tuples down to one
        ({"x": (0, 1), "y": (1,)}, ((0, 0), (0, 1), (5, 1)), 1),
        # z occurs in no scope: each of its values extends the one (x, y)
        ({"x": (0, 1), "y": (0, 1), "z": (7, 8, 9)}, ((1, 1),), 3),
    ],
    ids=["outside-domain", "domain-cut", "unconstrained-variable"],
)
def test_declared_domains_restrict_the_solutions(domains, tuples, solutions, executor):
    csp = CSPInstance(domains=domains, constraints=(("c", ("x", "y"), tuples),))
    solver = DecompositionCSPSolver(executor=executor)
    solution = solver.solve(csp)
    boolean, count = _fast_paths(solver, csp)
    assert solution.num_solutions_found == count == solutions
    assert solution.satisfiable == boolean == (solutions > 0)
    assert solution.satisfiable == (backtracking_solve(csp) is not None)
    if solutions:
        assert set(solution.assignment) == set(domains)
        assert all(solution.assignment[v] in domains[v] for v in domains)
        assert (solution.assignment["x"], solution.assignment["y"]) in tuples
    else:
        assert solution.assignment is None
