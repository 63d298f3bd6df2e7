"""HD-guided constraint-satisfaction solving.

CSPs with table constraints are conjunctive queries in disguise: a constraint
over scope ``(x, y, z)`` with an allowed-tuple table is an atom whose relation
is the table.  Solving the CSP (finding one solution, or all) is therefore CQ
evaluation over the constraint tables — and bounded hypertree width makes it
polynomial, which is the CSP application highlighted in the paper's
introduction.

Two solvers are provided:

* :class:`DecompositionCSPSolver` — the HD-guided solver: translates the CSP
  into a conjunctive query over its constraint tables and answers it through
  a :class:`~repro.query.workload.QueryEngine`;
* :func:`backtracking_solve` — a plain backtracking reference solver used as
  a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import QueryError
from ..hypergraph.cq import Atom, ConjunctiveQuery, CSPInstance
from .database import Database
from .plan import check_executor
from .relation import Relation
from .workload import QueryEngine, QueryResult

__all__ = ["CSPSolution", "DecompositionCSPSolver", "backtracking_solve", "csp_to_query"]


@dataclass
class CSPSolution:
    """The outcome of an HD-guided CSP solve."""

    satisfiable: bool
    assignment: dict[str, object] | None
    num_solutions_found: int
    width: int
    report: QueryResult


def csp_to_query(csp: CSPInstance) -> tuple[ConjunctiveQuery, Database]:
    """Translate a CSP instance into a conjunctive query plus a database.

    Every constraint becomes one atom/relation pair holding the allowed
    tuples that lie inside the declared domains, and every domain variable
    no constraint mentions becomes a unary atom over its domain; the query's
    free variables are all CSP variables, so the answers are exactly the
    solutions.
    """
    if not csp.constraints:
        raise QueryError("CSP instance has no constraints")
    domains = {variable: set(values) for variable, values in csp.domains.items()}
    tables = []
    for cname, scope, tuples in csp.constraints:
        bounded = [(i, domains[v]) for i, v in enumerate(scope) if v in domains]
        if bounded:
            tuples = [row for row in tuples if all(row[i] in d for i, d in bounded)]
        tables.append((cname, tuple(scope), tuples))
    constrained = {v for _, scope, _ in tables for v in scope}
    for variable in sorted(domains.keys() - constrained):
        tables.append(("domain", (variable,), [(value,) for value in domains[variable]]))
    atoms = []
    database = Database()
    for index, (cname, scope, tuples) in enumerate(tables):
        relation_name = f"{cname}_{index}"
        atoms.append(Atom(relation_name, scope))
        schema = [f"a{i}" for i in range(len(scope))]
        database.add(Relation(relation_name, schema, tuples))
    query = ConjunctiveQuery(tuple(atoms), tuple(sorted(csp.variables)), name=csp.name or "csp")
    return query, database


class DecompositionCSPSolver:
    """Solve table-constraint CSPs guided by a hypertree decomposition.

    The solver owns one :class:`~repro.query.workload.QueryEngine`, so CSPs of
    the same constraint structure share one decomposition and one plan;
    ``executor`` selects the engine's execution arm.
    """

    def __init__(
        self,
        algorithm: str = "hybrid",
        max_width: int = 10,
        timeout: float | None = None,
        executor: str = "columnar",
    ) -> None:
        self.engine = QueryEngine(algorithm, max_width, timeout)
        self.executor = check_executor(executor)

    def solve(self, csp: CSPInstance) -> CSPSolution:
        """Return satisfiability, one witness assignment and the solution count."""
        query, database = csp_to_query(csp)
        report = self.engine.execute(query, database, "enumerate", executor=self.executor)
        answers = report.answers
        row = next(iter(answers.tuples), None)
        return CSPSolution(
            satisfiable=report.boolean,
            assignment=None if row is None else dict(zip(answers.schema, row)),
            num_solutions_found=report.count,
            width=report.width,
            report=report,
        )


def backtracking_solve(csp: CSPInstance) -> dict[str, object] | None:
    """Plain chronological backtracking over the constraint tables (test oracle)."""
    if not csp.constraints:
        raise QueryError("CSP instance has no constraints")
    variables = sorted(csp.variables)
    domains: dict[str, list[object]] = {}
    for variable in variables:
        if variable in csp.domains:
            domains[variable] = list(csp.domains[variable])
        else:
            values: set[object] = set()
            for _, scope, tuples in csp.constraints:
                if variable in scope:
                    position = scope.index(variable)
                    values.update(row[position] for row in tuples)
            domains[variable] = sorted(values, key=repr)

    constraints = [
        (tuple(scope), {tuple(row) for row in tuples})
        for _, scope, tuples in csp.constraints
    ]

    def consistent(assignment: dict[str, object]) -> bool:
        for scope, table in constraints:
            if all(v in assignment for v in scope):
                if tuple(assignment[v] for v in scope) not in table:
                    return False
            else:
                # Partial check: some tuple must extend the current assignment.
                bound = [(i, v) for i, v in enumerate(scope) if v in assignment]
                if bound and not any(
                    all(row[i] == assignment[v] for i, v in bound) for row in table
                ):
                    return False
        return True

    def backtrack(index: int, assignment: dict[str, object]) -> dict[str, object] | None:
        if index == len(variables):
            return dict(assignment)
        variable = variables[index]
        for value in domains[variable]:
            assignment[variable] = value
            if consistent(assignment):
                solution = backtrack(index + 1, assignment)
                if solution is not None:
                    return solution
            del assignment[variable]
        return None

    return backtrack(0, {})
