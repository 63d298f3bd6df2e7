"""Database application substrate: relations, joins, CQ/CSP evaluation.

A query is compiled once into a :class:`QueryPlan` (:mod:`repro.query.plan`)
and run on one of two executors: the in-memory columnar engine
(:mod:`repro.query.columnar`) or the SQL pushdown arm
(:mod:`repro.query.sqlgen`), which compiles the same plans to SQL executed
on SQLite so on-disk databases far larger than memory stay reachable — both
fronted by :class:`QueryEngine` / :class:`QueryWorkload` (and the one-call
:func:`evaluate_query`) for serving whole workloads with cached plans.
:func:`naive_join_query` over :class:`Relation` is the ground truth.
"""

from .relation import Relation
from .database import Database, random_database_for_query
from .joins import atom_relation, join_all, naive_join_query
from .plan import AnswerMode, QueryPlan, compile_plan
from .columnar import (
    ColumnStore,
    ColumnarRelation,
    ExecutionResult,
    PlanExecutor,
)
from .sqlgen import (
    SQLDatabase,
    SQLProgram,
    SQLStore,
    compile_sql,
    dump_database,
)
from .workload import (
    PlannedQuery,
    QueryEngine,
    QueryResult,
    QueryWorkload,
    WorkloadReport,
    evaluate_query,
)
from .csp import (
    CSPSolution,
    DecompositionCSPSolver,
    backtracking_solve,
    csp_to_query,
)

__all__ = [
    "Relation",
    "Database",
    "random_database_for_query",
    "atom_relation",
    "join_all",
    "naive_join_query",
    "AnswerMode",
    "QueryPlan",
    "compile_plan",
    "ColumnStore",
    "ColumnarRelation",
    "ExecutionResult",
    "PlanExecutor",
    "SQLDatabase",
    "SQLProgram",
    "SQLStore",
    "compile_sql",
    "dump_database",
    "PlannedQuery",
    "QueryEngine",
    "QueryResult",
    "QueryWorkload",
    "WorkloadReport",
    "evaluate_query",
    "CSPSolution",
    "DecompositionCSPSolver",
    "backtracking_solve",
    "csp_to_query",
]
