"""A tour of the database substrate: parse, plan, EXPLAIN, execute, simulate.

Shows the pieces the zero-shot models are built on — the same pipeline
the paper takes from PostgreSQL:

* SQL text -> query AST,
* cost-based planning (DP join ordering, index selection),
* EXPLAIN-style plan rendering with estimated vs actual cardinalities,
* vectorized execution (true cardinalities),
* runtime simulation (the "server"),
* what-if planning with a hypothetical index.

Run:  python examples/database_tour.py
"""

from repro.db import make_imdb_database
from repro.engine import execute_plan
from repro.optimizer import plan_query
from repro.plans import explain_plan
from repro.runtime import RuntimeSimulator
from repro.sql import parse_query
from repro.tuning.advisor import IndexSpec, hypothetical_indexes

SQL = (
    "SELECT MIN(t.production_year) "
    "FROM movie_companies mc, title t "
    "WHERE t.id = mc.movie_id AND t.production_year > 1990 "
    "AND mc.company_type_id = 2;"
)
#: The same query over the most-voted titles.  No index changes the plan
#: of SQL itself: its filters keep too many rows for an index scan's
#: random heap fetches to beat a sequential scan.
WHATIF_SQL = SQL.replace(";", " AND t.votes > 140000;")


def main() -> None:
    print("Building the IMDB-shaped database ...")
    imdb = make_imdb_database(scale=0.3, seed=42)
    total = imdb.total_rows()
    print(f"  {len(imdb.schema.table_names)} tables, {total:,} rows, "
          f"{len(imdb.indexes)} indexes\n")

    print(f"Query (the paper's Figure 2 example):\n  {SQL}\n")
    query = parse_query(SQL)

    plan = plan_query(imdb, query)
    print("Optimizer plan (estimates only):")
    print(explain_plan(plan), "\n")

    result = execute_plan(imdb, plan)
    print(f"Result: MIN(t.production_year) = {result.scalar():.0f}\n")
    print("Plan after execution (EXPLAIN ANALYZE view):")
    print(explain_plan(plan), "\n")

    simulator = RuntimeSimulator(imdb, noise_sigma=0.0)
    runtime = simulator.simulate(plan)
    print(f"Simulated runtime: {runtime.total_seconds * 1e3:.2f} ms")
    print("Per-operator breakdown:")
    for node in plan.nodes():
        print(f"  {runtime.seconds_for(node) * 1e3:8.3f} ms  {node.label()}")

    print(f"\nWhat-if: narrowed to the most-voted titles,\n  {WHATIF_SQL}\n"
          "how would the plan change with an index on title.votes?")
    narrowed = parse_query(WHATIF_SQL)
    before = plan_query(imdb, narrowed)
    print(explain_plan(before), "\n")
    with hypothetical_indexes(imdb, [IndexSpec("title", "votes")]):
        hypothetical = plan_query(imdb, narrowed)
    print(explain_plan(hypothetical))
    print(f"\noptimizer cost: {before.total_cost:.1f} -> "
          f"{hypothetical.total_cost:.1f} with the hypothetical index")


if __name__ == "__main__":
    main()
