"""Per-fragment pricing of learned cardinalities: the reference the
shared-subplan priming of ``LearnedCardinalityEstimator`` is checked
against.

Every connected fragment of a query gets its own canonical plan (the
estimator's ``_shared_fragment_root`` with empty memos, so nothing is
shared), and the whole list is priced through the public
``ZeroShotEstimator.predict_cardinalities(plans, database)``:
one graph per fragment, featurized and forwarded on its own.  The
shared pass must give every fragment the same number bit for bit.
"""

from repro.optimizer.cardinality import BoundCardinalities, CardinalityEstimator
from repro.optimizer.join_order import connected_subsets
from repro.plans import PhysicalPlan


def fragment_plans(learned, query):
    """``{aliases: plan}``: each connected fragment's own canonical plan,
    annotated with the classical estimates."""
    heuristic = BoundCardinalities(learned.database, query)
    adjacency = learned._join_adjacency(query)
    return {aliases: PhysicalPlan(
                root=learned._shared_fragment_root(
                    heuristic, aliases, adjacency, {}, {}, {}),
                query=query, database_name=learned.database.name)
            for aliases in connected_subsets(query)}


def reference_fragments(learned, query):
    """``{aliases: rows}``: each fragment plan's predicted root rows,
    priced one plan per graph, floored at one row."""
    plans = fragment_plans(learned, query)
    cards = learned.model.predict_cardinalities(list(plans.values()),
                                                learned.database)
    return {aliases: max(float(rows[0]), 1.0)
            for aliases, rows in zip(plans, cards)}


class ReferenceCardinalities(CardinalityEstimator):
    """The classical estimator with every connected fragment's rows
    taken from :func:`reference_fragments`; it never answers any other
    fragment (the DP search asks for none)."""

    def __init__(self, learned):
        super().__init__(learned.database)
        self.learned = learned

    def bind(self, query):
        return _ReferenceBound(self.learned, query)


class _ReferenceBound(BoundCardinalities):
    def __init__(self, learned, query):
        super().__init__(learned.database, query)
        self.rows = reference_fragments(learned, query)

    def scan_rows(self, alias):
        return self.rows[frozenset({alias})]

    def joined_rows(self, aliases):
        self.check_aliases(aliases)
        return self.rows[frozenset(aliases)]
