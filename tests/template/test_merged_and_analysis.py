"""Unit tests for the merged template and workload analysis (Definitions 4-5)."""

from __future__ import annotations

import random

import pytest

from repro.errors import TemplateError
from repro.query import (
    Query,
    Window,
    Workload,
    avg,
    count_trends,
    kleene,
    max_of,
    seq,
    sum_of,
)
from repro.bench.workloads import kleene_sharing_workload, multi_aggregate_workload
from repro.template import MergedTemplate, analyze_workload
from repro.template.decompose import decomposable, decompose_query


def _q(pattern, name, aggregate=None, group_by=(), window=None):
    return Query.build(
        pattern,
        aggregate=aggregate or count_trends(),
        group_by=group_by,
        window=window or Window(600.0),
        name=name,
    )


class TestMergedTemplate:
    def test_figure3b_merged_template(self):
        """Figure 3(b): SEQ(A,B+) and SEQ(C,B+) share the B self-loop."""
        q1 = _q(seq("A", kleene("B")), "m_q1")
        q2 = _q(seq("C", kleene("B")), "m_q2")
        merged = MergedTemplate.from_queries([q1, q2])
        assert merged.event_types == {"A", "B", "C"}
        assert merged.transition_label("B", "B") == {q1, q2}
        assert merged.transition_label("A", "B") == {q1}
        assert merged.transition_label("C", "B") == {q2}
        assert merged.queries_sharing_kleene("B") == {q1, q2}
        assert merged.shared_kleene_types() == {"B"}
        assert merged.predecessor_types("B", q1) == ("A", "B")
        assert merged.predecessor_types("B", q2) == ("B", "C")

    def test_template_lookup_unknown_query(self):
        q1 = _q(seq("A", kleene("B")), "m_q3")
        merged = MergedTemplate.from_queries([q1])
        with pytest.raises(TemplateError):
            merged.template(_q(seq("A", kleene("B")), "other"))

    def test_empty_rejected(self):
        with pytest.raises(TemplateError):
            MergedTemplate({})


class TestWorkloadAnalysis:
    def test_sharable_queries_grouped(self):
        q1 = _q(seq("A", kleene("B")), "a_q1")
        q2 = _q(seq("C", kleene("B")), "a_q2")
        q3 = _q(seq("D", kleene("E")), "a_q3")
        analysis = analyze_workload(Workload([q1, q2, q3]))
        assert len(analysis.groups) == 2
        shared = analysis.group_of(q1)
        assert set(shared.queries) == {q1, q2}
        assert shared.shared_kleene_types == {"B"}
        assert shared.is_shared
        singleton = analysis.group_of(q3)
        assert singleton.queries == (q3,)
        assert not singleton.is_shared

    def test_different_groupby_not_shared(self):
        q1 = _q(seq("A", kleene("B")), "g_q1", group_by=("district",))
        q2 = _q(seq("C", kleene("B")), "g_q2", group_by=("company",))
        analysis = analyze_workload([q1, q2])
        assert len(analysis.groups) == 2

    def test_incompatible_aggregates_not_shared(self):
        q1 = _q(seq("A", kleene("B")), "agg_q1", aggregate=count_trends())
        q2 = _q(seq("C", kleene("B")), "agg_q2", aggregate=max_of("B", "x"))
        analysis = analyze_workload([q1, q2])
        assert len(analysis.groups) == 2

    def test_sum_and_avg_shared(self):
        q1 = _q(seq("A", kleene("B")), "sa_q1", aggregate=sum_of("B", "x"))
        q2 = _q(seq("C", kleene("B")), "sa_q2", aggregate=avg("B", "x"))
        analysis = analyze_workload([q1, q2])
        assert len(analysis.groups) == 1
        assert analysis.groups[0].is_shared

    def test_pane_size_is_gcd_of_windows(self):
        q1 = _q(seq("A", kleene("B")), "p_q1", window=Window(600.0, 300.0))
        q2 = _q(seq("C", kleene("B")), "p_q2", window=Window(900.0, 300.0))
        analysis = analyze_workload([q1, q2])
        assert analysis.groups[0].pane_size == pytest.approx(300.0)

    def test_transitive_grouping(self):
        """q1~q2 share B+, q2~q3 share C+, so all three land in one group."""
        q1 = _q(seq("A", kleene("B")), "t_q1")
        q2 = _q(seq(kleene("B"), kleene("C")), "t_q2")
        q3 = _q(seq("D", kleene("C")), "t_q3")
        analysis = analyze_workload([q1, q2, q3])
        assert len(analysis.groups) == 1
        assert analysis.groups[0].shared_kleene_types == {"B", "C"}


def _definition5_groups(queries) -> list[set[str]]:
    """Reference grouping: connected components of Definition 5, each pair
    walking both patterns afresh."""

    def sharable(a, b):
        return bool(
            a.kleene_types() & b.kleene_types()
            and a.aggregate.sharable_with(b.aggregate)
            and a.group_by == b.group_by
            and a.window.overlaps(b.window)
        )

    groups: list[dict[str, Query]] = []
    for query in queries:
        linked = [g for g in groups if any(sharable(query, other) for other in g.values())]
        merged = {query.name: query}
        for group in linked:
            merged.update(group)
            groups.remove(group)
        groups.append(merged)
    return sorted((set(g) for g in groups), key=sorted)


def _random_workload(seed: int) -> list[Query]:
    rng = random.Random(seed)
    aggregates = (count_trends, lambda: sum_of("B", "x"), lambda: avg("C", "x"),
                  lambda: max_of("B", "x"))
    queries = []
    for index in range(rng.randint(2, 14)):
        first, second = rng.sample("ABCDE", 2)
        pattern = seq(first, kleene(second)) if rng.random() < 0.7 else seq(
            kleene(first), kleene(second)
        )
        window = Window(rng.choice((60.0, 120.0)), rng.choice((30.0, 60.0)))
        queries.append(
            _q(pattern, f"r{seed}_{index}", aggregate=rng.choice(aggregates)(),
               group_by=rng.choice(((), ("g",))), window=window)
        )
    return queries


WORKLOADS = {
    "fig9": lambda: list(kleene_sharing_workload(50, window=Window(10.0, 2.0))),
    "multi-aggregate": lambda: list(multi_aggregate_workload(12)),
    **{f"random-{seed}": (lambda seed=seed: _random_workload(seed)) for seed in range(12)},
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_grouping_walks_each_pattern_once(name, monkeypatch):
    """The groups are Definition 5's components, computed with one
    ``kleene_types`` pattern walk per query rather than two per pair."""
    queries = WORKLOADS[name]()
    expected = _definition5_groups(queries)
    calls = []
    kleene_types = Query.kleene_types
    monkeypatch.setattr(
        Query, "kleene_types", lambda self: calls.append(self) or kleene_types(self)
    )
    analysis = analyze_workload(queries)
    assert sorted(({q.name for q in g.queries} for g in analysis.groups), key=sorted) == expected
    assert len(calls) <= len(queries)


class TestDecomposition:
    def test_disjunction_decomposed(self):
        q = _q(seq("A", kleene("B")) | seq("C", kleene("D")), "d_q1")
        assert decomposable(q)
        decomposition = decompose_query(q)
        assert len(decomposition.sub_queries) == 2
        assert decomposition.operator == "or"
        assert decomposition.combine({"d_q1#L": 3.0, "d_q1#R": 4.0}) == 7.0

    def test_conjunction_combination(self):
        q = _q(seq("A", kleene("B")) & seq("C", kleene("D")), "d_q2")
        decomposition = decompose_query(q)
        assert decomposition.operator == "and"
        assert decomposition.combine({"d_q2#L": 3.0, "d_q2#R": 4.0}) == 12.0

    def test_overlapping_types_rejected(self):
        q = _q(seq("A", kleene("B")) | seq("C", kleene("B")), "d_q3")
        with pytest.raises(TemplateError):
            decompose_query(q)

    def test_non_count_rejected(self):
        q = _q(seq("A", kleene("B")) | seq("C", kleene("D")), "d_q4", aggregate=sum_of("B", "x"))
        with pytest.raises(TemplateError):
            decompose_query(q)

    def test_analysis_records_decomposition(self):
        q = _q(seq("A", kleene("B")) | seq("C", kleene("D")), "d_q5")
        partner = _q(seq("Z", kleene("B")), "d_q6")
        analysis = analyze_workload([q, partner])
        assert "d_q5" in analysis.decompositions
        sub_names = {sub.name for sub in analysis.decompositions["d_q5"].sub_queries}
        all_grouped = {query.name for group in analysis.groups for query in group.queries}
        assert sub_names <= all_grouped
