import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential.correlate import (
    CorrelationGraph,
    CorrelationMatrix,
    Group,
    build_graph,
    pearson_matrix,
    prune_components,
)
from evidential.records import CaseRecord

from helpers import pearson_matrix_reference, pearson_reference


def cases_from_columns(columns: dict[str, list[float | None]]) -> list[CaseRecord]:
    length = len(next(iter(columns.values())))
    cases = []
    for i in range(length):
        values = {p: col[i] for p, col in columns.items() if col[i] is not None}
        cases.append(CaseRecord(f"c{i}", "x", values))
    return cases


def graph(nodes, edges, threshold=0.5):
    return CorrelationGraph(Group.BIOCHEMICAL, tuple(nodes), tuple(edges), threshold)


class TestPearson:
    def test_exact_linear(self):
        xs = [float(i) for i in range(10)]
        cases = cases_from_columns({"A": xs, "B": [2 * x + 1 for x in xs]})
        matrix = pearson_matrix(cases, ["A", "B"], min_pairs=10)
        assert matrix.coefficients[("A", "B")] == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse(self):
        xs = [float(i) for i in range(10)]
        cases = cases_from_columns({"A": xs, "B": [-x for x in xs]})
        matrix = pearson_matrix(cases, ["A", "B"], min_pairs=10)
        assert matrix.coefficients[("A", "B")] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_column_absent(self):
        cases = cases_from_columns({"A": [float(i) for i in range(10)], "B": [5.0] * 10})
        matrix = pearson_matrix(cases, ["A", "B"], min_pairs=10)
        assert ("A", "B") not in matrix.coefficients

    def test_min_pairs(self):
        xs = [float(i) for i in range(9)]
        cases = cases_from_columns({"A": xs, "B": [2 * x for x in xs]})
        assert ("A", "B") not in pearson_matrix(cases, ["A", "B"], min_pairs=10).coefficients
        assert ("A", "B") in pearson_matrix(cases, ["A", "B"], min_pairs=9).coefficients

    @pytest.mark.parametrize("min_pairs", [1, 0, -3])
    def test_min_pairs_below_two_rejected(self, min_pairs):
        cases = cases_from_columns({"A": [1.0, 2.0, 3.0], "B": [2.0, 1.0, 3.0]})
        with pytest.raises(ValueError, match="^min_pairs must be at least 2$"):
            pearson_matrix(cases, ["A", "B"], min_pairs=min_pairs)

    def test_pairwise_complete(self):
        # the row with the missing value must not poison the complete pairs
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, None]
        b = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 100.0]
        cases = cases_from_columns({"A": a, "B": b})
        matrix = pearson_matrix(cases, ["A", "B"], min_pairs=10)
        assert matrix.coefficients[("A", "B")] == pytest.approx(1.0, abs=1e-12)

    def test_large_finite_columns_do_not_overflow(self):
        # at scale 1 these columns give r = 0.2447552447552448; unscaled
        # moments of the 1e200 columns overflow, and the clipped NaN read 1.0
        cases = cases_from_columns({
            "A": [i * 1e200 for i in range(12)],
            "B": [(7 * i) % 12 * 1e200 for i in range(12)],
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = pearson_matrix(cases, ["A", "B"], min_pairs=10)
        assert matrix.coefficients[("A", "B")] == pytest.approx(0.24475524475524, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 20).flatmap(lambda n: st.lists(
        st.tuples(*[st.floats(-1e6, 1e6).filter(lambda v: v == 0 or abs(v) >= 1e-3)] * 2),
        min_size=n, max_size=n)))
    def test_ordinary_columns_match_the_plain_formula(self, rows):
        a, b = [x for x, _ in rows], [y for _, y in rows]
        matrix = pearson_matrix(cases_from_columns({"A": a, "B": b}), ["A", "B"], min_pairs=2)
        assert matrix.coefficients.get(("A", "B")) == pearson_reference(a, b)

    def test_no_params_rejected(self):
        with pytest.raises(ValueError):
            pearson_matrix([], [], min_pairs=10)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        # NaN marks a missing value inside pearson_matrix, and a clipped NaN
        # coefficient would read as |r| = 1
        xs = [float(i) for i in range(12)]
        cases = cases_from_columns({"A": xs, "B": [2 * x for x in xs[:-1]] + [bad]})
        with pytest.raises(ValueError, match="^case c11: non-finite value .* for B$"):
            pearson_matrix(cases, ["A", "B"], min_pairs=10)


def _matrix_or_error(pearson, cases, params):
    try:
        matrix = pearson(cases, params, min_pairs=2)
    except ValueError as exc:
        return str(exc)
    return matrix.params, list(matrix.coefficients.items())


_CELLS = st.sampled_from([None, 0.0, -0.0, 1.0, -1.0, 2.5, 1e200, -1e-300]) | st.floats(-10, 10)


class TestPearsonColumns:
    """pearson_matrix against the row-loop reference in helpers."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(_CELLS, _CELLS, _CELLS | st.sampled_from([math.nan, math.inf])),
                         max_size=25),
           params=st.sampled_from([["A", "B"], ["A", "B", "C"], ["B", "A", "D"], ["C", "A"]]),
           as_iterator=st.booleans())
    def test_matches_the_row_loop(self, rows, params, as_iterator):
        """C may hold a non-finite value, which only a params list naming C
        refuses; D is never measured."""
        cases = cases_from_columns({p: [row[i] for row in rows] for i, p in enumerate("ABC")})
        source = iter(cases) if as_iterator else cases
        assert (_matrix_or_error(pearson_matrix, source, params)
                == _matrix_or_error(pearson_matrix_reference, cases, params))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_first_non_finite_in_case_then_parameter_order(self, bad):
        cases = cases_from_columns({
            "A": [1.0, 2.0, bad, 4.0], "B": [1.0, bad, 3.0, bad], "C": [bad, 1.0, 2.0, 3.0],
        })
        with pytest.raises(ValueError, match=f"^case c1: non-finite value {bad} for B$"):
            pearson_matrix(cases, ["A", "B"], min_pairs=2)
        with pytest.raises(ValueError, match=f"^case c0: non-finite value {bad} for C$"):
            pearson_matrix(iter(cases), ["B", "C", "A"], min_pairs=2)


class TestBuildGraph:
    def test_threshold_filter(self):
        matrix = CorrelationMatrix(("A", "B", "C"), {("A", "B"): 0.6, ("A", "C"): 0.3})
        g = build_graph(matrix, 0.5)
        assert g.edges == (("A", "B", 0.6),)

    def test_negative_branch(self):
        matrix = CorrelationMatrix(("A", "B"), {("A", "B"): -0.55})
        g = build_graph(matrix, 0.5)
        assert g.edges == (("A", "B", -0.55),)

    def test_empty_matrix_gives_isolated_nodes(self):
        g = build_graph(CorrelationMatrix(("A", "B"), {}), 0.5)
        assert g.edges == ()
        assert g.nodes == ("A", "B")

    def test_threshold_validation(self):
        matrix = CorrelationMatrix(("A",), {})
        for threshold in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError) as err:
                build_graph(matrix, threshold)
            assert str(err.value) == f"threshold must be in (0, 1], got {threshold}"


class TestPruneComponents:
    def test_pair_keeps_first_name(self):
        result = prune_components(graph(["P", "Q"], [("P", "Q", 0.7)]))
        assert result.kept == {"P"}
        assert result.removed == {"Q"}
        assert result.components[0].rule == "two-node-first-name"

    def test_triangle_keeps_max_weight(self):
        # |r| sums: P = 0.6+0.7 = 1.3, Q = 0.6+0.5 = 1.1, R = 0.7+0.5 = 1.2
        edges = [("P", "Q", 0.6), ("P", "R", 0.7), ("Q", "R", 0.5)]
        result = prune_components(graph(["P", "Q", "R"], edges))
        assert result.kept == {"P"}
        assert result.removed == {"Q", "R"}
        assert result.components[0].rule == "equal-degree-max-weight"

    def test_star_plus_edge(self):
        edges = [
            ("A", "B", 0.6),
            ("A", "C", 0.55),
            ("A", "D", 0.5),
            ("B", "C", 0.52),
        ]
        result = prune_components(graph(["A", "B", "C", "D"], edges))
        assert result.kept == {"A", "B", "C"}
        assert result.removed == {"D"}
        assert result.components[0].rule == "hub-and-shared-neighbours"

    def test_isolated_nodes_always_kept(self):
        result = prune_components(graph(["A", "B", "C"], [("A", "B", 0.9)]))
        assert "C" in result.kept
        rules = {tuple(d.nodes): d.rule for d in result.components}
        assert rules[("C",)] == "isolated"

    def test_every_component_keeps_at_least_one(self):
        edges = [("A", "B", 0.9), ("C", "D", 0.8), ("C", "E", 0.7), ("D", "E", 0.6)]
        result = prune_components(graph(["A", "B", "C", "D", "E"], edges))
        for decision in result.components:
            assert len(decision.kept) >= 1
        assert result.kept | result.removed == {"A", "B", "C", "D", "E"}
        assert not result.kept & result.removed

    def test_equal_degree_beyond_triangle(self):
        # 4-cycle, every node degree 2; |r| sums A=1.4, B=1.5, C=1.4, D=1.3
        edges = [("A", "B", 0.9), ("B", "C", 0.6), ("C", "D", 0.8), ("A", "D", 0.5)]
        result = prune_components(graph(["A", "B", "C", "D"], edges))
        assert result.components[0].rule == "equal-degree-max-weight"
        assert result.kept == {"B"}

    def test_determinism_ten_runs(self):
        edges = [
            ("A", "B", 0.6),
            ("A", "C", 0.55),
            ("A", "D", 0.5),
            ("B", "C", 0.52),
            ("X", "Y", 0.7),
        ]
        g = graph(["A", "B", "C", "D", "X", "Y", "Z"], edges)
        first = prune_components(g)
        for _ in range(9):
            assert prune_components(g) == first

    def test_raising_threshold_never_adds_edges(self):
        matrix = CorrelationMatrix(
            ("A", "B", "C"), {("A", "B"): 0.6, ("A", "C"): 0.52, ("B", "C"): 0.8}
        )
        edge_counts = [len(build_graph(matrix, t).edges) for t in (0.5, 0.55, 0.7, 0.9)]
        assert edge_counts == sorted(edge_counts, reverse=True)

    def test_threshold_above_max_removes_nothing(self):
        matrix = CorrelationMatrix(("A", "B"), {("A", "B"): 0.6})
        result = prune_components(build_graph(matrix, 0.7))
        assert result.removed == frozenset()
