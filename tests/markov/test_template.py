"""Unit tests for rate expressions and parameterized chain templates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models.baseline import build_baseline_chain
from repro.core.models.raid5_conventional import build_conventional_chain
from repro.core.models.raid5_failover import build_failover_chain
from repro.core.parameters import paper_parameters
from repro.exceptions import SolverError, TransitionError
from repro.markov.builder import ChainBuilder
from repro.markov.rates import (
    PARAMETER_SYMBOLS,
    compile_rate_expression,
    symbol_table,
)
from repro.markov.solver import SPARSE_STATE_THRESHOLD, resolve_method
from repro.markov.template import ChainTemplate
from repro.storage.raid import RaidGeometry

MODEL_BUILDERS = {
    "baseline": build_baseline_chain,
    "conventional": build_conventional_chain,
    "automatic_failover": build_failover_chain,
}


class TestRateExpressions:
    def test_simple_symbols_evaluate(self):
        params = paper_parameters(hep=0.01)
        table = symbol_table(params)
        assert compile_rate_expression("mu_DF")(table) == params.disk_repair_rate
        assert compile_rate_expression("lambda")(table) == params.disk_failure_rate
        assert compile_rate_expression("lambda_crash")(table) == params.crash_rate

    def test_builder_arithmetic_is_reproduced_bitwise(self):
        params = paper_parameters(hep=0.01)
        table = symbol_table(params)
        n = params.geometry.n_disks
        assert compile_rate_expression("n*lambda")(table) == n * params.disk_failure_rate
        assert (
            compile_rate_expression("(1-hep)*mu_DF")(table)
            == (1.0 - params.hep) * params.disk_repair_rate
        )
        assert (
            compile_rate_expression("hep*(mu_DF+mu_ch)")(table)
            == params.hep * (params.disk_repair_rate + params.spare_replacement_rate)
        )

    def test_symbol_dependencies_recorded(self):
        expr = compile_rate_expression("hep*(mu_DF+mu_ch)")
        assert expr.symbols == {"hep", "mu_DF", "mu_ch"}
        assert not expr.is_constant
        assert compile_rate_expression("2*lambda_crash").symbols == {"lam_crash"}

    def test_unknown_symbol_rejected(self):
        with pytest.raises(TransitionError):
            compile_rate_expression("mu_unknown")

    def test_empty_label_rejected(self):
        with pytest.raises(TransitionError):
            compile_rate_expression("")

    def test_malformed_expression_rejected(self):
        with pytest.raises(TransitionError):
            compile_rate_expression("hep*")

    def test_function_calls_rejected(self):
        with pytest.raises(TransitionError):
            compile_rate_expression("abs(hep)")

    def test_parameter_symbol_map_covers_every_rate_field(self):
        params = paper_parameters()
        table = symbol_table(params)
        for field, symbol in PARAMETER_SYMBOLS.items():
            assert symbol in table
            assert hasattr(params, field)


def _columns(base, points, *symbols):
    """Return ``base``'s symbol table with ``symbols`` as columns over ``points``."""
    columns = symbol_table(base)
    for symbol in symbols:
        columns[symbol] = np.array([symbol_table(p)[symbol] for p in points])
    return columns


class TestChainTemplate:
    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_generator_matches_fresh_build(self, name):
        build = MODEL_BUILDERS[name]
        params = paper_parameters(hep=0.003)
        template = ChainTemplate(build(params), params)
        assert np.array_equal(
            template.generator_matrix(params), build(params).generator_matrix()
        )

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_incremental_update_matches_fresh_build(self, name):
        # One generator stack over hep and lambda columns reproduces a fresh
        # build at every point, bit for bit.
        build = MODEL_BUILDERS[name]
        base = paper_parameters(hep=0.003)
        template = ChainTemplate(build(base), base)
        points = (
            base.with_hep(0.01),
            base.with_hep(0.01).with_failure_rate(2e-5),
            base.with_failure_rate(7e-7).with_hep(0.25),
        )
        stack = template.generator_stack(_columns(base, points, "hep", "lam"))
        assert stack.shape == (len(points), template.n_states, template.n_states)
        for q, params in zip(stack, points):
            assert np.array_equal(q, build(params).generator_matrix())

    def test_hep_change_rewrites_only_affected_entries(self):
        params = paper_parameters(hep=0.003)
        chain = build_conventional_chain(params)
        template = ChainTemplate(chain, params)
        index = {name: i for i, name in enumerate(chain.state_names)}
        hep_cells = {
            (index[t.source], index[t.target]) for t in chain.transitions if "hep" in t.label
        }
        points = (params, params.with_hep(0.01))
        first, second = template.generator_stack(_columns(params, points, "hep"))
        off_diagonal = ~np.eye(template.n_states, dtype=bool)
        changed = {
            (int(i), int(j)) for i, j in zip(*np.nonzero((first != second) & off_diagonal))
        }
        assert changed == hep_cells
        # A column that does not vary leaves every matrix of the stack equal.
        same = (params.with_hep(0.01), params.with_hep(0.01))
        first, second = template.generator_stack(_columns(params, same, "hep"))
        assert np.array_equal(first, second)

    def test_unaffected_symbol_rewrites_nothing(self):
        # The baseline chain never mentions hep, so a hep column is inert.
        params = paper_parameters(hep=0.003)
        template = ChainTemplate(build_baseline_chain(params), params)
        points = (params, params.with_hep(0.42))
        for q in template.generator_stack(_columns(params, points, "hep")):
            assert np.array_equal(q, template.generator_matrix(params))

    def test_geometry_is_a_template_axis(self):
        params = paper_parameters(geometry=RaidGeometry.raid5(3), hep=0.01)
        build = build_conventional_chain
        template = ChainTemplate(build(params), params)
        wider = params.with_geometry(RaidGeometry.raid5(7))
        assert np.array_equal(template.generator_matrix(wider), build(wider).generator_matrix())
        stack = template.generator_stack(_columns(params, (params, wider), "n"))
        assert np.array_equal(stack[1], build(wider).generator_matrix())

    def test_columns_of_different_lengths_rejected(self):
        params = paper_parameters(hep=0.01)
        template = ChainTemplate(build_conventional_chain(params), params)
        columns = dict(symbol_table(params), hep=np.array([0.1, 0.2]), lam=np.array([1e-6]))
        with pytest.raises(SolverError, match="disagree"):
            template.generator_stack(columns)

    def test_unlabelled_transition_rejected(self):
        params = paper_parameters()
        builder = ChainBuilder("unlabelled")
        builder.add_up_state("A").add_down_state("B")
        builder.add_transition("A", "B", 0.5)  # no label
        builder.add_transition("B", "A", 0.5, label="mu_DF")
        with pytest.raises(TransitionError):
            ChainTemplate(builder.build(validate=False), params)

    def test_label_disagreeing_with_rate_rejected(self):
        params = paper_parameters()
        builder = ChainBuilder("lying-label")
        builder.add_up_state("A").add_down_state("B")
        builder.add_transition("A", "B", 123.0, label="mu_DF")  # mu_DF is 0.1
        builder.add_transition("B", "A", params.disk_repair_rate, label="mu_DF")
        with pytest.raises(TransitionError):
            ChainTemplate(builder.build(validate=False), params)


class TestSolverEquivalenceOnTemplates:
    """Satellite: dense vs sparse vs power on the same parameterized template."""

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_dense_sparse_power_agree(self, name):
        build = MODEL_BUILDERS[name]
        params = paper_parameters(disk_failure_rate=1e-5, hep=0.01)
        evaluator = ChainTemplate(build(params), params).evaluator(params)
        dense = evaluator.solve(method="dense")
        sparse = evaluator.solve(method="sparse")
        power = evaluator.solve(method="power")
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(power, dense, rtol=0, atol=1e-7)

    def test_auto_selects_dense_for_small_chains(self):
        params = paper_parameters()
        evaluator = ChainTemplate(
            build_conventional_chain(params), params
        ).evaluator(params)
        assert evaluator.solver_name("auto") == "dense"
        assert evaluator.solver_name("sparse") == "sparse"

    def test_auto_threshold(self):
        assert resolve_method("auto", SPARSE_STATE_THRESHOLD - 1) == "dense"
        assert resolve_method("auto", SPARSE_STATE_THRESHOLD) == "sparse"

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError):
            resolve_method("cholesky", 4)
