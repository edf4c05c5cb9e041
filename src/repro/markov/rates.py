"""Symbolic transition-rate expressions for parameterized chains.

Every transition the model builders declare carries a symbolic label such as
``"n*lambda"`` or ``"hep*mu_DF"``.  This module turns those labels into
compiled, reusable rate expressions so a chain built **once** can be
re-evaluated at many parameter points: a sweep evaluates each expression
once over the swept symbol columns instead of reconstructing
builder/chain/solver objects per point (see :mod:`repro.markov.template`).

The grammar is deliberately tiny — names, numeric literals and the four
arithmetic operators (plus unary minus and parentheses) — and expressions are
validated against a fixed symbol table, so a typo in a model label fails at
template-construction time rather than producing silent zeros.

Recognised symbols (matching the builders in :mod:`repro.core.models`):

==============  =====================================================
symbol          :class:`~repro.core.parameters.AvailabilityParameters`
==============  =====================================================
``n``           ``geometry.n_disks``
``lambda``      ``disk_failure_rate``
``mu_DF``       ``disk_repair_rate``
``mu_DDF``      ``ddf_recovery_rate``
``mu_he``       ``human_error_rate``
``mu_ch``       ``spare_replacement_rate``
``lambda_crash``  ``crash_rate``
``hep``         ``hep``
==============  =====================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Tuple

from repro.exceptions import TransitionError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.parameters import AvailabilityParameters

#: ``lambda`` is a Python keyword, so label text is rewritten onto these
#: internal identifiers before parsing.  ``\b`` does not split on ``_``, so
#: ``lambda_crash`` is rewritten as a whole before the bare ``lambda`` rule.
_REWRITES: Tuple[Tuple[str, str], ...] = (
    (r"\blambda_crash\b", "lam_crash"),
    (r"\blambda\b", "lam"),
)

#: Internal symbol names accepted in rate expressions.
RATE_SYMBOLS: Tuple[str, ...] = (
    "n",
    "lam",
    "mu_DF",
    "mu_DDF",
    "mu_he",
    "mu_ch",
    "lam_crash",
    "hep",
)

#: Parameter field -> rate symbol, used by the sweep engine to turn a swept
#: field into its symbol column.  ``geometry`` maps to ``n``.
PARAMETER_SYMBOLS: Dict[str, str] = {
    "geometry": "n",
    "disk_failure_rate": "lam",
    "disk_repair_rate": "mu_DF",
    "ddf_recovery_rate": "mu_DDF",
    "human_error_rate": "mu_he",
    "spare_replacement_rate": "mu_ch",
    "crash_rate": "lam_crash",
    "hep": "hep",
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def symbol_table(params: "AvailabilityParameters") -> Dict[str, float]:
    """Return the rate-symbol values of one parameter point.

    ``n`` is left as the builder's integer so evaluated products are
    bit-identical to the rates the model builders compute directly.
    """
    return {
        "n": params.geometry.n_disks,
        "lam": params.disk_failure_rate,
        "mu_DF": params.disk_repair_rate,
        "mu_DDF": params.ddf_recovery_rate,
        "mu_he": params.human_error_rate,
        "mu_ch": params.spare_replacement_rate,
        "lam_crash": params.crash_rate,
        "hep": params.hep,
    }


@dataclass(frozen=True)
class RateExpression:
    """One compiled transition-rate expression.

    Attributes
    ----------
    label:
        The original label text, kept for error messages and reports.
    symbols:
        The rate symbols the expression depends on; a parameter change that
        touches none of them cannot change this transition's rate.
    """

    label: str
    symbols: FrozenSet[str]
    _code: object

    def __call__(self, table: Mapping[str, object]):
        """Evaluate the expression against a :func:`symbol_table`.

        Symbols may also be bound to ``(k,)`` float arrays (symbol columns
        of ``k`` parameter points): the result is then an array wherever
        the expression mentions a column and a scalar otherwise, with the
        same IEEE arithmetic at every point as the scalar evaluation.
        """
        return eval(self._code, {"__builtins__": {}}, dict(table))  # noqa: S307

    @property
    def is_constant(self) -> bool:
        """Return whether the expression depends on no symbol at all."""
        return not self.symbols


def _validate_node(node: ast.AST, label: str) -> None:
    if isinstance(node, ast.Expression):
        _validate_node(node.body, label)
        return
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise TransitionError(
                f"rate label {label!r} uses unsupported operator {type(node.op).__name__}"
            )
        _validate_node(node.left, label)
        _validate_node(node.right, label)
        return
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise TransitionError(
                f"rate label {label!r} uses unsupported operator {type(node.op).__name__}"
            )
        _validate_node(node.operand, label)
        return
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise TransitionError(
                f"rate label {label!r} contains non-numeric constant {node.value!r}"
            )
        return
    if isinstance(node, ast.Name):
        if node.id not in RATE_SYMBOLS:
            raise TransitionError(
                f"rate label {label!r} references unknown symbol {node.id!r}; "
                f"known symbols: {sorted(RATE_SYMBOLS)}"
            )
        return
    raise TransitionError(
        f"rate label {label!r} contains unsupported syntax ({type(node).__name__})"
    )


def share_failure_label(n_live: int) -> str:
    """Return the rate label of a share-count decay transition.

    A ``k``-of-``N`` erasure group with ``n_live`` surviving shares loses
    its next share at rate ``n_live * lambda``; the label keeps the count
    as a literal so one :class:`~repro.markov.template.ChainTemplate`
    serves every parameter point of that geometry (``lambda`` rewrites,
    the share count does not).
    """
    count = int(n_live)
    if count < 1:
        raise TransitionError(
            f"share-count decay needs at least one live share, got {n_live!r}"
        )
    return f"{count}*lambda"


def compile_rate_expression(label: str) -> RateExpression:
    """Compile a symbolic rate label into a reusable expression.

    Raises :class:`~repro.exceptions.TransitionError` when the label is
    empty, malformed, or references a symbol outside the model vocabulary.
    """
    if not label or not label.strip():
        raise TransitionError(
            "parameterized chains require every transition to carry a symbolic "
            "rate label"
        )
    text = label
    for pattern, replacement in _REWRITES:
        text = re.sub(pattern, replacement, text)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise TransitionError(f"rate label {label!r} is not a valid expression: {exc}") from None
    _validate_node(tree, label)
    symbols = frozenset(
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    )
    code = compile(tree, filename=f"<rate {label!r}>", mode="eval")
    return RateExpression(label=label, symbols=symbols, _code=code)
