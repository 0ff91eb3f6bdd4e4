"""Plan commands: access commands and middleware query commands.

An access command ``T <- mt <- E`` (Section 2): evaluate ``E`` over the
temporary tables, feed every result tuple into access method ``mt``, and
collect each matching relation tuple into ``T`` through the output
mapping ``b_out``.  The output mapping may duplicate a relation position
into several ``T`` attributes and may map two relation positions to one
attribute (which acts as an equality filter) -- both cases from the
paper's plan semantics are implemented.

A middleware command ``T := E`` runs relational algebra locally, at no
access cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.plans.expressions import (
    EvaluationError,
    Expression,
    NamedTable,
)
from repro.logic.terms import Constant, Term

# One entry per method input position: either the name of an attribute of
# the input expression's result, or a fixed schema constant.
InputBinding = Tuple[Union[str, Constant], ...]


@dataclass(frozen=True)
class AccessCommand:
    """``target <- method <- input_expr``.

    ``input_binding``
        one entry per input position of the method, in the method's
        declared order (the paper's ``b_in``): an attribute name of the
        input expression's result, or a schema :class:`Constant`.
    ``output_map``
        the paper's ``b_out``: ``(attribute, (position, ...))`` pairs.
        Relation positions may feed several attributes (duplication); if
        an attribute is fed by several positions the accessed tuple is
        kept only when they agree (equality filter).
    """

    target: str
    method: str
    input_expr: Expression
    input_binding: InputBinding
    output_map: Tuple[Tuple[str, Tuple[int, ...]], ...]

    @property
    def output_attrs(self) -> Tuple[str, ...]:
        """The attribute names of the produced table, in order."""
        return tuple(attr for attr, _ in self.output_map)

    @property
    def input_attrs(self) -> Tuple[str, ...]:
        """Distinct attribute names read from the input expression.

        An attribute feeding several input positions (a repeated variable
        in a guard) is listed once; the binding re-reads it per position.
        """
        seen: Dict[str, None] = {}
        for entry in self.input_binding:
            if isinstance(entry, str) and entry not in seen:
                seen[entry] = None
        return tuple(seen)

    def execute(
        self,
        env: Dict[str, NamedTable],
        source,
        cache=None,
        stats=None,
        resilience=None,
    ) -> NamedTable:
        """Run the command against a source; returns the produced table.

        Dispatch is *deduplicated*: the distinct input-value tuples are
        collected before any access is made, so an input expression that
        yields the same binding several times (or binds only constants)
        costs one invocation per distinct tuple.  With an
        :class:`~repro.exec.cache.AccessCache` supplied, each distinct
        tuple is further memoized across commands and plans.  ``stats``
        (a :class:`~repro.exec.stats.CommandStats`) receives the
        dispatch breakdown when given.  ``resilience`` (a
        :class:`~repro.exec.resilience.ResilientDispatcher`) wraps each
        dispatch in retry/backoff, circuit-breaker and deadline checks;
        without it a failing access propagates immediately.
        """
        inputs = self.input_expr.evaluate(env)
        try:
            projected = inputs.project(self.input_attrs)
        except EvaluationError as exc:
            raise EvaluationError(
                f"access {self.method}: input expression lacks "
                f"attributes {self.input_attrs}: {exc}"
            ) from exc
        columns = {a: i for i, a in enumerate(projected.attributes)}
        distinct: Dict[Tuple, None] = {}
        for input_row in projected.rows:
            values = tuple(
                entry
                if isinstance(entry, Constant)
                else input_row[columns[entry]]
                for entry in self.input_binding
            )
            distinct.setdefault(values, None)
        rows = set()
        fetched = 0
        cache_hits = 0
        retries_before = resilience.retries if resilience is not None else 0
        faults_before = resilience.faults if resilience is not None else 0
        batch = getattr(source, "access_batch", None) if cache is None else None
        if callable(batch) and len(distinct) > 1:
            # Batch at the access boundary: several distinct input
            # tuples become one backend round trip (the backend still
            # meters one logical access per tuple).  Only without an
            # AccessCache -- the cache's single-flight memoization is
            # per key, and splitting a batch across hit/miss keys would
            # re-derive exactly the per-key loop below.
            keyed = list(distinct)
            if resilience is not None:
                answers = resilience.call(
                    lambda: batch(self.method, keyed),
                    self.method,
                    inputs=keyed[0],
                )
            else:
                answers = batch(self.method, keyed)
            for values in keyed:
                accessed_rows = answers[values]
                fetched += len(accessed_rows)
                for accessed in accessed_rows:
                    out_row = self._map_output(accessed)
                    if out_row is not None:
                        rows.add(out_row)
        else:
            for values in distinct:
                if resilience is not None:
                    if cache is not None:
                        fetch = lambda v=values: cache.fetch(
                            source, self.method, v
                        )
                    else:
                        fetch = lambda v=values: source.access(self.method, v)
                    accessed_rows = resilience.call(
                        fetch, self.method, inputs=values
                    )
                elif cache is not None:
                    accessed_rows = cache.fetch(source, self.method, values)
                else:
                    accessed_rows = source.access(self.method, values)
                if cache is not None and cache.last_fetch_hit():
                    cache_hits += 1
                fetched += len(accessed_rows)
                for accessed in accessed_rows:
                    out_row = self._map_output(accessed)
                    if out_row is not None:
                        rows.add(out_row)
        if stats is not None:
            # rows_in counts the raw tuples the input expression fed the
            # access; the projection onto the bound attributes is what
            # collapses them into the distinct dispatch set.
            stats.rows_in = len(inputs.rows)
            stats.dispatched = len(distinct)
            stats.deduped = len(inputs.rows) - len(distinct)
            stats.rows_fetched = fetched
            if cache is not None:
                stats.cache_hits = cache_hits
            if resilience is not None:
                stats.retries = resilience.retries - retries_before
                stats.faults = resilience.faults - faults_before
        table = NamedTable(self.output_attrs, frozenset(rows))
        if stats is not None:
            stats.rows_out = len(table.rows)
        env[self.target] = table
        return table

    def _map_output(
        self, accessed: Tuple[Term, ...]
    ) -> Optional[Tuple[Term, ...]]:
        out: List[Term] = []
        for _attr, positions in self.output_map:
            values = {accessed[p] for p in positions}
            if len(values) != 1:
                return None  # equality filter failed
            out.append(next(iter(values)))
        return tuple(out)

    def __repr__(self) -> str:
        return (
            f"{self.target} <- {self.method} <- "
            f"{self.input_expr!r}"
        )


@dataclass(frozen=True)
class MiddlewareCommand:
    """``target := expr`` -- local relational algebra, no access cost."""

    target: str
    expr: Expression

    def execute(
        self,
        env: Dict[str, NamedTable],
        source,
        cache=None,
        stats=None,
        resilience=None,
    ) -> NamedTable:
        """Run the command, writing its target table into the env.

        ``cache`` and ``resilience`` are accepted for signature parity
        with :meth:`AccessCommand.execute` and ignored -- middleware
        commands never touch the source.
        """
        table = self.expr.evaluate(env)
        if stats is not None:
            stats.rows_out = len(table.rows)
        env[self.target] = table
        return table

    def __repr__(self) -> str:
        return f"{self.target} := {self.expr!r}"


Command = Union[AccessCommand, MiddlewareCommand]


def identity_output_map(
    attrs: Sequence[str],
) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """b_out mapping position i to the i-th attribute, one-to-one."""
    return tuple((attr, (i,)) for i, attr in enumerate(attrs))
