"""The columnar executor: vectorized plan execution over numpy columns.

The tuple-at-a-time interpreter in :mod:`repro.plans.expressions` pays
Python-level cost per *row*; after PR 3's indexing and caching the
remaining execution time on row-heavy plans is exactly that per-row
overhead.  This backend pays Python cost per *operator* instead: a
:class:`ColumnarPlan` is compiled from the serializable plan IR
(:mod:`repro.plans.ir`) into a pipeline over **dictionary-encoded
column arrays** -- every ground term is interned to a small integer
code once per execution, relations become one ``int64`` array per
attribute, and the relational operators become array programs:

* selections are boolean mask vectors (``EqAttr``/``EqConst``/
  ``NeqAttr``/``NeqConst`` compile to ``==``/``!=`` over code arrays --
  sound because dictionary codes preserve exactly term equality, the
  only predicate the plan language ever tests);
* natural joins are vectorized hash joins: the *smaller* side is
  sorted by its composite key (the build), the larger side probes via
  binary search, and matching row-index pairs are expanded with
  ``repeat``/``cumsum`` arithmetic -- no Python-level row loop;
* selections and projections sitting directly above a join are fused
  into the probe: conditions mask the matched index pairs and only the
  surviving, needed columns are ever gathered;
* unions, differences and duplicate elimination reduce to grouping on
  a joint row-id encoding of the participating tables.

Set semantics are preserved operator by operator (tables are
deduplicated exactly where the interpreter's ``frozenset`` semantics
deduplicate), so every intermediate table has the same cardinality the
interpreter sees -- which is what makes the shared
:class:`~repro.exec.stats.ExecStats` accounting, the
:class:`~repro.exec.budget.ResourceBudget` resident/result checks and
the deterministic truncation prefix *identical* across backends.

Access commands stay tuple-at-a-time at the boundary -- the source API
is an external call per distinct input tuple -- but the input side is
batched: the input expression is evaluated columnar, the distinct
binding tuples are computed by one vectorized grouping, and only those
are decoded back to terms and dispatched through the existing
:class:`~repro.data.source.InMemorySource` indexes,
:class:`~repro.exec.cache.AccessCache` and resilience stack, with
unchanged dedup/cache/retry accounting.

``Plan.execute(..., executor="differential")`` runs this backend and
the interpreter back to back and asserts identical sorted answers; the
interpreter remains the oracle.  Soundness arguments live in
``docs/theory.md`` ("Columnar execution and the plan IR").
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

try:  # numpy is a baked-in dependency; fail with guidance, not a stack dump
    import numpy as np
except ImportError as exc:  # pragma: no cover
    raise ImportError(
        "the columnar executor requires numpy; "
        "use executor='interpreter' on installs without it"
    ) from exc

from repro.errors import ExecutionError
from repro.logic.terms import Constant, Term
from repro.plans.commands import AccessCommand, MiddlewareCommand
from repro.plans.expressions import EvaluationError, NamedTable
from repro.plans.ir import (
    PlanIRError,
    condition_from_ir,
    plan_to_ir,
    term_from_ir,
)

__all__ = [
    "ColumnarPlan",
    "compile_columnar",
    "execute_differential",
    "DifferentialMismatch",
]


class DifferentialMismatch(ExecutionError):
    """Raised when the columnar and interpreter answers disagree."""


# ----------------------------------------------------------------- encoding
class _Codec:
    """Per-execution term dictionary: ground term <-> int64 code.

    Codes preserve equality and nothing else, which is all the plan
    language's conditions ever test.  One codec spans one plan
    execution, so every table in the environment speaks the same
    dictionary.
    """

    __slots__ = ("_codes", "_terms")

    def __init__(self) -> None:
        self._codes: Dict[Term, int] = {}
        self._terms: List[Term] = []

    def code(self, term: Term) -> int:
        """The (interning) code of one term."""
        code = self._codes.get(term)
        if code is None:
            code = len(self._terms)
            self._codes[term] = code
            self._terms.append(term)
        return code

    def encode_rows(
        self, attributes: Tuple[str, ...], rows
    ) -> "_ColTable":
        """Encode an iterable of term tuples into a column table."""
        width = len(attributes)
        codes = self._codes
        terms = self._terms
        columns = [[] for _ in range(width)]
        count = 0
        for row in rows:
            count += 1
            for position in range(width):
                term = row[position]
                code = codes.get(term)
                if code is None:
                    code = len(terms)
                    codes[term] = code
                    terms.append(term)
                columns[position].append(code)
        return _ColTable(
            attributes,
            tuple(
                np.asarray(column, dtype=np.int64) for column in columns
            ),
            count,
        )

    def decode_table(self, table: "_ColTable") -> NamedTable:
        """Materialize a column table back into a :class:`NamedTable`."""
        if not table.attributes:
            rows = frozenset({()}) if table.nrows else frozenset()
            return NamedTable((), rows)
        lookup = np.array(self._terms, dtype=object)
        decoded = [lookup[column[: table.nrows]] for column in table.columns]
        return NamedTable(table.attributes, frozenset(zip(*decoded)))

    def decode(self, code: int) -> Term:
        """The term behind one code."""
        return self._terms[code]


class _ColTable:
    """An immutable relation as one int64 code array per attribute."""

    __slots__ = ("attributes", "columns", "nrows", "_colmap")

    def __init__(
        self,
        attributes: Tuple[str, ...],
        columns: Tuple[np.ndarray, ...],
        nrows: int,
    ) -> None:
        if len(set(attributes)) != len(attributes):
            raise EvaluationError(f"duplicate attribute in {attributes}")
        self.attributes = attributes
        self.columns = columns
        self.nrows = nrows
        self._colmap = {a: i for i, a in enumerate(attributes)}

    def column(self, attribute: str) -> np.ndarray:
        """The code array of an attribute (raises on unknown names)."""
        try:
            return self.columns[self._colmap[attribute]]
        except KeyError:
            raise EvaluationError(
                f"no attribute {attribute!r} in {self.attributes}"
            ) from None

    def has(self, attribute: str) -> bool:
        """True if the table carries the attribute."""
        return attribute in self._colmap

    def take(self, indexes: np.ndarray) -> "_ColTable":
        """Row subset by index array (no dedup)."""
        return _ColTable(
            self.attributes,
            tuple(column[indexes] for column in self.columns),
            len(indexes),
        )

    def mask(self, keep: np.ndarray) -> "_ColTable":
        """Row subset by boolean mask (no dedup)."""
        return _ColTable(
            self.attributes,
            tuple(column[keep] for column in self.columns),
            int(np.count_nonzero(keep)),
        )

    def __repr__(self) -> str:
        return f"_ColTable({list(self.attributes)}, {self.nrows} rows)"


def _row_ids(columns: Sequence[np.ndarray], nrows: int) -> np.ndarray:
    """One int64 id per row such that equal rows get equal ids.

    Columns are folded pairwise; the running ids are recompressed to a
    dense range before each fold, so the product of the two factors
    stays far below 2**63 for any realistic table.
    """
    if not columns:
        return np.zeros(nrows, dtype=np.int64)
    ids = columns[0].astype(np.int64, copy=False)
    for column in columns[1:]:
        _, ids = np.unique(ids, return_inverse=True)
        multiplier = int(column.max()) + 1 if column.size else 1
        ids = ids * np.int64(multiplier) + column
    return ids


def _dedup(table: _ColTable) -> _ColTable:
    """Duplicate elimination (the frozenset semantics of NamedTable)."""
    if not table.attributes:
        return _ColTable((), (), min(table.nrows, 1))
    if table.nrows <= 1:
        return table
    ids = _row_ids(table.columns, table.nrows)
    _, first = np.unique(ids, return_index=True)
    if len(first) == table.nrows:
        return table
    return table.take(first)


# ------------------------------------------------------------- expressions
class _CExpr:
    """Base class of compiled IR expressions."""

    __slots__ = ()

    def eval(self, env: Dict[str, _ColTable], codec: _Codec) -> _ColTable:
        """Evaluate this node over ``env`` into a column table."""
        raise NotImplementedError

    def tables_read(self) -> frozenset:
        """Names of the temp tables this subtree scans."""
        raise NotImplementedError


class _CSingleton(_CExpr):
    __slots__ = ()

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        return _ColTable((), (), 1)

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return frozenset()


class _CScan(_CExpr):
    __slots__ = ("table",)

    def __init__(self, table: str) -> None:
        self.table = table

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        try:
            return env[self.table]
        except KeyError:
            raise EvaluationError(f"unknown table {self.table!r}") from None

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return frozenset({self.table})


class _CLiteral(_CExpr):
    __slots__ = ("attrs", "rows")

    def __init__(self, attrs: Tuple[str, ...], rows: Tuple[Tuple[Term, ...], ...]):
        self.attrs = attrs
        self.rows = rows

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        return codec.encode_rows(self.attrs, self.rows)

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return frozenset()


class _CProject(_CExpr):
    __slots__ = ("child", "attrs")

    def __init__(self, child: _CExpr, attrs: Tuple[str, ...]) -> None:
        self.child = child
        self.attrs = attrs

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        table = self.child.eval(env, codec)
        columns = tuple(table.column(a) for a in self.attrs)
        return _dedup(_ColTable(self.attrs, columns, table.nrows))

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return self.child.tables_read()


def _condition_mask(
    condition, table_column, nrows: int, codec: _Codec
) -> Optional[np.ndarray]:
    """Boolean keep-mask of one condition, given a column resolver.

    ``table_column(name)`` returns the code array of an attribute or
    raises :class:`EvaluationError`; the caller decides how unknown
    attributes interact with emptiness (matching the interpreter's
    lazy ``holds`` fallback, which only raises when a row is checked).
    """
    from repro.plans.expressions import EqAttr, EqConst, NeqAttr, NeqConst

    if isinstance(condition, EqAttr):
        return table_column(condition.left) == table_column(condition.right)
    if isinstance(condition, NeqAttr):
        return table_column(condition.left) != table_column(condition.right)
    if isinstance(condition, EqConst):
        return table_column(condition.attribute) == codec.code(condition.value)
    if isinstance(condition, NeqConst):
        return table_column(condition.attribute) != codec.code(condition.value)
    raise PlanIRError(  # unreachable off the IR path; kept for safety
        f"columnar backend cannot evaluate condition {condition!r}"
    )


class _CSelect(_CExpr):
    __slots__ = ("child", "conditions")

    def __init__(self, child: _CExpr, conditions: Tuple[object, ...]) -> None:
        self.child = child
        self.conditions = conditions

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        table = self.child.eval(env, codec)
        keep: Optional[np.ndarray] = None
        for condition in self.conditions:
            try:
                mask = _condition_mask(
                    condition, table.column, table.nrows, codec
                )
            except EvaluationError:
                # The interpreter's holds() fallback raises only when a
                # row is actually checked: empty input passes through.
                if table.nrows == 0:
                    return table
                raise
            keep = mask if keep is None else (keep & mask)
        if keep is None:
            return table
        return table.mask(keep)

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return self.child.tables_read()


class _CRename(_CExpr):
    __slots__ = ("child", "mapping")

    def __init__(self, child: _CExpr, mapping: Tuple[Tuple[str, str], ...]):
        self.child = child
        self.mapping = dict(mapping)

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        table = self.child.eval(env, codec)
        attrs = tuple(self.mapping.get(a, a) for a in table.attributes)
        return _ColTable(attrs, table.columns, table.nrows)

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return self.child.tables_read()


class _CUnion(_CExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: _CExpr, right: _CExpr) -> None:
        self.left = left
        self.right = right

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        left = self.left.eval(env, codec)
        right = self.right.eval(env, codec)
        right_cols = tuple(right.column(a) for a in left.attributes)
        if not left.attributes:
            return _ColTable((), (), min(left.nrows + right.nrows, 1))
        columns = tuple(
            np.concatenate((lc, rc))
            for lc, rc in zip(left.columns, right_cols)
        )
        return _dedup(
            _ColTable(left.attributes, columns, left.nrows + right.nrows)
        )

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return self.left.tables_read() | self.right.tables_read()


class _CDifference(_CExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: _CExpr, right: _CExpr) -> None:
        self.left = left
        self.right = right

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        left = self.left.eval(env, codec)
        right = self.right.eval(env, codec)
        right_cols = [right.column(a) for a in left.attributes]
        if not left.attributes:
            kept = left.nrows if right.nrows == 0 else 0
            return _ColTable((), (), min(kept, 1))
        joint = [
            np.concatenate((lc, rc))
            for lc, rc in zip(left.columns, right_cols)
        ]
        ids = _row_ids(joint, left.nrows + right.nrows)
        left_ids, right_ids = ids[: left.nrows], ids[left.nrows:]
        keep = np.isin(left_ids, right_ids, invert=True)
        return left.mask(keep)

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return self.left.tables_read() | self.right.tables_read()


class _CJoin(_CExpr):
    """Natural join with fused selection/projection over the probe.

    The compiler folds ``Select``/``Project`` nodes sitting directly
    above a ``Join`` into ``conditions``/``project_to`` here, mirroring
    ``Join._evaluate_fused`` in the interpreter: conditions mask the
    matched row-index pairs and only surviving, needed columns are
    gathered -- the full join result is never materialized.
    """

    __slots__ = ("left", "right", "conditions", "project_to")

    def __init__(
        self,
        left: _CExpr,
        right: _CExpr,
        conditions: Tuple[object, ...] = (),
        project_to: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.conditions = conditions
        self.project_to = project_to

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        left = self.left.eval(env, codec)
        right = self.right.eval(env, codec)
        shared = [a for a in right.attributes if left.has(a)]
        extra = [a for a in right.attributes if not left.has(a)]
        out_attrs = left.attributes + tuple(extra)
        left_idx, right_idx = _match_pairs(left, right, shared)

        def pair_column(attribute: str) -> np.ndarray:
            """Resolve an equi-join attribute to (side, code column)."""
            if left.has(attribute):
                return left.column(attribute)[left_idx]
            if right.has(attribute):
                return right.column(attribute)[right_idx]
            raise EvaluationError(
                f"no attribute {attribute!r} in {out_attrs}"
            )

        keep: Optional[np.ndarray] = None
        for condition in self.conditions:
            try:
                mask = _condition_mask(
                    condition, pair_column, len(left_idx), codec
                )
            except EvaluationError:
                # Interpreter parity: the unfused fallback only raises
                # when a joined row is actually checked.
                if len(left_idx) == 0:
                    attrs = (
                        out_attrs
                        if self.project_to is None
                        else self._checked_projection(out_attrs)
                    )
                    return _ColTable(
                        attrs, tuple(np.empty(0, np.int64) for _ in attrs), 0
                    )
                raise
            keep = mask if keep is None else (keep & mask)
        if keep is not None:
            left_idx = left_idx[keep]
            right_idx = right_idx[keep]
        attrs = (
            out_attrs
            if self.project_to is None
            else self._checked_projection(out_attrs)
        )
        columns = []
        for attribute in attrs:
            if left.has(attribute):
                columns.append(left.column(attribute)[left_idx])
            else:
                columns.append(right.column(attribute)[right_idx])
        table = _ColTable(attrs, tuple(columns), len(left_idx))
        # A natural join of two duplicate-free tables is duplicate-free
        # (shared + extra covers every right attribute); only an actual
        # projection can collapse rows.
        return table if self.project_to is None else _dedup(table)

    def _checked_projection(self, out_attrs: Tuple[str, ...]) -> Tuple[str, ...]:
        for attribute in self.project_to:
            if attribute not in out_attrs:
                raise EvaluationError(
                    f"no attribute {attribute!r} in {out_attrs}"
                )
        return self.project_to

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return self.left.tables_read() | self.right.tables_read()


def _match_pairs(
    left: _ColTable, right: _ColTable, shared: List[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (left index, right index) pairs of the natural join.

    The smaller side is sorted by its composite key (the build side of
    a classic hash join); the larger side probes with binary search and
    match runs are expanded with repeat/cumsum arithmetic.
    """
    if not shared:
        left_idx = np.repeat(np.arange(left.nrows), right.nrows)
        right_idx = np.tile(np.arange(right.nrows), left.nrows)
        return left_idx, right_idx
    joint = [
        np.concatenate((left.column(a), right.column(a))) for a in shared
    ]
    ids = _row_ids(joint, left.nrows + right.nrows)
    left_ids, right_ids = ids[: left.nrows], ids[left.nrows:]
    if right.nrows <= left.nrows:
        build_ids, probe_ids = right_ids, left_ids
        swap = False
    else:
        build_ids, probe_ids = left_ids, right_ids
        swap = True
    order = np.argsort(build_ids, kind="stable")
    sorted_ids = build_ids[order]
    starts = np.searchsorted(sorted_ids, probe_ids, side="left")
    ends = np.searchsorted(sorted_ids, probe_ids, side="right")
    counts = ends - starts
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe_ids)), counts)
    run_starts = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(run_starts, counts)
    build_idx = order[np.repeat(starts, counts) + within]
    if swap:
        return build_idx, probe_idx
    return probe_idx, build_idx


# ---------------------------------------------------------------- commands
class _CAccess:
    """A compiled access command: batched input, tuple-level dispatch."""

    __slots__ = (
        "target", "method", "input_expr", "binding", "output_map",
        "input_attrs",
    )
    kind = "access"

    def __init__(self, target, method, input_expr, binding, output_map):
        self.target = target
        self.method = method
        self.input_expr = input_expr
        self.binding = binding
        self.output_map = output_map
        seen: Dict[str, None] = {}
        for entry in binding:
            if isinstance(entry, str) and entry not in seen:
                seen[entry] = None
        self.input_attrs = tuple(seen)

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return self.input_expr.tables_read()

    def execute(self, env, source, codec, cache, stats, resilience):
        """Run this compiled command, mutating ``env`` and ``stats``."""
        inputs = self.input_expr.eval(env, codec)
        try:
            columns = [inputs.column(a) for a in self.input_attrs]
        except EvaluationError as exc:
            raise EvaluationError(
                f"access {self.method}: input expression lacks "
                f"attributes {self.input_attrs}: {exc}"
            ) from exc
        # Distinct binding tuples via one vectorized grouping; only the
        # representatives are decoded back to terms for dispatch.
        if columns:
            ids = _row_ids(columns, inputs.nrows)
            _, first = np.unique(ids, return_index=True)
            distinct_rows = [
                tuple(int(column[i]) for column in columns) for i in first
            ]
        else:
            distinct_rows = [()] if inputs.nrows else []
        attr_pos = {a: i for i, a in enumerate(self.input_attrs)}
        bindings = []
        for codes in distinct_rows:
            bindings.append(
                tuple(
                    entry
                    if isinstance(entry, Constant)
                    else codec.decode(codes[attr_pos[entry]])
                    for entry in self.binding
                )
            )
        batches = []
        cache_hits = 0
        retries_before = resilience.retries if resilience is not None else 0
        faults_before = resilience.faults if resilience is not None else 0
        for values in bindings:
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
            batches.append(accessed_rows)
        if stats is not None:
            stats.rows_in = inputs.nrows
            stats.dispatched = len(bindings)
            stats.deduped = inputs.nrows - len(bindings)
            stats.rows_fetched = sum(len(batch) for batch in batches)
            if cache is not None:
                stats.cache_hits = cache_hits
            if resilience is not None:
                stats.retries = resilience.retries - retries_before
                stats.faults = resilience.faults - faults_before
        table = self._encode_output(batches, codec)
        if stats is not None:
            stats.rows_out = table.nrows
        env[self.target] = table

    def _encode_output(self, batches, codec) -> _ColTable:
        """Batch-map the accessed tuples into the output column table.

        The per-row path this replaces built a Python value set per
        output attribute per accessed row (the repeated-position
        equality filter), inserted mapped tuples into a Python set, and
        then re-interned every cell in ``encode_rows``.  Here each
        *referenced source position* is interned exactly once into an
        int64 code array, the equality filter is a vectorized mask over
        those arrays, and set semantics are restored by the same
        ``_dedup`` grouping the middleware boundary uses.
        """
        rows: List[Tuple[Term, ...]] = []
        for batch in batches:
            rows.extend(batch)
        if not self.output_map:
            # Boolean access: any surviving row witnesses the empty tuple.
            return _ColTable((), (), 1 if rows else 0)
        positions = sorted(
            {p for _attr, ps in self.output_map for p in ps}
        )
        code = codec.code
        arrays = {
            p: np.asarray([code(row[p]) for row in rows], dtype=np.int64)
            for p in positions
        }
        # A repeated output position (attr <- positions p0, p1, ...) is an
        # equality filter: the row survives only when all agree.
        mask = None
        for _attr, ps in self.output_map:
            for extra in ps[1:]:
                eq = arrays[ps[0]] == arrays[extra]
                mask = eq if mask is None else mask & eq
        columns = tuple(
            arrays[ps[0]][mask] if mask is not None else arrays[ps[0]]
            for _attr, ps in self.output_map
        )
        kept = int(columns[0].shape[0])
        out_attrs = tuple(attr for attr, _ in self.output_map)
        return _dedup(_ColTable(out_attrs, columns, kept))


class _CMiddleware:
    """A compiled middleware command: local columnar algebra."""

    __slots__ = ("target", "expr")
    kind = "middleware"

    def __init__(self, target: str, expr: _CExpr) -> None:
        self.target = target
        self.expr = expr

    def tables_read(self):
        """Names of the temp tables this subtree scans."""
        return self.expr.tables_read()

    def execute(self, env, source, codec, cache, stats, resilience):
        """Run this compiled command, mutating ``env`` and ``stats``."""
        table = self.expr.eval(env, codec)
        if stats is not None:
            stats.rows_out = table.nrows
        env[self.target] = table


# ---------------------------------------------------------------- compiler
def _compile_expr(obj: Mapping) -> _CExpr:
    op = obj.get("op")
    if op == "singleton":
        return _CSingleton()
    if op == "scan":
        return _CScan(obj["table"])
    if op == "literal":
        return _CLiteral(
            tuple(obj["attrs"]),
            tuple(
                tuple(term_from_ir(cell) for cell in row)
                for row in obj["rows"]
            ),
        )
    if op == "project":
        child = _compile_expr(obj["child"])
        attrs = tuple(obj["attrs"])
        # π over ⋈ (optionally through σ) fuses into the join probe.
        if isinstance(child, _CJoin) and child.project_to is None:
            return _CJoin(child.left, child.right, child.conditions, attrs)
        return _CProject(child, attrs)
    if op == "select":
        child = _compile_expr(obj["child"])
        conditions = tuple(condition_from_ir(c) for c in obj["conditions"])
        if isinstance(child, _CJoin) and child.project_to is None:
            return _CJoin(
                child.left, child.right, child.conditions + conditions
            )
        return _CSelect(child, conditions)
    if op == "rename":
        return _CRename(
            _compile_expr(obj["child"]),
            tuple((old, new) for old, new in obj["mapping"]),
        )
    if op == "join":
        return _CJoin(
            _compile_expr(obj["left"]), _compile_expr(obj["right"])
        )
    if op == "union":
        return _CUnion(
            _compile_expr(obj["left"]), _compile_expr(obj["right"])
        )
    if op == "difference":
        return _CDifference(
            _compile_expr(obj["left"]), _compile_expr(obj["right"])
        )
    raise PlanIRError(f"unknown expression op {op!r}")


def _compile_command(obj: Mapping):
    kind = obj.get("cmd")
    if kind == "access":
        return _CAccess(
            target=obj["target"],
            method=obj["method"],
            input_expr=_compile_expr(obj["input"]),
            binding=tuple(
                entry if isinstance(entry, str) else term_from_ir(entry)
                for entry in obj["binding"]
            ),
            output_map=tuple(
                (attr, tuple(positions)) for attr, positions in obj["output"]
            ),
        )
    if kind == "middleware":
        return _CMiddleware(obj["target"], _compile_expr(obj["expr"]))
    raise PlanIRError(f"unknown command kind {kind!r}")


class ColumnarPlan:
    """A plan compiled from its IR into the columnar pipeline."""

    def __init__(self, ir: Mapping) -> None:
        from repro.plans.ir import IR_KIND, IR_VERSION

        if ir.get("ir") != IR_KIND or ir.get("version") != IR_VERSION:
            raise PlanIRError(
                f"not a readable plan IR (ir={ir.get('ir')!r}, "
                f"version={ir.get('version')!r})"
            )
        self.name = ir.get("name", "plan")
        self.output_table = ir["output"]
        self.commands = tuple(_compile_command(c) for c in ir["commands"])
        self._last_readers = self._compute_last_readers()

    @classmethod
    def from_plan(cls, plan) -> "ColumnarPlan":
        """Compile a :class:`~repro.plans.plan.Plan` via its IR."""
        return cls(plan_to_ir(plan))

    def _compute_last_readers(self) -> Dict[str, int]:
        last: Dict[str, int] = {c.target: -1 for c in self.commands}
        for index, command in enumerate(self.commands):
            for table in command.tables_read():
                last[table] = index
        return last

    def execute(
        self,
        source,
        cache=None,
        stats=None,
        free_temps: bool = True,
        resilience=None,
        budget=None,
    ) -> NamedTable:
        """Run the compiled pipeline; same contract as ``Plan.execute``.

        The environment holds dictionary-encoded column tables; the
        output is decoded to a :class:`NamedTable` and passed through
        ``budget.admit_result`` exactly like the interpreter, so the
        deterministic truncation prefix and ``truncated_rows`` match
        across backends.
        """
        codec = _Codec()
        env: Dict[str, _ColTable] = {}
        last_read = self._last_readers if free_temps else {}
        started = perf_counter()
        for index, command in enumerate(self.commands):
            if resilience is not None:
                resilience.check_deadline(f"command #{index}")
            command_stats = None
            if stats is not None:
                command_stats = stats.command(
                    index,
                    command.target,
                    command.kind,
                    method=getattr(command, "method", None),
                )
            command_started = perf_counter()
            command.execute(
                env, source, codec, cache, command_stats, resilience
            )
            if command_stats is not None:
                command_stats.wall_time = perf_counter() - command_started
            if stats is not None or budget is not None:
                resident = sum(table.nrows for table in env.values())
                if stats is not None:
                    stats.note_resident(resident)
                if budget is not None:
                    budget.check_resident(resident)
            if free_temps:
                freed = 0
                for table in [
                    t
                    for t, last in last_read.items()
                    if last <= index and t in env and t != self.output_table
                ]:
                    del env[table]
                    freed += 1
                if command_stats is not None:
                    command_stats.freed_tables = freed
        output = codec.decode_table(env[self.output_table])
        if budget is not None:
            output = budget.admit_result(output)
        if stats is not None:
            stats.wall_time += perf_counter() - started
            stats.runs += 1
            if resilience is not None:
                stats.breaker_trips = resilience.breaker_trips
        return output

    def __repr__(self) -> str:
        return (
            f"ColumnarPlan({self.name}: {len(self.commands)} commands, "
            f"out={self.output_table})"
        )


def compile_columnar(plan) -> ColumnarPlan:
    """Compile a plan for columnar execution (cached on the plan)."""
    try:
        return plan._columnar_compiled  # type: ignore[attr-defined]
    except AttributeError:
        compiled = ColumnarPlan.from_plan(plan)
        object.__setattr__(plan, "_columnar_compiled", compiled)
        return compiled


# ------------------------------------------------------------ differential
def execute_differential(
    plan,
    source,
    cache=None,
    stats=None,
    free_temps: bool = True,
    resilience=None,
    budget=None,
) -> NamedTable:
    """Run columnar AND interpreter, assert identical sorted answers.

    The columnar backend is the measured run (it gets ``stats`` and the
    caller's ``budget``); the interpreter replays as the oracle with a
    fresh copy of the budget and the *same* access cache -- when no
    cache was supplied a private one is created for the pair of runs,
    so the oracle's accesses are answered from memory instead of
    re-invoking (and re-charging) the source.  Answers are compared as
    sorted row lists plus attribute tuples -- byte-identical output --
    and budget truncation must have dropped the same row count.  A
    mismatch raises :class:`DifferentialMismatch`; this mode is for
    verification, not performance.
    """
    from repro.exec.cache import AccessCache

    shared_cache = cache if cache is not None else AccessCache()
    columnar_output = compile_columnar(plan).execute(
        source,
        cache=shared_cache,
        stats=stats,
        free_temps=free_temps,
        resilience=resilience,
        budget=budget,
    )
    oracle_budget = budget.fresh() if budget is not None else None
    oracle_output = plan.execute(
        source,
        cache=shared_cache,
        free_temps=free_temps,
        resilience=resilience,
        budget=oracle_budget,
        executor="interpreter",
    )
    if columnar_output.attributes != oracle_output.attributes:
        raise DifferentialMismatch(
            f"plan {plan.name}: columnar attributes "
            f"{columnar_output.attributes} != interpreter "
            f"{oracle_output.attributes}"
        )
    if sorted(columnar_output.rows) != sorted(oracle_output.rows):
        raise DifferentialMismatch(
            f"plan {plan.name}: columnar answer ({len(columnar_output.rows)} "
            f"rows) differs from the interpreter oracle "
            f"({len(oracle_output.rows)} rows)"
        )
    if budget is not None and budget.truncated_rows != oracle_budget.truncated_rows:
        raise DifferentialMismatch(
            f"plan {plan.name}: columnar truncated "
            f"{budget.truncated_rows} rows, interpreter "
            f"{oracle_budget.truncated_rows}"
        )
    return columnar_output
