"""Parser for the query language.

§6 motivates queries twice: top-down component selection ("a component is
selected by queries associated with the composite object giving the
required properties of the component") and version classification.  The
query language is a small select over classes/types, reusing the
constraint-expression language for every value position::

    select * from Interfaces where Length > 10
    select Length, Width from GateInterface where count(Pins) = 3
    select Length * Width from Interfaces order by Length desc limit 5
    select distinct Function from Implementations

Grammar::

    query      := 'select' ['distinct'] projection 'from' IDENT
                  ['where' expr] ['order' 'by' expr ['asc'|'desc']]
                  ['limit' NUMBER]
    projection := '*' | expr (',' expr)*

``from`` names a class (extent) first, falling back to a type name (all
live objects of the type, subtypes included).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, List, Optional, Tuple

from ..core import resolution as _resolution
from ..errors import QueryError
from ..expr.ast import Node
from ..expr.lexer import Token, tokenize
from ..expr.parser import parse_expression

__all__ = ["QuerySpec", "parse_query", "parse_where"]


@dataclass
class QuerySpec:
    """A parsed query, ready for execution."""

    source_name: str
    projection: Optional[List[Tuple[str, Node]]]  # None == '*'
    distinct: bool = False
    where: Optional[Node] = None
    where_source: str = ""
    order_by: Optional[Node] = None
    order_source: str = ""
    descending: bool = False
    limit: Optional[int] = None
    text: str = ""

    @property
    def column_names(self) -> List[str]:
        if self.projection is None:
            return ["*"]
        return [source for source, _ in self.projection]


def _is_word(token: Token, word: str) -> bool:
    if token.kind == "IDENT":
        return token.text.lower() == word
    if token.kind == "KEYWORD":
        return token.text == word
    return False


class _QueryParser:
    """Splits the token stream into clauses, delegating expressions to
    :mod:`repro.expr.parser` over source slices."""

    CLAUSE_WORDS = ("from", "where", "order", "limit")

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)

    def parse(self) -> QuerySpec:
        tokens = self.tokens
        if not tokens or not _is_word(tokens[0], "select"):
            raise QueryError(f"queries start with 'select': {self.source!r}")
        index = 1
        distinct = False
        if index < len(tokens) and _is_word(tokens[index], "distinct"):
            distinct = True
            index += 1

        clause_starts = self._clause_positions(index)
        if "from" not in clause_starts:
            raise QueryError(f"missing 'from' clause in {self.source!r}")

        projection = self._parse_projection(index, clause_starts["from"])
        source_name = self._parse_source(clause_starts["from"])
        where, where_source = self._parse_where(clause_starts)
        order_by, order_source, descending = self._parse_order(clause_starts)
        limit = self._parse_limit(clause_starts)

        return QuerySpec(
            source_name=source_name,
            projection=projection,
            distinct=distinct,
            where=where,
            where_source=where_source,
            order_by=order_by,
            order_source=order_source,
            descending=descending,
            limit=limit,
            text=self.source,
        )

    # -- clause plumbing -----------------------------------------------------------

    def _clause_positions(self, start: int) -> dict:
        positions = {}
        depth = 0
        for i in range(start, len(self.tokens)):
            token = self.tokens[i]
            if token.is_op("("):
                depth += 1
            elif token.is_op(")"):
                depth -= 1
            elif depth == 0:
                for word in self.CLAUSE_WORDS:
                    if word not in positions and _is_word(token, word):
                        positions[word] = i
        return positions

    def _slice(self, first_token: int, end_token: int) -> str:
        if first_token >= len(self.tokens) or self.tokens[first_token].kind == "EOF":
            return ""
        start_pos = self.tokens[first_token].position
        if end_token >= len(self.tokens) or self.tokens[end_token].kind == "EOF":
            return self.source[start_pos:].strip()
        return self.source[start_pos : self.tokens[end_token].position].strip()

    def _next_clause_index(self, after_word: str, clause_starts: dict) -> int:
        order = ["from", "where", "order", "limit"]
        current = order.index(after_word)
        candidates = [
            clause_starts[word]
            for word in order[current + 1:]
            if word in clause_starts
        ]
        return min(candidates) if candidates else len(self.tokens) - 1

    # -- clause parsing ---------------------------------------------------------------

    def _parse_projection(self, start: int, from_index: int):
        text = self._slice(start, from_index)
        if not text:
            raise QueryError(f"empty projection in {self.source!r}")
        if text == "*":
            return None
        items: List[Tuple[str, Node]] = []
        for chunk in self._split_top_level_commas(text):
            chunk = chunk.strip()
            if not chunk:
                raise QueryError(f"empty projection item in {self.source!r}")
            items.append((chunk, parse_expression(chunk)))
        return items

    @staticmethod
    def _split_top_level_commas(text: str) -> List[str]:
        parts: List[str] = []
        depth = 0
        current: List[str] = []
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(current))
                current = []
            else:
                current.append(ch)
        parts.append("".join(current))
        return parts

    def _parse_source(self, from_index: int) -> str:
        token = self.tokens[from_index + 1]
        if token.kind != "IDENT":
            raise QueryError(f"expected a class or type name after 'from'")
        return token.text

    def _parse_where(self, clause_starts: dict):
        if "where" not in clause_starts:
            return None, ""
        end = self._next_clause_index("where", clause_starts)
        text = self._slice(clause_starts["where"] + 1, end)
        if not text:
            raise QueryError(f"empty where clause in {self.source!r}")
        return parse_expression(text), text

    def _parse_order(self, clause_starts: dict):
        if "order" not in clause_starts:
            return None, "", False
        by_index = clause_starts["order"] + 1
        if not _is_word(self.tokens[by_index], "by"):
            raise QueryError("expected 'by' after 'order'")
        end = self._next_clause_index("order", clause_starts)
        text = self._slice(by_index + 1, end)
        descending = False
        lowered = text.lower()
        for suffix, desc in (("desc", True), ("asc", False)):
            if lowered.endswith(suffix):
                stripped = text[: -len(suffix)].rstrip()
                if stripped:
                    text = stripped
                    descending = desc
                break
        if not text:
            raise QueryError(f"empty order-by clause in {self.source!r}")
        return parse_expression(text), text, descending

    def _parse_limit(self, clause_starts: dict) -> Optional[int]:
        if "limit" not in clause_starts:
            return None
        token = self.tokens[clause_starts["limit"] + 1]
        if token.kind != "NUMBER" or "." in token.text:
            raise QueryError("limit expects an integer")
        value = int(token.text)
        if value < 0:
            raise QueryError("limit must be non-negative")
        return value


@lru_cache(maxsize=256)
def _parse_cached(grammar: str, source: str, schema_epoch: int) -> Any:
    # schema_epoch is not read — it is part of the cache key, so a DDL
    # change yields fresh AST nodes for the same text (see parse_query).
    if grammar == "where":
        return parse_expression(source)
    return _QueryParser(source).parse()


def parse_query(source: str) -> QuerySpec:
    """Parse query text into a :class:`QuerySpec`.

    Parses are memoised by ``(text, schema epoch)`` in the one 256-entry
    parse LRU, shared with :func:`parse_where`.  Compiled programs live
    exactly as long as the AST they were compiled from, so a repeat
    execution hits its programs, an evicted text takes them with it, and
    this LRU is the only bound on how many are kept.  A DDL change keys
    a fresh parse, so no program compiled against the old schema serves
    the same text.  Each call returns a fresh (shallow) spec copy; the
    shared pieces are the immutable clause ASTs.
    """
    return replace(
        _parse_cached("query", source.strip(), _resolution.schema_epoch())
    )


def parse_where(source: str) -> Node:
    """Parse a bare where condition (the constraint-expression grammar),
    memoised in the :func:`parse_query` LRU under its own grammar key."""
    return _parse_cached("where", source.strip(), _resolution.schema_epoch())
