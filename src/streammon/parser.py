"""Recursive-descent parser for the monitoring specification language.

The surface syntax is line-comment (`#`) based and otherwise newline
insensitive; declarations start with `input`, `output`, or `trigger`, so
expressions simply end where the next declaration or clause keyword begins.

One compiled pattern (`_TOKEN`) lexes the source, token by token:
- blanks are space, tab, carriage return and newline, and a comment runs
  from `#` to the end of its line; any other character no token starts
  with, NBSP and NUL among them, is an "unexpected character";
- a name starts with a character that is `isalpha()` or `_` and goes on
  with characters that are `isalnum()` or `_`; keywords are names;
- a number is ASCII digits with an optional fraction (`1.5`, `.5`; `5.` is
  the number 5 and a stray `.`) and an optional exponent, which counts only
  where digits follow it: `1e3` is a float, and `2sec` is 2 with the unit
  `sec`. A name right after a number is its unit, so `1e3s` is 1000 s.
  An integer or a number with a unit is exact, and one whose value takes
  more than MAX_DIGITS digits to write out without an exponent (`1e4300s`
  takes 4301) is a diagnostic: Python refuses to convert a longer integer
  string, and `Fraction` would build the value however large its exponent;
- a string runs from `"` to the next unescaped `"`, and an unescaped
  newline or the end of the source leaves it unterminated. A backslash
  takes the next character, a newline too: `\n` and `\t` are newline and
  tab, and any other character stands for itself;
- the operators are `:= <= >= != ==` (`==` is `=`) and `()[]<>,?:=!&|+-*/%`.
Lines and columns count from 1, in characters, so a tab is one column.

Binary operators are parsed by one loop over `ast.PRECEDENCE`, the table
the printer, the type checker and the compiler read too: a run of one
level's operators becomes a left-deep chain (`ast.chain`) without a
recursion per operand, and a second comparison after a first is an error,
since comparisons do not chain. Nesting is what recurses, in every later
stage too, so the parser limits it to `MAX_DEPTH` levels, and deeper is a
ParseError at line and column. It counts the levels twice: in the source,
where parentheses, unary operators, `?` fallbacks, `if` branches and call
and window arguments each open one, which bounds its own recursion; and in
the tree, where every operand, argument, branch and fallback sits one level
below its expression and a chain is one expression, which bounds every
later stage's. The compiler writes at most two parentheses per level of the
tree, so the limit keeps its source within CPython's 200.

All window spellings are normalized while parsing: a window carries a
duration and an aggregation, and an inline default value in any position
becomes an explicit `?default` wrapper. Durations are kept as exact rational
seconds.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ast import (
    AGG_BY_NAME,
    BUILTIN_FNS,
    COMPARISONS,
    PRECEDENCE,
    Binary,
    Const,
    Default,
    DiscreteOffset,
    Expr,
    FnCall,
    IfThenElse,
    InputDecl,
    Param,
    ParamRef,
    RealTimeOffset,
    Specification,
    StreamAccess,
    StreamTemplate,
    TriggerDecl,
    TriggerKind,
    TupleExpr,
    Unary,
    ValueType,
    WindowAccess,
    chain,
    children,
    operands,
)
from .diagnostics import Diagnostic, ParseError, SourceSpan, format_diagnostics

__all__ = ["parse", "format_spec", "format_diagnostics", "parse_frequency"]

DECL_KEYWORDS = frozenset(["input", "output", "trigger", "time"])
CLAUSE_KEYWORDS = frozenset(["invoke", "extend", "terminate"])

TIME_UNITS = {
    "ms": Fraction(1, 1000),
    "s": Fraction(1),
    "sec": Fraction(1),
    "min": Fraction(60),
    "h": Fraction(3600),
}

TYPE_NAMES = {"bool": ValueType.BOOL, "int": ValueType.INT, "double": ValueType.DOUBLE}

KEYWORDS = DECL_KEYWORDS | CLAUSE_KEYWORDS | TYPE_NAMES.keys() | frozenset(
    ["if", "then", "else", "true", "false", "any", "count"]
)

#: the most digits an exact number literal may take written out: Python's
#: limit on the digits of an integer string
MAX_DIGITS = sys.int_info.default_max_str_digits

#: how deep expressions may nest, in the source and in the tree
MAX_DEPTH = 64
_TOO_DEEP = f"expression nested more than {MAX_DEPTH} levels deep"

#: what may stand at a position of the source (see the module docstring);
#: `\w` is `isalnum()` or `_`, which takes `²` too, so `_is_name` checks
#: the first character of a name or unit
_TOKEN = re.compile(
    r"""(?P<SKIP>[ \t\r\n]+|\#[^\n]*)
      | (?P<NUM>(?P<digits>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
                (?P<unit>\w*))
      | (?P<WORD>\w+)
      | (?P<STRING>"(?P<body>(?:[^"\\\n]|\\[\s\S]?)*)(?P<close>")?)
      | (?P<OP>[:<>!=]=|[()\[\]<>,?:=!&|+\-*/%])""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}


def _is_name(word: str) -> bool:
    return word[:1].isalpha() or word[:1] == "_"


def _spelled(digits: str) -> int:
    """How many digits a number literal's value takes at most written out
    without an exponent, as the printer writes it: `12` 2, `1e3` 4 (1000)
    and `.5e-3` 5 (0.0005). It reads ten digits of the exponent at most,
    which already pass MAX_DIGITS."""
    mantissa, _, exponent = digits.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    return max(len(whole), 1) + len(fraction) + int(exponent.lstrip("+-0")[:10] or 0)


@dataclass
class Token:
    kind: str  # IDENT KEYWORD INT FLOAT NUMUNIT STRING OP EOF
    value: object
    line: int
    col: int
    length: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, self.length)


class _Unexpected(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.diagnostics: list[Diagnostic] = []
        self.tokens = self._lex(text)
        self.i = 0
        self.depth = 0  # the nesting levels around the expression being parsed

    def _lex(self, text: str) -> list[Token]:
        """The tokens of text, ending in EOF. A character no token starts
        with is one diagnostic, and so is an exact number too long to write
        out (see the module docstring), which stays a token of its kind with
        the value 1, so that the parser reports nothing further about it;
        lexing goes on after either."""
        tokens: list[Token] = []
        pos, line, bol = 0, 1, 0  # bol: where the line begins
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            kind, end, at = m and m.lastgroup, m and m.end(), (line, pos - bol + 1)
            if kind == "SKIP" or kind == "STRING":  # the tokens that span lines
                newlines = text.count("\n", pos, end)
                if newlines:
                    line, bol = line + newlines, text.rindex("\n", pos, end) + 1
            if kind == "SKIP":
                pass
            elif kind == "WORD" and _is_name(m[0]):
                word = m[0]
                kind = "KEYWORD" if word in KEYWORDS else "IDENT"
                tokens.append(Token(kind, word, *at, len(word)))
            elif kind == "OP":
                op = m[0]
                tokens.append(Token("OP", "=" if op == "==" else op, *at, len(op)))
            elif kind == "NUM":
                digits, unit = m["digits"], m["unit"]
                exact = _is_name(unit) or digits.isdigit()  # a float is neither
                if exact and _spelled(digits) > MAX_DIGITS:
                    message = f"number literal takes more than {MAX_DIGITS} digits written out"
                    self.diagnostics.append(self.diagnostic(message, SourceSpan(*at)))
                    digits = "1"  # a placeholder token of its kind, so parsing goes on
                if _is_name(unit):
                    tokens.append(Token("NUMUNIT", (Fraction(digits), unit), *at, end - pos))
                else:
                    end = m.end("digits")
                    kind = "INT" if digits.isdigit() else "FLOAT"
                    value = int(digits) if kind == "INT" else float(digits)
                    tokens.append(Token(kind, value, *at, end - pos))
            elif kind == "STRING" and m["close"]:
                value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), m["body"])
                # a string that spans lines is as long as its last line
                tokens.append(Token("STRING", value, *at, end - bol + 1 - at[1]))
            elif kind == "STRING":
                message = "unterminated string literal"
                self.diagnostics.append(self.diagnostic(message, SourceSpan(*at)))
            else:
                end, message = pos + 1, f"unexpected character {text[pos]!r}"
                self.diagnostics.append(self.diagnostic(message, SourceSpan(*at)))
            pos = end
        tokens.append(Token("EOF", None, line, pos - bol + 1, 1))
        return tokens

    # -- token helpers ----------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def at(self, kind: str, value: object = None) -> bool:
        t = self.tok
        return t.kind == kind and (value is None or t.value == value)

    def at_op(self, *ops: str) -> bool:
        t = self.tok
        return t.kind == "OP" and t.value in ops

    def advance(self) -> Token:
        t = self.tok
        if t.kind != "EOF":
            self.i += 1
        return t

    def _describe(self, t: Token) -> str:
        if t.kind == "EOF":
            return "end of input"
        if t.kind == "NUMUNIT":
            num, unit = t.value
            return f"'{_frac_str(num)}{unit}'"
        return f"'{t.value}'"

    def diagnostic(self, message: str, span: SourceSpan) -> Diagnostic:
        line = self.lines[span.line - 1] if 1 <= span.line <= len(self.lines) else None
        return Diagnostic(message, span, line)

    def error(self, message: str, tok: Optional[Token] = None) -> _Unexpected:
        return _Unexpected(self.diagnostic(message, (tok or self.tok).span))

    def fail(self, expected: str, tok: Optional[Token] = None) -> _Unexpected:
        t = tok or self.tok
        return self.error(f"expected {expected}, found {self._describe(t)}", t)

    def expect_op(self, op: str) -> Token:
        if not self.at_op(op):
            raise self.fail(f"'{op}'")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.at("KEYWORD", word):
            raise self.fail(f"'{word}'")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if not self.at("IDENT"):
            raise self.fail(what)
        return self.advance()

    # -- declarations ------------------------------------------------------

    def parse_spec(self) -> Specification:
        spec = Specification()
        while not self.at("EOF"):
            try:
                self.parse_decl(spec)
            except _Unexpected as exc:
                self.diagnostics.append(exc.diagnostic)
                self.depth = 0
                self._sync()
        self._check_names(spec)
        return spec

    def _sync(self) -> None:
        while not self.at("EOF"):
            if self.tok.kind == "KEYWORD" and self.tok.value in DECL_KEYWORDS:
                return
            self.advance()

    def parse_decl(self, spec: Specification) -> None:
        if self.at("KEYWORD", "time"):
            self.advance()
            if not self.at("KEYWORD", "input"):
                raise self.fail("'input' after 'time'")
            self._parse_input(spec, is_time=True)
        elif self.at("KEYWORD", "input"):
            self._parse_input(spec, is_time=False)
        elif self.at("KEYWORD", "output"):
            self._parse_output(spec)
        elif self.at("KEYWORD", "trigger"):
            self._parse_trigger(spec)
        else:
            raise self.fail("'input', 'output', or 'trigger'")

    def _parse_type(self) -> ValueType:
        if self.tok.kind == "KEYWORD" and self.tok.value in TYPE_NAMES:
            return TYPE_NAMES[self.advance().value]
        raise self.fail("type ('bool', 'int', or 'double')")

    def _parse_input(self, spec: Specification, is_time: bool) -> None:
        kw = self.advance()  # 'input'
        ty = self._parse_type()
        name = self.expect_ident("input stream name")
        spec.inputs.append(InputDecl(name.value, ty, is_time, span=kw.span))

    def _parse_output(self, spec: Specification) -> None:
        kw = self.advance()  # 'output'
        ty = self._parse_type()
        name = self.expect_ident("output stream name")
        params: list[Param] = []
        if self.at_op("<"):
            self.advance()
            while True:
                pty = self._parse_type()
                params.append(Param(self.expect_ident("parameter name").value, pty))
                if not self.at_op(","):
                    break
                self.advance()
            self.expect_op(">")
        clock: Optional[Fraction] = None
        if self.at_op(":"):
            self.advance()
            clock = self._parse_frequency()
        clauses: dict[str, Expr] = {}
        while self.tok.kind == "KEYWORD" and self.tok.value in CLAUSE_KEYWORDS:
            clause = self.advance()
            self.expect_op(":")
            expr = self._parse_clause_expr(clause.value)
            if clause.value in clauses:
                raise self.fail(f"only one '{clause.value}' clause", clause)
            clauses[clause.value] = expr
        if self.at_op(":="):
            self.advance()
        elif self.at_op("=") and not clauses:
            # bare `=` is accepted as the definition separator in the
            # clause-free form only; after clauses it would be ambiguous
            # with an equality comparison inside the clause expression
            self.advance()
        else:
            raise self.fail("':='")
        expr = self.parse_expr()
        tpl = StreamTemplate(name.value, ty, params, clock, expr=expr, **clauses)
        tpl.span = kw.span
        spec.outputs.append(tpl)

    def _parse_frequency(self) -> Fraction:
        if not self.at("NUMUNIT"):
            raise self.fail("frequency such as '1Hz'")
        tok = self.advance()
        value, unit = tok.value
        if unit not in ("Hz", "hz"):
            raise self.fail("frequency unit 'Hz'", tok)
        if value <= 0:
            raise self.fail("positive frequency", tok)
        return value

    def _parse_clause_expr(self, clause: str) -> Expr:
        if clause == "invoke" and self.at_op("("):
            # a parenthesized, comma-separated invoke expression is a tuple;
            # one parenthesized item is read again as the start of an
            # expression, which may go on after its ')'
            start, open_tok = self.i, self.tok
            items = self._parse_list()
            if len(items) != 1:
                return TupleExpr(items, span=open_tok.span)
            self.i = start
        return self.parse_expr()

    def _parse_trigger(self, spec: Specification) -> None:
        kw = self.advance()
        if self.at("KEYWORD", "any"):
            self.advance()
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            decl = TriggerDecl(TriggerKind.ANY, condition=cond, span=kw.span)
        elif self.at("KEYWORD", "count"):
            self.advance()
            self.expect_op("(")
            stream = self.expect_ident("stream name")
            self.expect_op(")")
            if not self.at_op(*COMPARISONS):
                raise self.fail("comparison operator")
            cmp_tok = self.advance()
            neg = False
            if self.at_op("-"):
                self.advance()
                neg = True
            if not self.at("INT"):
                raise self.fail("integer constant")
            value = self.advance().value
            decl = TriggerDecl(
                TriggerKind.COUNT,
                count_stream=stream.value,
                count_cmp=cmp_tok.value,
                count_value=-value if neg else value,
                span=kw.span,
            )
        else:
            cond = self.parse_expr()
            decl = TriggerDecl(TriggerKind.PLAIN, condition=cond, span=kw.span)
        if self.at("STRING"):
            decl.message = self.advance().value
        spec.triggers.append(decl)

    def _check_names(self, spec: Specification) -> None:
        seen: dict[str, SourceSpan] = {}
        for decl in [*spec.inputs, *spec.outputs]:
            name = decl.name
            if name in AGG_BY_NAME or name in BUILTIN_FNS:
                text = f"'{name}' is a reserved function name"
            elif name in seen:
                first = seen[name]
                text = f"duplicate declaration of '{name}' (first declared at {first})"
            else:
                seen[name] = decl.span
                continue
            self.diagnostics.append(self.diagnostic(text, decl.span))

    def _check_depth(self, expr: Expr) -> None:
        """The expression's tree nests at most MAX_DEPTH levels deep too: an
        operand, argument, branch or fallback sits one level below its
        expression, and a chain (`ast.chain`) is one expression. Precedence
        nests operators without parentheses, which `_parse_unary` does not
        count."""
        stack = [(expr, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > MAX_DEPTH:
                raise _Unexpected(self.diagnostic(_TOO_DEEP, node.span))
            if isinstance(node, Binary):
                stack += [(e, depth + 1) for e in operands(chain(node))]
            else:
                stack += [(e, depth + 1) for e in children(node)]

    # -- expressions -------------------------------------------------------

    def parse_expr(self, level: int = 1) -> Expr:
        """An expression whose binary operators bind at `level` or tighter
        (PRECEDENCE). A run of one level's operators is built left-deep in
        one loop, so only a tighter operand recurses."""
        start, left = self.i, self._parse_unary()
        while self.at("OP") and PRECEDENCE.get(self.tok.value, 0) >= level:
            op = self.advance()
            right = self.parse_expr(PRECEDENCE[op.value] + 1)
            left = Binary(op.value, left, right, span=op.span)
            if op.value in COMPARISONS and self.at_op(*COMPARISONS):
                raise self.error("comparisons do not chain; join them with '&'")
        # a tree n levels deep has n + 1 tokens at least
        if level == 1 and self.depth == 0 and self.i - start > MAX_DEPTH + 1:
            self._check_depth(left)
        return left

    def _parse_unary(self) -> Expr:
        """A unary operation or a postfix form. Each nesting form parses its
        nested expressions through here, one level deeper, so this is where
        the depth is counted and limited."""
        if self.depth > MAX_DEPTH:
            raise self.error(_TOO_DEEP)
        self.depth += 1
        if self.at_op("-", "!"):
            op = self.advance()
            expr = self._parse_unary()
            number = isinstance(expr, Const) and not isinstance(expr.value, bool)
            if op.value == "-" and number:  # a negative constant
                expr = Const(-expr.value, span=self._span_from(op))
            else:
                expr = Unary(op.value, expr, span=op.span)
        else:
            expr = self._parse_postfix()
        self.depth -= 1
        return expr

    def _span_from(self, first: Token) -> SourceSpan:
        """The span from token `first` to the end of the last token consumed,
        or `first`'s own span when they lie on different lines."""
        last = self.tokens[self.i - 1]
        if last.line != first.line:
            return first.span
        return SourceSpan(first.line, first.col, last.col + last.length - first.col)

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            if self.at_op("["):
                if not isinstance(expr, StreamAccess) or not isinstance(
                    expr.offset, DiscreteOffset
                ) or expr.offset.steps != 0:
                    raise self.fail("no second window or offset on this access")
                expr = self._parse_bracket(expr)
            elif self.at_op("?"):
                q = self.advance()
                fallback = self._parse_unary()
                expr = Default(expr, fallback, span=q.span)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        t = self.tok
        if t.kind == "INT" or t.kind == "FLOAT":
            self.advance()
            return Const(t.value, span=t.span)
        if t.kind == "KEYWORD" and t.value in ("true", "false"):
            self.advance()
            return Const(t.value == "true", span=t.span)
        if t.kind == "KEYWORD" and t.value == "if":
            self.advance()
            cond = self.parse_expr()
            self.expect_keyword("then")
            then_branch = self.parse_expr()
            self.expect_keyword("else")
            return IfThenElse(cond, then_branch, self.parse_expr(), span=t.span)
        if t.kind == "IDENT":
            self.advance()
            if not self.at_op("("):
                return StreamAccess(t.value, [], DiscreteOffset(0), span=t.span)
            args = self._parse_list()
            if t.value in BUILTIN_FNS:
                return FnCall(t.value, args, span=t.span)
            return StreamAccess(t.value, args, DiscreteOffset(0), span=t.span)
        if self.at_op("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise self.fail("an expression")

    def _parse_list(self) -> list[Expr]:
        """A parenthesized, comma-separated, possibly empty expression list."""
        self.expect_op("(")
        items = [] if self.at_op(")") else [self.parse_expr()]
        while items and self.at_op(","):
            self.advance()
            items.append(self.parse_expr())
        self.expect_op(")")
        return items

    def _parse_bracket(self, access: StreamAccess) -> Expr:
        """`s[...]` suffix: a past offset or a sliding window, with all
        accepted orderings of duration / aggregation / inline default."""
        open_tok = self.advance()  # '['
        # first item decides between offset and window
        if self.at_op("-") or (self.at("INT") and self.tok.value == 0):
            if self.advance().kind == "INT":  # `[0`
                access.offset = DiscreteOffset(0)
            elif self.at("INT"):
                access.offset = DiscreteOffset(-self.advance().value)
            elif self.at("NUMUNIT"):
                access.offset = RealTimeOffset(-self._to_seconds(self.advance()))
            else:
                raise self.fail("offset count or duration after '-'")
            expr: Expr = access
            if self.at_op(","):
                self.advance()
                expr = Default(access, self.parse_expr(), span=open_tok.span)
            self.expect_op("]")
            return expr
        if not self.at("NUMUNIT"):
            raise self.fail("window duration (like '10sec') or negative offset")
        dur_tok = self.advance()
        duration = self._to_seconds(dur_tok)
        if duration <= 0:
            raise self.fail("positive window duration", dur_tok)
        agg = None
        fallback = None
        while self.at_op(","):
            self.advance()
            item_tok = self.tok
            if agg is None and self._at_agg_name():
                agg = AGG_BY_NAME[self.advance().value]
                if self.at_op("("):
                    # `count(cid)` style: the argument list belongs to the
                    # target stream, not to the aggregation
                    inner_args = self._parse_list()
                    if access.args:
                        raise self.fail(
                            "instance arguments given twice", item_tok
                        )
                    access.args = inner_args
            elif fallback is None:
                fallback = self.parse_expr()
            else:
                raise self.fail("']'", item_tok)
        self.expect_op("]")
        if agg is None:
            raise self.fail("an aggregation function in the window", dur_tok)
        window = WindowAccess(
            access.stream, access.args, duration, agg, span=access.span
        )
        if fallback is not None:
            return Default(window, fallback, span=open_tok.span)
        return window

    def _at_agg_name(self) -> bool:
        t = self.tok
        if t.kind == "IDENT" and t.value in AGG_BY_NAME:
            return True
        return t.kind == "KEYWORD" and t.value == "count"

    def _to_seconds(self, tok: Token) -> Fraction:
        value, unit = tok.value
        if unit not in TIME_UNITS:
            raise self.fail(
                f"a known duration unit (ms, s, sec, min, h), found unknown "
                f"duration unit '{unit}'",
                tok,
            )
        return value * TIME_UNITS[unit]


def parse(text: str) -> Specification:
    """Parse specification source text.

    Raises ParseError carrying every collected diagnostic; parsing recovers at
    declaration boundaries so several errors can be reported at once.
    """
    parser = _Parser(text)
    spec = parser.parse_spec()
    if parser.diagnostics:
        raise ParseError(parser.diagnostics)
    return spec


def parse_frequency(text: str) -> Fraction:
    """Parse a standalone frequency literal such as '1Hz' or '0.1Hz'."""
    parser = _Parser(text)
    if parser.diagnostics:  # of the lexer
        raise ParseError(parser.diagnostics)
    try:
        freq = parser._parse_frequency()
    except _Unexpected as exc:
        raise ParseError([exc.diagnostic]) from None
    if not parser.at("EOF"):
        raise ParseError([Diagnostic(f"trailing input after frequency: {text!r}")])
    return freq


# -- pretty printer ---------------------------------------------------------

#: the levels above PRECEDENCE's
_UNARY_PREC = 6
_POSTFIX_PREC = 7
#: how a trigger message is written back, as `_lex` reads it
_ESCAPED = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def _frac_str(value: Fraction) -> str:
    """Exact decimal rendering; only terminating fractions are printable."""
    num, den = value.numerator, value.denominator
    scale = 0
    while den % 2 == 0:
        den //= 2
        num *= 5
        scale += 1
    while den % 5 == 0:
        den //= 5
        num *= 2
        scale += 1
    if den != 1:
        raise ValueError(f"{value} has no exact decimal form")
    if scale == 0:
        return str(num)
    text = str(abs(num)).rjust(scale + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{text[:-scale]}.{text[-scale:]}".rstrip("0").rstrip(".") or "0"


def _duration_str(seconds: Fraction) -> str:
    try:
        return _frac_str(seconds) + "s"
    except ValueError:
        return _frac_str(seconds * 1000) + "ms"


def _const_str(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and math.isinf(value):  # `inf` reads as a name
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


def _expr_str(expr: Expr, parent_prec: int = 0) -> str:
    match expr:
        case Const(value=v):
            text = _const_str(v)  # `-0.0` reads back as a unary minus too
            prec = _UNARY_PREC if text[0] == "-" else _POSTFIX_PREC
        case ParamRef(name=name):
            text, prec = name, _POSTFIX_PREC
        case StreamAccess(stream=s, args=args, offset=off):
            text = s
            if args:
                text += "(" + ", ".join(_expr_str(a) for a in args) + ")"
            match off:
                case DiscreteOffset(steps=0):
                    pass
                case DiscreteOffset(steps=n):
                    text += f"[{n}]"
                case RealTimeOffset(seconds=d):
                    text += f"[-{_duration_str(-d)}]"
            prec = _POSTFIX_PREC
        case WindowAccess(stream=s, args=args, duration=r, agg=agg):
            text = s
            if args:
                text += "(" + ", ".join(_expr_str(a) for a in args) + ")"
            text += f"[{_duration_str(r)}, {agg}]"
            prec = _POSTFIX_PREC
        case Default(inner=inner, fallback=fb):
            inner_text = _expr_str(inner, _POSTFIX_PREC)
            if isinstance(inner, Default):
                inner_text = f"({inner_text})"  # `a?b?c` reparses as `a?(b?c)`
            text = inner_text + "?" + _expr_str(fb, _UNARY_PREC)
            prec = _POSTFIX_PREC
        case Unary(op=op, operand=operand):
            text = op + _expr_str(operand, _UNARY_PREC)
            prec = _UNARY_PREC
        case Binary(op=op):
            run, prec = chain(expr), PRECEDENCE[op]
            text = _expr_str(run[0].left, prec + (op in COMPARISONS))  # non-assoc
            text += "".join(f" {n.op} {_expr_str(n.right, prec + 1)}" for n in run)
        case IfThenElse(cond=c, then_branch=t, else_branch=e):
            text = f"if {_expr_str(c)} then {_expr_str(t)} else {_expr_str(e)}"
            prec = 0
        case FnCall(fn=fn, args=args):
            text = fn + "(" + ", ".join(_expr_str(a) for a in args) + ")"
            prec = _POSTFIX_PREC
        case TupleExpr(items=items):
            return "(" + ", ".join(_expr_str(i) for i in items) + ")"
        case _:
            raise TypeError(f"cannot print {expr!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def format_spec(spec: Specification) -> str:
    """Canonical textual form; parsing it back yields a structurally
    identical specification. An infinite constant is written `1e999` or
    `-1e999`, and a constant with a minus sign, `-0.0` included, is
    parenthesized where a unary minus would be. A trigger message escapes
    backslashes, quotes and newlines with a backslash."""
    out: list[str] = []
    for decl in spec.inputs:
        prefix = "time input" if decl.is_time else "input"
        out.append(f"{prefix} {decl.ty} {decl.name}")
    for tpl in spec.outputs:
        head = f"output {tpl.ty} {tpl.name}"
        if tpl.params:
            head += "<" + ", ".join(f"{p.ty} {p.name}" for p in tpl.params) + ">"
        if tpl.clock is not None:
            head += f": {_frac_str(tpl.clock)}Hz"
        clauses = []
        for label, e in (
            ("invoke", tpl.invoke),
            ("extend", tpl.extend),
            ("terminate", tpl.terminate),
        ):
            if e is not None:
                clauses.append(f"  {label}: {_expr_str(e)}")
        body = f":= {_expr_str(tpl.expr)}"
        if clauses:
            out.append(head)
            out.extend(clauses)
            out.append(f"  {body}")
        else:
            out.append(f"{head} {body}")
    for trig in spec.triggers:
        if trig.kind is TriggerKind.ANY:
            line = f"trigger any({_expr_str(trig.condition)})"
        elif trig.kind is TriggerKind.COUNT:
            line = (
                f"trigger count({trig.count_stream}) "
                f"{trig.count_cmp} {trig.count_value}"
            )
        else:
            line = f"trigger {_expr_str(trig.condition)}"
        if trig.message is not None:
            line += f' "{trig.message.translate(_ESCAPED)}"'
        out.append(line)
    return "\n".join(out) + ("\n" if out else "")
