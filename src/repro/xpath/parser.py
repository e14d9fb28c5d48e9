"""Parser for the ASCII expression syntax produced by
:func:`repro.xpath.printer.to_source`.

Grammar (path expressions, loosest-binding first)::

    path      := 'for' '$'IDENT 'in' union 'return' union | union
    union     := except ('union' except)*
    except    := intersect ('except' intersect)*
    intersect := seq ('intersect' seq)*
    seq       := postfix ('/' postfix)*
    postfix   := primary ('[' node ']' | '*' | '+')*
    primary   := 'down' | 'up' | 'left' | 'right' | '.' | '(' path ')'
               | OFFICIAL_AXIS '::' (LABEL | '*')

``OFFICIAL_AXIS`` accepts the official XPath 2.0 step syntax as sugar
(``child``, ``parent``, ``self``, ``descendant``, ``ancestor``,
``descendant-or-self``, ``ancestor-or-self``, ``following-sibling``,
``preceding-sibling``); ``axis::a`` desugars to the CoreXPath encoding
(e.g. ``descendant::a`` to ``down/down*[a]``), the inverse direction of
:func:`repro.xpath.official.to_official`.

and node expressions::

    node  := conj ('or' conj)*          -- 'or' expands to ¬(¬φ ∧ ¬ψ)
    conj  := unary ('and' unary)*
    unary := 'not' unary | atom
    atom  := 'true' | 'false' | '<' path '>' | 'eq' '(' path ',' path ')'
           | '.' 'is' '$'IDENT | LABEL | '(' node ')'

``τ*`` parses to :class:`~repro.xpath.ast.AxisClosure` (plain CoreXPath),
while ``(α)*`` parses to the :class:`~repro.xpath.ast.Star` extension;
``τ+``/``(α)+`` are sugar for ``τ/τ*``.  Labels are bare identifiers or
single-quoted strings.
"""

from __future__ import annotations

import re

from .ast import (
    And,
    Axis,
    AxisClosure,
    AxisStep,
    Complement,
    Filter,
    ForLoop,
    Intersect,
    Label,
    NodeExpr,
    Not,
    PathEquality,
    PathExpr,
    Self,
    Seq,
    SomePath,
    Star,
    Top,
    Union,
    VarIs,
)
from .builders import or_

__all__ = ["parse_path", "parse_node", "XPathSyntaxError"]


class XPathSyntaxError(ValueError):
    """Raised when the input is not a well-formed expression."""


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<quoted>'(?:[^'\\]|\\.)*')"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_@#-]*)"
    r"|(?P<dcolon>::)"
    r"|(?P<punct>[/\[\]()<>,*+$.])"
    r")"
)

_AXES = {"down": Axis.DOWN, "up": Axis.UP, "left": Axis.LEFT, "right": Axis.RIGHT}

#: Official XPath axis steps (``axis::nametest``), accepted as sugar so CLI
#: users can paste real queries; each maps to the CoreXPath encoding used by
#: :mod:`repro.xpath.official` in the other direction.
_OFFICIAL_AXES = {
    "child": lambda: AxisStep(Axis.DOWN),
    "parent": lambda: AxisStep(Axis.UP),
    "self": Self,
    "descendant": lambda: Seq(AxisStep(Axis.DOWN), AxisClosure(Axis.DOWN)),
    "ancestor": lambda: Seq(AxisStep(Axis.UP), AxisClosure(Axis.UP)),
    "descendant-or-self": lambda: AxisClosure(Axis.DOWN),
    "ancestor-or-self": lambda: AxisClosure(Axis.UP),
    "following-sibling": lambda: Seq(AxisStep(Axis.RIGHT),
                                     AxisClosure(Axis.RIGHT)),
    "preceding-sibling": lambda: Seq(AxisStep(Axis.LEFT),
                                     AxisClosure(Axis.LEFT)),
}
_KEYWORDS = {"union", "intersect", "except", "for", "in", "return",
             "and", "or", "not", "true", "false", "is", "eq"} | set(_AXES)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if not match or match.end() == match.start():
                remainder = text[pos:].lstrip()
                if not remainder:
                    break
                raise XPathSyntaxError(f"cannot tokenize at: {remainder[:20]!r}")
            pos = match.end()
            if match.group("quoted"):
                raw = match.group("quoted")[1:-1]
                value = raw.replace("\\'", "'").replace("\\\\", "\\")
                self.items.append(("label", value, match.start()))
            elif match.group("dcolon"):
                self.items.append(("punct", "::", match.start()))
            elif match.group("ident"):
                self.items.append(("ident", match.group("ident"), match.start()))
            else:
                self.items.append(("punct", match.group("punct"), match.start()))
        self.index = 0

    def peek(self, offset: int = 0) -> tuple[str, str] | None:
        if self.index + offset < len(self.items):
            kind, value, _ = self.items[self.index + offset]
            return kind, value
        return None

    def next(self) -> tuple[str, str]:
        if self.index >= len(self.items):
            raise XPathSyntaxError("unexpected end of input")
        kind, value, _ = self.items[self.index]
        self.index += 1
        return kind, value

    def expect(self, kind: str, value: str) -> None:
        got = self.peek()
        if got != (kind, value):
            found = got[1] if got else "end of input"
            raise XPathSyntaxError(f"expected {value!r}, got {found!r}")
        self.index += 1

    def match(self, kind: str, value: str) -> bool:
        if self.peek() == (kind, value):
            self.index += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.index >= len(self.items)


def parse_path(text: str) -> PathExpr:
    """Parse a path expression."""
    return _parse(text, _path)


def parse_node(text: str) -> NodeExpr:
    """Parse a node expression."""
    return _parse(text, _node)


def _parse(text: str, rule):
    tokens = _Tokens(text)
    try:
        result = rule(tokens)
    except RecursionError:  # about ten frames per nesting level
        raise XPathSyntaxError("expression nests too deeply") from None
    if not tokens.at_end():
        _, value = tokens.next()
        raise XPathSyntaxError(f"trailing input starting at {value!r}")
    return result


# ---------------------------------------------------------------- path rules


def _path(tokens: _Tokens) -> PathExpr:
    if tokens.match("ident", "for"):
        tokens.expect("punct", "$")
        kind, var = tokens.next()
        if kind != "ident":
            raise XPathSyntaxError(f"expected a variable name after '$', got {var!r}")
        tokens.expect("ident", "in")
        source = _union(tokens)
        tokens.expect("ident", "return")
        body = _union(tokens)
        return ForLoop(var, source, body)
    return _union(tokens)


def _union(tokens: _Tokens) -> PathExpr:
    path = _except(tokens)
    while tokens.match("ident", "union"):
        path = Union(path, _except(tokens))
    return path


def _except(tokens: _Tokens) -> PathExpr:
    path = _intersect(tokens)
    while tokens.match("ident", "except"):
        path = Complement(path, _intersect(tokens))
    return path


def _intersect(tokens: _Tokens) -> PathExpr:
    path = _seq(tokens)
    while tokens.match("ident", "intersect"):
        path = Intersect(path, _seq(tokens))
    return path


def _seq(tokens: _Tokens) -> PathExpr:
    path = _postfix(tokens)
    while tokens.match("punct", "/"):
        path = Seq(path, _postfix(tokens))
    return path


def _postfix(tokens: _Tokens) -> PathExpr:
    path, bare_axis = _primary(tokens)
    while True:
        if tokens.match("punct", "["):
            predicate = _node(tokens)
            tokens.expect("punct", "]")
            path = Filter(path, predicate)
            bare_axis = False
        elif tokens.peek() == ("punct", "*"):
            tokens.next()
            # A star directly on an axis token is the CoreXPath axis τ*;
            # on anything else (including "(down)*") it is the Star
            # extension.
            path = AxisClosure(path.axis) if bare_axis else Star(path)
            bare_axis = False
        elif tokens.peek() == ("punct", "+"):
            tokens.next()
            if bare_axis:
                path = Seq(path, AxisClosure(path.axis))
            else:
                path = Seq(path, Star(path))
            bare_axis = False
        else:
            return path


def _official_step(tokens: _Tokens) -> PathExpr:
    """``axis::nametest`` — the official XPath step syntax."""
    _, axis_name = tokens.next()
    tokens.expect("punct", "::")
    path = _OFFICIAL_AXES[axis_name]()
    got = tokens.peek()
    if got == ("punct", "*"):
        tokens.next()
        return path
    if got is not None and got[0] in ("ident", "label"):
        _, name = tokens.next()
        return Filter(path, Label(name))
    raise XPathSyntaxError(
        f"expected a name test after '{axis_name}::', "
        f"got {got[1] if got else 'end of input'!r}"
    )


def _primary(tokens: _Tokens) -> tuple[PathExpr, bool]:
    """Returns (path, is_bare_axis_token)."""
    ahead = tokens.peek()
    if ahead is not None and ahead[0] == "ident" \
            and ahead[1] in _OFFICIAL_AXES \
            and tokens.peek(1) == ("punct", "::"):
        return _official_step(tokens), False
    kind, value = tokens.next()
    if kind == "ident" and value in _AXES:
        return AxisStep(_AXES[value]), True
    if (kind, value) == ("punct", "."):
        return Self(), False
    if (kind, value) == ("punct", "("):
        path = _path(tokens)
        tokens.expect("punct", ")")
        return path, False
    raise XPathSyntaxError(f"expected a path expression, got {value!r}")


# ---------------------------------------------------------------- node rules


def _node(tokens: _Tokens) -> NodeExpr:
    node = _conj(tokens)
    while tokens.match("ident", "or"):
        node = or_(node, _conj(tokens))
    return node


def _conj(tokens: _Tokens) -> NodeExpr:
    node = _unary(tokens)
    while tokens.match("ident", "and"):
        node = And(node, _unary(tokens))
    return node


def _unary(tokens: _Tokens) -> NodeExpr:
    if tokens.match("ident", "not"):
        return Not(_unary(tokens))
    return _atom(tokens)


def _atom(tokens: _Tokens) -> NodeExpr:
    ahead = tokens.peek()
    if ahead is not None and ahead[0] == "ident" \
            and ahead[1] in _OFFICIAL_AXES \
            and tokens.peek(1) == ("punct", "::"):
        # An official axis step used as a node test (e.g. ``self::a``,
        # ``child::b``) holds wherever the step selects something.
        return SomePath(_official_step(tokens))
    kind, value = tokens.next()
    if kind == "label":
        return Label(value)
    if kind == "ident":
        if value == "true":
            return Top()
        if value == "false":
            return Not(Top())
        if value == "eq":
            tokens.expect("punct", "(")
            left = _path(tokens)
            tokens.expect("punct", ",")
            right = _path(tokens)
            tokens.expect("punct", ")")
            return PathEquality(left, right)
        if value in _KEYWORDS:
            raise XPathSyntaxError(
                f"{value!r} is a keyword; quote it to use it as a label"
            )
        return Label(value)
    if (kind, value) == ("punct", "<"):
        path = _path(tokens)
        tokens.expect("punct", ">")
        return SomePath(path)
    if (kind, value) == ("punct", "."):
        tokens.expect("ident", "is")
        tokens.expect("punct", "$")
        var_kind, var = tokens.next()
        if var_kind != "ident":
            raise XPathSyntaxError(f"expected a variable name after '$', got {var!r}")
        return VarIs(var)
    if (kind, value) == ("punct", "("):
        node = _node(tokens)
        tokens.expect("punct", ")")
        return node
    raise XPathSyntaxError(f"expected a node expression, got {value!r}")
