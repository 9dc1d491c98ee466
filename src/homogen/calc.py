"""Mod-10 calculator expressions: AST, evaluation, rendering, parsing,
samplers, and salient features of the rendered text.

Expressions are built from single digits and the binary operators ``+``,
``-`` and ``*`` with the usual precedence (``*`` binds tighter; equal
precedence associates left). Every intermediate value is reduced mod 10, so
labels always land in 0..9. ``render`` emits the minimal parenthesisation:
a child is wrapped only when its operator binds looser than its parent's,
or, for the right child, equally loose (which preserves the tree through a
re-parse). ``parse_expr(render(e)) == e`` holds for every expression.

Trees are immutable. A leaf is the digit it holds, an ``int`` in 0..9. An
operator node is a ``BinOp``, the tuple ``(op, left, right)``; a draw builds
one per node, so its constructor checks only the operator, and it is a tuple
because a tuple is cheaper to build than a ``Frozen`` record. The samplers
and ``parse_expr`` make only valid leaves; ``expr_record``, which ``render``
and ``eval_mod10`` share, and ``expr_salients`` reject any other leaf with a
``TypeError``.

Rendering, evaluation, parsing, salient measurement and the equality and
``repr`` of a tree all walk with explicit stacks, so they follow any nesting
depth. ``expr_record`` builds a dataset row's text and label in one
walk, and ``expr_salients`` measures the salients of the text a tree renders
to without rendering it, so a caller that rejects most draws renders only
the ones it keeps. The samplers stop at
``MAX_NESTING`` levels or ``MAX_NODES`` nodes with a ``ValueError``.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from operator import add, itemgetter, mul, sub

from ._frozen import Frozen
from .homogenizer import SalientSpec
from .rng import randbelow

OPS = ("+", "-", "*")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2}
_new_tuple = tuple.__new__


class BinOp(tuple):
    """An operator node: the tuple ``(op, left, right)``.

    Every construction checks the operator but not the children, each an
    ``int`` leaf or a node, and ``op``, ``left`` and ``right`` are read-only
    attributes that class patterns match on. ``==``, ``!=`` and ``repr``
    give what a ``Frozen`` record of the three fields would, except that two
    leaves are equal only when their types are too (a ``True`` or ``1.0``
    leaf never equals ``1``), and all of them walk with explicit stacks; a
    node never equals the plain tuple of its fields. ``len``, indexing,
    iteration and the ordering operators are inherited from ``tuple`` and
    mean nothing for a tree.
    """

    __slots__ = ()
    __match_args__ = ("op", "left", "right")

    op = property(itemgetter(0))
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, op: str, left: "CalcExpr", right: "CalcExpr") -> "BinOp":
        if op not in OPS:
            raise ValueError(f"unknown operator {op!r}")
        return _new_tuple(cls, (op, left, right))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            # The reflected ``tuple.__eq__`` would compare a tuple by its items.
            return False if isinstance(other, tuple) else NotImplemented
        # Pairs of subtrees still to compare, left children first.
        todo: list = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if isinstance(a, BinOp) and a.__class__ is b.__class__:
                if a[0] != b[0]:
                    return False
                todo += ((a[2], b[2]), (a[1], b[1]))
            elif a.__class__ is not b.__class__ or a != b:
                return False
        return True

    def __ne__(self, other: object) -> bool:
        # ``tuple.__ne__`` would compare item by item, recursing.
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        # Text still to emit, and operator nodes still to expand.
        parts: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if type(item) is str:
                parts.append(item)
                continue
            op, left, right = item
            parts.append(f"{item.__class__.__qualname__}(op={op!r}, left=")
            todo += (
                ")",
                right if isinstance(right, BinOp) else repr(right),
                ", right=",
                left if isinstance(left, BinOp) else repr(left),
            )
        return "".join(parts)


CalcExpr = int | BinOp


def eval_mod10(expr: CalcExpr) -> int:
    """Value of the expression with every intermediate reduced mod 10."""
    return expr_record(expr)["label"]


def render(expr: CalcExpr) -> str:
    """Minimal-parenthesis text for the expression."""
    return expr_record(expr)["expr"]


# The record walk's stack holds subtrees, the text between them and an
# apply marker after each operator node. Text and markers have private types
# that no leaf has, so every other item is a leaf and meets the leaf check.
_Text = type("_Text", (str,), {})
_Apply = type("_Apply", (int,), {})
_OPEN, _CLOSE = _Text("("), _Text(")")
_OP_TEXT = {op: _Text(op) for op in OPS}
_OP_OPEN = {op: _Text(op + "(") for op in OPS}
_APPLY = {op: _Apply(code) for code, op in enumerate(OPS)}
_ARITHMETIC = (add, sub, mul)  # indexed by apply marker, in OPS order


def expr_record(expr: CalcExpr) -> dict:
    """One dataset row for the expression: its minimal-parenthesis text and
    its mod-10 label, built together in one walk.

    The walk keeps an explicit stack of subtrees still to visit, the text
    between them and a marker after each operator node, so nesting depth is
    bounded by memory, not by Python's recursion limit. A left child is
    wrapped when it binds looser than its parent, a right child when it
    binds looser or equally loose. A leaf, at the root or below it, that is
    not an exact ``int`` in 0..9 is a ``TypeError``.
    """
    if type(expr) is int and 0 <= expr <= 9:
        return {"expr": str(expr), "label": expr}
    parts: list[str] = []
    values: list[int] = []
    todo: list = [expr]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is int and 0 <= item <= 9:
            parts.append(str(item))
            values.append(item)
        elif kind is BinOp:
            op, left, right = item
            prec = _PRECEDENCE[op]
            todo.append(_APPLY[op])
            if type(right) is BinOp and _PRECEDENCE[right[0]] <= prec:
                todo += (_CLOSE, right, _OP_OPEN[op])
            else:
                todo += (right, _OP_TEXT[op])
            if type(left) is BinOp and _PRECEDENCE[left[0]] < prec:
                todo += (_CLOSE, left, _OPEN)
            else:
                todo.append(left)
        elif kind is _Text:
            parts.append(item)
        elif kind is _Apply:
            right_value = values.pop()
            values[-1] = _ARITHMETIC[item](values[-1], right_value) % 10
        else:
            raise TypeError(f"not a calculator expression: {item!r}")
    return {"expr": "".join(parts), "label": values[0]}


class CalcParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position

    def __reduce__(self) -> tuple:
        message = str(self).removesuffix(f" at position {self.position}")
        return self.__class__, (message, self.position)


def parse_expr(text: str) -> CalcExpr:
    """Parse expression text; raises :class:`CalcParseError` with a position.

    The grammar is ``sum := term (('+'|'-') term)*``, ``term := atom ('*'
    atom)*``, ``atom := digit | '(' sum ')'``. It is walked with an explicit
    stack of the enclosing parentheses' partial sum and term, so nesting
    depth is bounded by memory, not by Python's recursion limit.
    """
    n = len(text)
    pos = 0
    # Partial sum, its pending operator and partial product at this level.
    total: CalcExpr | None = None
    total_op = ""
    product: CalcExpr | None = None
    enclosing: list[tuple[CalcExpr | None, str, CalcExpr | None]] = []
    while True:
        # An atom: a digit, or an opening parenthesis that starts a new level.
        if pos == n:
            raise CalcParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "(":
            enclosing.append((total, total_op, product))
            total, total_op, product = None, "", None
            pos += 1
            continue
        if not "0" <= ch <= "9":
            raise CalcParseError(f"unexpected character {ch!r}", pos)
        node: CalcExpr = int(ch)
        pos += 1
        # Fold the atom into the product, the product into the sum, and a
        # finished parenthesised sum into the enclosing level as its atom.
        while True:
            product = node if product is None else BinOp("*", product, node)
            ch = text[pos] if pos < n else None
            if ch == "*":
                pos += 1
                break
            node = product if total is None else BinOp(total_op, total, product)
            product = None
            if ch == "+" or ch == "-":
                total, total_op = node, ch
                pos += 1
                break
            if not enclosing:
                if pos != n:
                    raise CalcParseError(f"unexpected character {ch!r}", pos)
                return node
            if ch != ")":
                raise CalcParseError("expected ')'", pos)
            pos += 1
            total, total_op, product = enclosing.pop()


# ---------------------------------------------------------------------------
# Samplers. Each documents its RNG call order so runs are reproducible.

# Deepest nesting a sampled tree may reach. ``Dcfg`` and ``Rcfg`` raise
# ``ValueError`` on a draw that would nest deeper; ``T2t`` rejects a
# ``max_depth`` above it when built. This message and ``_TOO_BIG`` open
# with the parameter to lower, which the command line names by its flag.
MAX_NESTING = 500
_TOO_DEEP = f"p is too large: a sampled expression nested deeper than {MAX_NESTING} levels"

# Most nodes a t2t tree may hold. Its size grows about as e^(1.8 sqrt(d))
# with its depth d, so ``T2t`` raises ``ValueError`` on a draw that grows
# past it.
MAX_NODES = 100_000
_TOO_BIG = f"max_depth is too large: a sampled expression grew past {MAX_NODES} nodes"

# The lengths an rcfg operator run draws from, and the depths a bal tree
# draws from; each draw picks an index uniformly.
RUN_LENGTHS = (2, 3, 4)
BAL_DEPTHS = (1, 2, 3, 4, 5, 6)


class Dcfg(Frozen):
    """Grammar walk: digit with probability 1-p, else an operator node with
    two recursive children. RNG order per node: the branch coin, then either
    the digit value or (operator, left subtree, right subtree). Values of p
    at 0.5 or above make the expected size infinite; the default stays well
    below that, and near 0.5 a draw may pass :data:`MAX_NESTING`.
    """

    __slots__ = ("p",)

    def __init__(self, p: float = 0.3) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        super().__init__(p)


class T2t(Frozen):
    """Exact-depth tree builder. Draws a depth d uniform over 1..max_depth,
    then recursively forces a random side to depth d-1 while the other side
    gets an independent depth from U{0..d-1}; depth 0 is a digit. RNG order
    per node: digit value at depth 0, else (operator, side coin, other-side
    depth, forced side, other side). A draw stops with ``ValueError`` once
    it passes :data:`MAX_NODES`.
    """

    __slots__ = ("max_depth",)

    def __init__(self, max_depth: int = 8) -> None:
        if not (type(max_depth) is int and 1 <= max_depth <= MAX_NESTING):
            raise ValueError(f"max_depth must be in 1..{MAX_NESTING}")
        super().__init__(max_depth)


class Rcfg(Frozen):
    """Grammar walk with operator runs: digit with probability 1-p, else an
    operator; ``+`` and ``*`` expand to a run of k children (k drawn from
    :data:`RUN_LENGTHS`) combined left-associatively, ``-`` stays binary. RNG
    order per node: the branch coin, then either the digit value or
    (operator, run length when applicable, children left to right). Toward
    :data:`MAX_NESTING`, every child of a run counts one level below its
    operator, however deep the run's left-associative chain makes it.
    """

    __slots__ = ("p",)

    def __init__(self, p: float = 0.3) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        super().__init__(p)


class Bal(Frozen):
    """Complete binary tree of a depth drawn uniformly from
    :data:`BAL_DEPTHS`; every internal node gets an independent uniform
    operator. RNG order: the depth, then nodes in root-left-right order.
    """

    __slots__ = ()


CalcSampler = Dcfg | T2t | Rcfg | Bal


# The samplers draw with ``rng.random`` (``coin``) and ``rng.getrandbits``
# (``bits``), consuming the generator exactly as ``rng.randrange``/
# ``rng.randint`` would in the documented order. A digit is drawn inline as
# ``bits(4)``, redrawn while >= 10, and an operator index as ``bits(2)``,
# redrawn while == 3: the bits ``randbelow(bits, 10)`` and
# ``randbelow(bits, 3)`` draw, without a call per node. Bounds that vary
# (the t2t depths, the rcfg run length, the bal depth index) go through
# ``randbelow``.
Coin = Callable[[], float]
Bits = Callable[[int], int]


def sample_expr(rng: random.Random, sampler: CalcSampler) -> CalcExpr:
    """One tree from the sampler, drawn by the entry of ``_DRAWS`` for its
    exact type; any other object is a ``TypeError``."""
    draw = _DRAWS.get(sampler.__class__)
    if draw is None:
        raise TypeError(f"unknown sampler: {sampler!r}")
    return draw(rng.random, rng.getrandbits, sampler)


# ``room`` counts the levels a draw may still nest below the current node.
def _sample_dcfg(coin: Coin, bits: Bits, p: float, room: int) -> CalcExpr:
    if coin() >= p:
        digit = bits(4)
        while digit >= 10:
            digit = bits(4)
        return digit
    if not room:
        raise ValueError(_TOO_DEEP)
    op = bits(2)
    while op == 3:
        op = bits(2)
    left = _sample_dcfg(coin, bits, p, room - 1)
    return BinOp(OPS[op], left, _sample_dcfg(coin, bits, p, room - 1))


# ``room`` holds the nodes a t2t draw may still add.
def _sample_t2t(coin: Coin, bits: Bits, depth: int, room: list[int]) -> CalcExpr:
    room[0] -= 1
    if room[0] < 0:
        raise ValueError(_TOO_BIG)
    if depth == 0:
        digit = bits(4)
        while digit >= 10:
            digit = bits(4)
        return digit
    op = bits(2)
    while op == 3:
        op = bits(2)
    force_left = coin() < 0.5
    other_depth = randbelow(bits, depth)
    if force_left:
        left = _sample_t2t(coin, bits, depth - 1, room)
        return BinOp(OPS[op], left, _sample_t2t(coin, bits, other_depth, room))
    left = _sample_t2t(coin, bits, other_depth, room)
    return BinOp(OPS[op], left, _sample_t2t(coin, bits, depth - 1, room))


def _sample_rcfg(coin: Coin, bits: Bits, p: float, room: int) -> CalcExpr:
    if coin() >= p:
        digit = bits(4)
        while digit >= 10:
            digit = bits(4)
        return digit
    if not room:
        raise ValueError(_TOO_DEEP)
    room -= 1
    op = bits(2)
    while op == 3:
        op = bits(2)
    if OPS[op] == "-":
        left = _sample_rcfg(coin, bits, p, room)
        return BinOp("-", left, _sample_rcfg(coin, bits, p, room))
    k = RUN_LENGTHS[randbelow(bits, len(RUN_LENGTHS))]
    node = _sample_rcfg(coin, bits, p, room)
    for _ in range(k - 1):
        node = BinOp(OPS[op], node, _sample_rcfg(coin, bits, p, room))
    return node


def _sample_bal(bits: Bits, depth: int) -> CalcExpr:
    if depth == 0:
        digit = bits(4)
        while digit >= 10:
            digit = bits(4)
        return digit
    op = bits(2)
    while op == 3:
        op = bits(2)
    left = _sample_bal(bits, depth - 1)
    return BinOp(OPS[op], left, _sample_bal(bits, depth - 1))


# ``sample_expr``'s draw for each sampler type.
_DRAWS: dict[type, Callable[[Coin, Bits, CalcSampler], CalcExpr]] = {
    Dcfg: lambda coin, bits, s: _sample_dcfg(coin, bits, s.p, MAX_NESTING),
    T2t: lambda coin, bits, s: _sample_t2t(
        coin, bits, 1 + randbelow(bits, s.max_depth), [MAX_NODES]
    ),
    Rcfg: lambda coin, bits, s: _sample_rcfg(coin, bits, s.p, MAX_NESTING),
    Bal: lambda coin, bits, s: _sample_bal(bits, BAL_DEPTHS[randbelow(bits, len(BAL_DEPTHS))]),
}


def sample_record(rng: random.Random, sampler: CalcSampler) -> dict:
    """One dataset row: rendered expression plus its mod-10 label."""
    return expr_record(sample_expr(rng, sampler))


# ---------------------------------------------------------------------------
# Salient features of the rendered text, measured on text or on the tree.

_SALIENT_DOMAINS = {
    "length": tuple(range(2, 121, 2)),
    "num_ops": tuple(range(0, 61)),
    "num_parens": tuple(range(0, 31)),
    "mean_depth": tuple(range(0, 41)),
    "max_depth": tuple(range(0, 16)),
}


def calc_salients(text: str) -> dict[str, int]:
    """Salient features of expression text keyed by :func:`salient_specs`
    name; malformed text is a parse error.

    ``length`` is the character count rounded up to an even number. Depths
    count enclosing parenthesis pairs around each digit; ``mean_depth`` is
    the mean over digits scaled by 4 and rounded. Every value is clamped
    into its domain.
    """
    parse_expr(text)
    return _salients_of_text(text)


def _salients_of_text(text: str) -> dict[str, int]:
    """The :func:`calc_salients` features, without parsing.

    ``stats`` reads text through :func:`calc_salients`, and that text may
    carry redundant parentheses no tree keeps. Depths need a scan
    only when the text has an opening parenthesis; without one no digit sits
    deeper than 0.
    """
    parens = text.count("(")
    depth_sum = digits = max_depth = 0
    if parens:
        depth = 0
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif "0" <= ch <= "9":
                digits += 1
                depth_sum += depth
                if depth > max_depth:
                    max_depth = depth
    ops = text.count("+") + text.count("-") + text.count("*")
    return _clamped(len(text), ops, parens, depth_sum, digits, max_depth)


def _clamped(
    length: int, ops: int, parens: int, depth_sum: int, digits: int, max_depth: int
) -> dict[str, int]:
    # The salients keyed by spec name, each clamped into its domain.
    return {
        "length": min(max(length + length % 2, 2), 120),
        "num_ops": min(ops, 60),
        "num_parens": min(parens, 30),
        "mean_depth": min(max(round(4.0 * (depth_sum / digits)), 0), 40) if depth_sum else 0,
        "max_depth": min(max_depth, 15),
    }


# The salients of every bare digit and of every operator over two digits
# ("3*4"); shared, so callers must not modify them.
_DIGIT_SALIENTS = _clamped(1, 0, 0, 0, 1, 0)
_ONE_OP_SALIENTS = _clamped(3, 1, 0, 0, 2, 0)


def expr_salients(expr: CalcExpr) -> dict[str, int]:
    """``_salients_of_text(render(expr))``, measured on the tree.

    A walk with an explicit stack applies :func:`expr_record`'s parenthesis
    rule: each wrapped node adds a pair of parentheses around every digit
    below it, and the text has one character per digit and operator plus two
    per pair. A bare digit, and an operator over two digits, each return one
    shared dict, which callers must treat as read-only. A leaf that is not an
    exact ``int`` in 0..9 is the ``TypeError`` :func:`expr_record` raises.
    """
    if type(expr) is int and 0 <= expr <= 9:
        return _DIGIT_SALIENTS
    if type(expr) is not BinOp:
        raise TypeError(f"not a calculator expression: {expr!r}")
    _, left, right = expr
    if type(left) is int and type(right) is int and 0 <= left <= 9 and 0 <= right <= 9:
        return _ONE_OP_SALIENTS
    ops = parens = depth_sum = max_depth = 0
    # Operator nodes still to visit, each with its count of wrapped nodes
    # from the root down to and including itself.
    todo = [(expr, 0)]
    while todo:
        node, depth = todo.pop()
        ops += 1
        if depth > max_depth:
            max_depth = depth
        op, left, right = node
        prec = _PRECEDENCE[op]
        if type(left) is BinOp:
            wrapped = _PRECEDENCE[left[0]] < prec
            parens += wrapped
            todo.append((left, depth + wrapped))
        elif type(left) is int and 0 <= left <= 9:
            depth_sum += depth
        else:
            raise TypeError(f"not a calculator expression: {left!r}")
        if type(right) is BinOp:
            wrapped = _PRECEDENCE[right[0]] <= prec
            parens += wrapped
            todo.append((right, depth + wrapped))
        elif type(right) is int and 0 <= right <= 9:
            depth_sum += depth
        else:
            raise TypeError(f"not a calculator expression: {right!r}")
    return _clamped(2 * (ops + parens) + 1, ops, parens, depth_sum, ops + 1, max_depth)


def measured_source(sampler: CalcSampler, name: str) -> Callable[[random.Random], tuple]:
    """Per call, the tree ``sample_expr(rng, sampler)`` would draw and its
    salient ``name``: one Python frame around the sampler's own draw."""
    draw = _DRAWS.get(sampler.__class__)
    if draw is None:
        raise TypeError(f"unknown sampler: {sampler!r}")

    def measured(rng: random.Random) -> tuple[CalcExpr, int]:
        tree = draw(rng.random, rng.getrandbits, sampler)
        return tree, expr_salients(tree)[name]

    return measured


def salient_specs() -> dict[str, SalientSpec]:
    """Named salient variables over expression trees, measured by
    :func:`expr_salients`; :func:`calc_salients` measures the same names on
    text."""
    return {
        name: SalientSpec(name, domain, lambda expr, name=name: expr_salients(expr)[name])
        for name, domain in _SALIENT_DOMAINS.items()
    }
