"""Karel program syntax: AST, tokenization, parsing and emission.

Programs are a single ``def main ( ) :`` followed by a body: a tuple of
statements joined by ``;``. Statements are actions, conditionals, ``while``
loops and ``repeat`` loops with a constant trip count in 0..19, and every
conditional or loop body is again a statement tuple. Conditions are four
sensor predicates, optionally wrapped in ``not``.

``emit_tokens`` produces a canonical form: compound bodies are always braced
``{ ... }`` and the top-level body is unbraced. The parser also accepts an
unbraced single-statement body, which it reads as a 1-tuple, so
``parse_program(emit_tokens(p)) == p`` for every program whose bodies are
non-empty statement tuples.

Emission walks the tree with an explicit stack, and ``program_salients``
reads size, control-flow count and nesting depth off the emitted tokens, so
neither recurses on program length or depth. Parsing still recurses once
per nesting level: text nested past Python's recursion limit raises
``RecursionError``, which the CLI reports as a usage error (exit 2).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import Any

from .._frozen import Frozen

ACTIONS = ("move", "turnLeft", "turnRight", "pickMarker", "putMarker")
PREDICATES = ("frontIsClear", "leftIsClear", "rightIsClear", "markersPresent")
MAX_REPEAT = 19


class Pred(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if name not in PREDICATES:
            raise ValueError(f"unknown predicate {name!r}")
        object.__setattr__(self, "name", name)


class Not(Frozen):
    __slots__ = ("cond",)


Cond = Pred | Not


class Action(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if name not in ACTIONS:
            raise ValueError(f"unknown action {name!r}")
        object.__setattr__(self, "name", name)


class If(Frozen):
    __slots__ = ("cond", "body")


class IfElse(Frozen):
    __slots__ = ("cond", "then_body", "else_body")


class While(Frozen):
    __slots__ = ("cond", "body")


class Repeat(Frozen):
    __slots__ = ("times", "body")

    def __init__(self, times: int, body: "Body") -> None:
        if not (type(times) is int and 0 <= times <= MAX_REPEAT):
            raise ValueError(f"repeat count must be in 0..{MAX_REPEAT}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "body", body)


Stmt = Action | If | IfElse | While | Repeat
Body = tuple[Stmt, ...]


class KarelProgram(Frozen):
    __slots__ = ("body",)


class KarelSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at {position}")
        self.position = position

    def __reduce__(self) -> tuple:
        message = str(self).removesuffix(f" at {self.position}")
        return self.__class__, (message, self.position)


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+|[(){}:;]|(?P<stray>\S)")


def _lex(text: str) -> list[tuple[str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "stray":
            raise KarelSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.group(), m.start()))
    return tokens


def emit_tokens(program: KarelProgram) -> list[str]:
    """Canonical token sequence for the program.

    One explicit stack holds bodies, statements, conditions and pending
    tokens, so long bodies and deep nesting never reach the recursion limit.
    """
    out = ["def", "main", "(", ")", ":"]
    stack: list[Body | Stmt | Cond | str] = [program.body]
    while stack:
        node = stack.pop()
        match node:
            case str():
                out.append(node)
            case tuple():
                # Pushed last statement first, with ";" between statements.
                stack.append(node[-1])
                for stmt in node[-2::-1]:
                    stack += [";", stmt]
            case Action(name=name) | Pred(name=name):
                out += [name, "(", ")"]
            case If(cond=cond, body=body):
                out += ["if", "("]
                stack += ["}", body, "{", ":", ")", cond]
            case IfElse(cond=cond, then_body=then_body, else_body=else_body):
                out += ["if", "("]
                stack += ["}", else_body, "{", ":", "else", "}", then_body, "{", ":", ")", cond]
            case While(cond=cond, body=body):
                out += ["while", "("]
                stack += ["}", body, "{", ":", ")", cond]
            case Repeat(times=times, body=body):
                out += ["repeat", "(", str(times), ")", ":", "{"]
                stack += ["}", body]
            case Not(cond=inner):
                out += ["not", "("]
                stack += [")", inner]
            case _:
                raise TypeError(f"not a statement or condition: {node!r}")
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> str | None:
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def here(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return self.tokens[-1][1] + 1 if self.tokens else 0

    def fail(self, wanted: str) -> KarelSyntaxError:
        """The error for finding the current token where ``wanted`` belongs."""
        tok = self.peek()
        found = "end of program" if tok is None else repr(tok)
        return KarelSyntaxError(f"expected {wanted}, found {found}", self.here())

    def expect(self, wanted: str) -> None:
        if self.peek() != wanted:
            raise self.fail(repr(wanted))
        self.index += 1

    def program(self) -> KarelProgram:
        for tok in ("def", "main", "(", ")", ":"):
            self.expect(tok)
        body = self.stmt_seq()
        if self.peek() is not None:
            raise KarelSyntaxError(f"unexpected token {self.peek()!r}", self.here())
        return KarelProgram(body)

    def stmt_seq(self) -> Body:
        stmts = [self.stmt()]
        while self.peek() == ";":
            self.index += 1
            stmts.append(self.stmt())
        return tuple(stmts)

    def stmt(self) -> Stmt:
        tok = self.peek()
        if tok in ACTIONS:
            self.index += 1
            self.expect("(")
            self.expect(")")
            return Action(tok)
        if tok == "while":
            return While(self.header(self.cond), self.body())
        if tok == "repeat":
            return Repeat(self.header(self.repeat_count), self.body())
        if tok == "if":
            cond = self.header(self.cond)
            then_body = self.body()
            if self.peek() == "else":
                self.index += 1
                self.expect(":")
                return IfElse(cond, then_body, self.body())
            return If(cond, then_body)
        raise self.fail("a statement")

    def header(self, argument: Callable[[], Any]) -> Any:
        # The keyword, then ``( argument ) :``, as ``while``, ``repeat`` and
        # ``if`` spell it.
        self.index += 1
        self.expect("(")
        value = argument()
        self.expect(")")
        self.expect(":")
        return value

    def body(self) -> Body:
        # Braced bodies may hold a sequence; an unbraced body is one statement.
        if self.peek() == "{":
            self.index += 1
            inner = self.stmt_seq()
            self.expect("}")
            return inner
        return (self.stmt(),)

    def repeat_count(self) -> int:
        tok = self.peek()
        if tok is None:
            raise KarelSyntaxError("unexpected end of program", self.here())
        # A count is spelled as emit_tokens writes it: no leading zero.
        if not (tok.isascii() and tok.isdigit()) or (tok[0] == "0" and tok != "0"):
            raise self.fail("a repeat count")
        # Past two digits such a count is past MAX_REPEAT, and ``int`` would
        # refuse one past the interpreter's digit limit.
        if len(tok) > 2 or int(tok) > MAX_REPEAT:
            raise KarelSyntaxError(f"repeat count must be in 0..{MAX_REPEAT}", self.here())
        self.index += 1
        return int(tok)

    def cond(self) -> Cond:
        tok = self.peek()
        if tok == "not":
            self.index += 1
            self.expect("(")
            inner = self.cond()
            self.expect(")")
            return Not(inner)
        if tok in PREDICATES:
            self.index += 1
            self.expect("(")
            self.expect(")")
            return Pred(tok)
        raise self.fail("a condition")


def parse_program(text: str | list[str] | tuple[str, ...]) -> KarelProgram:
    """Parse program text or a pre-tokenized sequence.

    Errors carry a character offset for text input and a token index for
    token input. Every token of a sequence must be a string.
    """
    if isinstance(text, str):
        tokens = _lex(text)
    else:
        tokens = [(tok, i) for i, tok in enumerate(text)]
        for tok, i in tokens:
            if not isinstance(tok, str):
                raise KarelSyntaxError(f"expected a string token, found {tok!r}", i)
    return _Parser(tokens).program()


_CONTROL_KEYWORDS = frozenset(("if", "while", "repeat"))


def program_salients(program: KarelProgram) -> dict[str, int]:
    """Size in tokens, control-flow node count, and control-flow nesting depth.

    All three are read off the canonical tokens: each control node emits one
    ``if``, ``while`` or ``repeat`` (an if-else emits a single ``if``), and
    only control bodies are braced, so the deepest ``{`` is the nesting depth.
    """
    tokens = emit_tokens(program)
    depth = deepest = control = 0
    for tok in tokens:
        if tok == "{":
            depth += 1
            if depth > deepest:
                deepest = depth
        elif tok == "}":
            depth -= 1
        elif tok in _CONTROL_KEYWORDS:
            control += 1
    return {"size": len(tokens), "control_flow_count": control, "nesting_depth": deepest}

