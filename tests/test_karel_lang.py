import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homogen.karel import (
    ACTIONS,
    PREDICATES,
    Action,
    If,
    IfElse,
    KarelProgram,
    KarelSyntaxError,
    Not,
    Pred,
    Repeat,
    While,
    emit_tokens,
    parse_program,
    program_salients,
    sample_program,
)
from homogen.karel.lang import MAX_REPEAT


MOVE = (Action("move"),)


def test_parse_minimal_program():
    assert parse_program("def main(): move()") == KarelProgram(MOVE)


def test_parse_while_with_unbraced_body():
    program = parse_program("def main(): while(frontIsClear()): move()")
    assert program == KarelProgram((While(Pred("frontIsClear"), MOVE),))


def test_parse_sequences_into_one_tuple():
    program = parse_program("def main(): move() ; turnLeft() ; putMarker()")
    assert program == KarelProgram((Action("move"), Action("turnLeft"), Action("putMarker")))


def test_parse_if_else_and_not():
    text = "def main(): if(not(markersPresent())): putMarker() else: pickMarker()"
    program = parse_program(text)
    assert program == KarelProgram(
        (IfElse(Not(Pred("markersPresent")), (Action("putMarker"),), (Action("pickMarker"),)),)
    )


def test_dangling_else_binds_to_the_inner_if():
    text = "def main(): if(leftIsClear()): if(rightIsClear()): move() else: turnLeft()"
    program = parse_program(text)
    inner = IfElse(Pred("rightIsClear"), MOVE, (Action("turnLeft"),))
    assert program == KarelProgram((If(Pred("leftIsClear"), (inner,)),))


def test_braces_delimit_the_else_owner():
    text = "def main(): if(leftIsClear()): { if(rightIsClear()): move() } else: turnLeft()"
    program = parse_program(text)
    inner = If(Pred("rightIsClear"), MOVE)
    assert program == KarelProgram(
        (IfElse(Pred("leftIsClear"), (inner,), (Action("turnLeft"),)),)
    )


def test_repeat_count_bounds():
    program = parse_program("def main(): repeat(19): move()")
    assert program == KarelProgram((Repeat(19, MOVE),))
    with pytest.raises(KarelSyntaxError):
        parse_program("def main(): repeat(20): move()")
    with pytest.raises(ValueError):
        Repeat(20, MOVE)


def test_parse_accepts_token_sequences():
    tokens = ["def", "main", "(", ")", ":", "move", "(", ")"]
    assert parse_program(tokens) == KarelProgram(MOVE)


@pytest.mark.parametrize("bad", [5, [5], None, 5.0, b"move"], ids=repr)
def test_token_sequences_reject_non_string_tokens(bad):
    tokens = ["def", "main", "(", ")", ":", "repeat", "(", "5", ")", ":", "move", "(", ")"]
    for index in (0, 7, len(tokens) - 1):
        with pytest.raises(KarelSyntaxError) as excinfo:
            parse_program(tokens[:index] + [bad] + tokens[index + 1:])
        assert excinfo.value.position == index
        assert str(excinfo.value) == f"expected a string token, found {bad!r} at {index}"


def test_syntax_errors_carry_positions():
    with pytest.raises(KarelSyntaxError) as excinfo:
        parse_program("def main(): move(")
    assert excinfo.value.position == len("def main(): move(")
    with pytest.raises(KarelSyntaxError):
        parse_program("def main(): fly()")
    with pytest.raises(KarelSyntaxError):
        parse_program("def main(): move() extra()")
    with pytest.raises(KarelSyntaxError):
        parse_program("def main(): while(markersPresent): move()")
    with pytest.raises(KarelSyntaxError, match="unexpected character '@'") as excinfo:
        parse_program("def main(): move() @")
    assert excinfo.value.position == len("def main(): move() ")
    with pytest.raises(KarelSyntaxError):
        parse_program("")


@pytest.mark.parametrize("digit", ["\u0663", "\u00b2", "\uff12"],
                         ids=["arabic-indic", "superscript", "fullwidth"])
def test_repeat_counts_take_only_ascii_digits(digit):
    text = f"def main(): repeat({digit}): move()"
    with pytest.raises(KarelSyntaxError) as excinfo:
        parse_program(text)
    assert excinfo.value.position == text.index(digit)
    assert str(excinfo.value).startswith(f"unexpected character {digit!r}")
    tokens = ["def", "main", "(", ")", ":", "repeat", "(", digit, ")", ":", "move", "(", ")"]
    with pytest.raises(KarelSyntaxError) as excinfo:
        parse_program(tokens)
    assert excinfo.value.position == 7
    assert str(excinfo.value) == f"expected a repeat count, found {digit!r} at 7"


@pytest.mark.parametrize("count", ["05", "00", "0005", "010"])
def test_repeat_counts_take_no_leading_zeros(count):
    # emit_tokens writes str(times), so "05" is no program's emission.
    text = f"def main(): repeat({count}): move()"
    with pytest.raises(KarelSyntaxError) as excinfo:
        parse_program(text)
    assert excinfo.value.position == text.index(count)
    assert str(excinfo.value) == f"expected a repeat count, found {count!r} at {text.index(count)}"
    tokens = ["def", "main", "(", ")", ":", "repeat", "(", count, ")", ":", "move", "(", ")"]
    with pytest.raises(KarelSyntaxError) as excinfo:
        parse_program(tokens)
    assert excinfo.value.position == 7
    zero = parse_program(text.replace(count, "0"))
    assert zero.body[0].times == 0
    assert emit_tokens(zero)[7] == "0"


def test_emit_minimal_program_tokens():
    tokens = emit_tokens(KarelProgram(MOVE))
    assert tokens == ["def", "main", "(", ")", ":", "move", "(", ")"]


def test_emit_orders_sequences_and_braces_bodies():
    program = KarelProgram((Action("move"), While(Pred("frontIsClear"), (Action("turnLeft"),))))
    assert " ".join(emit_tokens(program)) == (
        "def main ( ) : move ( ) ; while ( frontIsClear ( ) ) : { turnLeft ( ) }"
    )


def test_emit_flattens_left_nested_sequences():
    nested = KarelProgram(((Action("move"), Action("turnLeft")), Action("putMarker")))
    flat = KarelProgram((Action("move"), Action("turnLeft"), Action("putMarker")))
    assert emit_tokens(nested) == emit_tokens(flat)
    # The parser rebuilds the flat form.
    assert parse_program(emit_tokens(nested)) == flat


def test_round_trip_on_sampled_programs():
    rng = random.Random(31)
    for _ in range(2000):
        program = sample_program(rng)
        assert parse_program(emit_tokens(program)) == program


def test_round_trip_through_text():
    rng = random.Random(32)
    for _ in range(300):
        program = sample_program(rng)
        assert parse_program(" ".join(emit_tokens(program))) == program


def _nest(shells, body):
    # Wrap the body in each (node kind, condition or count) shell, innermost
    # last, and return the outermost statement.
    for kind, arg in reversed(shells):
        stmt = kind(arg, body)
        body = (stmt,)
    return stmt


CONDITIONS = st.recursive(st.sampled_from(PREDICATES).map(Pred), lambda inner: inner.map(Not))
SHELLS = st.tuples(st.sampled_from((If, While)), CONDITIONS) | st.tuples(
    st.just(Repeat), st.integers(0, MAX_REPEAT)
)
ACTION_STATEMENTS = st.sampled_from(ACTIONS).map(Action)
BODIES = st.recursive(
    st.lists(ACTION_STATEMENTS, min_size=1).map(tuple),
    lambda inner: st.lists(
        st.one_of(
            ACTION_STATEMENTS,
            st.builds(IfElse, CONDITIONS, inner, inner),
            st.builds(_nest, st.lists(SHELLS, min_size=1, max_size=8), inner),
        ),
        min_size=1,
    ).map(tuple),
    max_leaves=60,
)


@settings(max_examples=300, deadline=None)
@given(body=BODIES)
def test_round_trip_property(body):
    # Any program of every node kind, depth and repeat count, past the
    # sampler's grammar and token cap.
    program = KarelProgram(body)
    assert parse_program(emit_tokens(program)) == program
    assert parse_program(" ".join(emit_tokens(program))) == program


GRAMMAR_TOKENS = ("def", "main", "(", ")", ":", ";", "{", "}", "while", "repeat", "if",
                  "else", "not", *ACTIONS, *PREDICATES)
TOKENS = st.sampled_from(GRAMMAR_TOKENS) | st.text("0123456789", min_size=1, max_size=5000)
HEADER = ["def", "main", "(", ")", ":"]


@settings(deadline=None)
@given(header=st.booleans(), tokens=st.lists(TOKENS, max_size=40))
@example(header=True, tokens=["repeat", "(", "1" * 5000, ")", ":", "move", "(", ")"])
def test_parse_raises_only_syntax_errors(header, tokens):
    # Text and token input alike parse or raise KarelSyntaxError; forty
    # tokens never nest deep enough for the RecursionError past the limit.
    tokens = HEADER + tokens if header else tokens
    for source in (tokens, " ".join(tokens)):
        try:
            parse_program(source)
        except KarelSyntaxError:
            pass


def test_program_salients_examples():
    assert program_salients(KarelProgram(MOVE)) == {
        "size": 8,
        "control_flow_count": 0,
        "nesting_depth": 0,
    }
    nested = KarelProgram((While(Pred("frontIsClear"), (If(Pred("markersPresent"), MOVE),)),))
    assert program_salients(nested)["control_flow_count"] == 2
    assert program_salients(nested)["nesting_depth"] == 2
    siblings = KarelProgram((
        While(Pred("frontIsClear"), MOVE),
        If(Pred("markersPresent"), (Action("pickMarker"),)),
    ))
    assert program_salients(siblings)["control_flow_count"] == 2
    assert program_salients(siblings)["nesting_depth"] == 1


# The recursive walkers that emission and the program measures replaced,
# kept as the reference the explicit-stack versions must match.
def _reference_emit_stmt(stmt, out):
    match stmt:
        case tuple():
            for i, part in enumerate(stmt):
                if i:
                    out.append(";")
                _reference_emit_stmt(part, out)
        case Action(name=name):
            out += [name, "(", ")"]
        case If(cond=cond, body=body):
            out += ["if", "("]
            _reference_emit_cond(cond, out)
            out += [")", ":"]
            _reference_emit_block(body, out)
        case IfElse(cond=cond, then_body=then_body, else_body=else_body):
            out += ["if", "("]
            _reference_emit_cond(cond, out)
            out += [")", ":"]
            _reference_emit_block(then_body, out)
            out += ["else", ":"]
            _reference_emit_block(else_body, out)
        case While(cond=cond, body=body):
            out += ["while", "("]
            _reference_emit_cond(cond, out)
            out += [")", ":"]
            _reference_emit_block(body, out)
        case Repeat(times=times, body=body):
            out += ["repeat", "(", str(times), ")", ":"]
            _reference_emit_block(body, out)
        case _:
            raise TypeError(f"not a statement: {stmt!r}")


def _reference_emit_block(stmt, out):
    out.append("{")
    _reference_emit_stmt(stmt, out)
    out.append("}")


def _reference_emit_cond(cond, out):
    match cond:
        case Pred(name=name):
            out += [name, "(", ")"]
        case Not(cond=inner):
            out += ["not", "("]
            _reference_emit_cond(inner, out)
            out.append(")")
        case _:
            raise TypeError(f"not a condition: {cond!r}")


def _reference_count_control(stmt):
    match stmt:
        case tuple():
            return sum(map(_reference_count_control, stmt))
        case Action():
            return 0
        case If(body=body) | While(body=body) | Repeat(body=body):
            return 1 + _reference_count_control(body)
        case IfElse(then_body=then_body, else_body=else_body):
            return 1 + _reference_count_control(then_body) + _reference_count_control(else_body)
    raise TypeError(f"not a statement: {stmt!r}")


def _reference_control_depth(stmt):
    match stmt:
        case tuple():
            return max(map(_reference_control_depth, stmt))
        case Action():
            return 0
        case If(body=body) | While(body=body) | Repeat(body=body):
            return 1 + _reference_control_depth(body)
        case IfElse(then_body=then_body, else_body=else_body):
            return 1 + max(
                _reference_control_depth(then_body), _reference_control_depth(else_body)
            )
    raise TypeError(f"not a statement: {stmt!r}")


def _assert_matches_reference(program):
    tokens = ["def", "main", "(", ")", ":"]
    _reference_emit_stmt(program.body, tokens)
    assert emit_tokens(program) == tokens
    assert program_salients(program) == {
        "size": len(tokens),
        "control_flow_count": _reference_count_control(program.body),
        "nesting_depth": _reference_control_depth(program.body),
    }


def test_emit_and_salients_match_recursive_reference_on_sampled_programs():
    for seed in range(300):
        rng = random.Random(seed)
        for _ in range(20):
            _assert_matches_reference(sample_program(rng))


def _assembled_program(rng):
    """Sampled bodies nested under random control nodes or joined in
    sequence, so programs run past the sampler's 60-token cap."""
    body = sample_program(rng).body
    for _ in range(rng.randrange(5)):
        other = sample_program(rng).body
        cond = Pred(rng.choice(PREDICATES))
        kind = rng.randrange(4)
        if kind == 0:
            body = other + body
        elif kind == 1:
            body = other + (While(cond, body),)
        elif kind == 2:
            body = (IfElse(Not(cond), body, other),)
        else:
            body = (Repeat(rng.randrange(MAX_REPEAT + 1), body),) + other
    return KarelProgram(body)


def test_emit_and_salients_match_recursive_reference_past_the_token_cap():
    over_cap = 0
    reach = {"size": 0, "control_flow_count": 0, "nesting_depth": 0}
    for seed in range(300):
        rng = random.Random(seed)
        for _ in range(20):
            program = _assembled_program(rng)
            _assert_matches_reference(program)
            salients = program_salients(program)
            over_cap += salients["size"] > 60
            reach = {name: max(top, salients[name]) for name, top in reach.items()}
    # At least what 6,000 draws under a 200-token cap reached.
    assert over_cap >= 302
    assert reach["size"] >= 197
    assert reach["nesting_depth"] >= 7
    assert reach["control_flow_count"] >= 13


@pytest.mark.parametrize("body", [
    (
        (Action("move"), Action("turnLeft")),
        ((Action("putMarker"), Action("pickMarker")), Action("turnRight")),
    ),
    (If(Not(Not(Pred("frontIsClear"))), MOVE),),
    (While(
        Pred("markersPresent"),
        (
            IfElse(Not(Pred("leftIsClear")), (Action("turnLeft"),), (Repeat(2, MOVE),)),
            Action("pickMarker"),
        ),
    ),),
    (Repeat(0, (Action("putMarker"),)),),
], ids=["left-nested-seq", "double-not", "if-else-in-while", "repeat-zero"])
def test_emit_and_salients_match_recursive_reference_on_hand_built_programs(body):
    _assert_matches_reference(KarelProgram(body))


def test_emit_and_salients_walk_past_the_recursion_limit():
    body = MOVE
    for _ in range(3000):
        body = (Repeat(1, (Action("turnLeft"),) + body),)
    tokens = emit_tokens(KarelProgram(body))
    assert tokens[5:12] == ["repeat", "(", "1", ")", ":", "{", "turnLeft"]
    assert tokens[-3003:] == ["move", "(", ")"] + ["}"] * 3000
    assert program_salients(KarelProgram(body)) == {
        "size": 5 + 3 + 3000 * 11,
        "control_flow_count": 3000,
        "nesting_depth": 3000,
    }


def test_size_counts_every_token():
    rng = random.Random(33)
    for _ in range(200):
        program = sample_program(rng)
        assert program_salients(program)["size"] == len(emit_tokens(program))


def test_ast_validation():
    with pytest.raises(ValueError):
        Action("jump")
    with pytest.raises(ValueError):
        Pred("isHome")
    # A bool is an int to isinstance; Repeat(True, ...) would emit
    # "repeat ( True )", which the parser rejects.
    for times in (True, False, -1, MAX_REPEAT + 1, 3.0, "3"):
        with pytest.raises(ValueError):
            Repeat(times, MOVE)
