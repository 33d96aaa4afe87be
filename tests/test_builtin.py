"""The builtin backend: fragment semantics, model guard, selection, and
agreement with brute force on small random formulas."""

import itertools
import random
from fractions import Fraction

import pytest

from pushdown_synth import builtin
from pushdown_synth.builtin import BuiltinSession
from pushdown_synth.smt import (
    BUILTIN, FLOAT_SORT, INT_SORT, REAL_SORT, SolverConfig, SolverError,
    find_solver, session_backend, start_session,
)
from pushdown_synth.values import NEG_INF

F_DECLS = [
    "(declare-datatypes ((F 0)) (((NegInf) (Fin (fval Real)))))",
    "(define-fun flt ((x F) (y F)) Bool"
    " (ite (is-NegInf x) (not (is-NegInf y))"
    " (and (is-Fin y) (< (fval x) (fval y)))))",
]


def session(timeout_ms=30000):
    return BuiltinSession(SolverConfig(timeout_ms=timeout_ms))


def test_explicit_builtin_selection_and_discovery_contract(monkeypatch):
    assert session_backend(BUILTIN) == BUILTIN
    with start_session(SolverConfig(solver_path=BUILTIN)) as s:
        assert s.backend == BUILTIN
    monkeypatch.setenv("PUSHDOWN_SYNTH_SOLVER", BUILTIN)
    assert session_backend() == BUILTIN
    with pytest.raises(SolverError):
        find_solver()  # still means "an external solver"


def test_selector_off_its_constructor_is_one_fixed_value():
    with session() as s:
        for d in F_DECLS:
            s.declare(d)
        s.declare_const("x", "F", FLOAT_SORT)
        s.declare_const("y", "F", FLOAT_SORT)
        same = ["=>", ["and", ["is-NegInf", "x"], ["is-NegInf", "y"]],
                ["=", ["fval", "x"], ["fval", "y"]]]
        assert s.check_valid(same).is_valid
        assert s.check_valid(["=", ["fval", "NegInf"], ["fval", "NegInf"]]
                             ).is_valid
        # ... but the value itself is unconstrained
        res = s.check_valid(["=", ["fval", "NegInf"], "0.0"])
        assert res.is_invalid
        # equality compares the active constructor only
        res = s.check_valid(["=>", ["is-NegInf", "x"], ["=", "x", "NegInf"]])
        assert res.is_valid
        res = s.check_valid(["not", ["flt", "x", "NegInf"]], ("x",))
        assert res.is_valid
        res = s.check_valid(["flt", "NegInf", "x"], ("x",))
        assert res.is_invalid and res.model["x"] is NEG_INF


def test_strict_bounds_and_integer_branching():
    with session() as s:
        s.declare_const("x", "Real", REAL_SORT)
        s.declare_const("n", "Int", INT_SORT)
        res = s.check_valid(["not", ["and", [">", "x", "0.0"],
                                     ["<", "x", "(/ 1.0 3.0)"]]], ("x",))
        assert res.is_invalid and 0 < res.model["x"] < Fraction(1, 3)
        assert s.check_valid(["not", ["=", ["*", "2", "n"], "3"]]).is_valid
        assert s.check_valid(["not", ["=", ["*", "2.0", "x"], "3.0"]]
                             ).is_invalid
        res = s.check_valid(["not", ["and", [">", ["*", "3", "n"], "4"],
                                     ["<", ["*", "3", "n"], "8"]]], ("n",))
        assert res.is_invalid and res.model["n"] == 2
    with session() as s:
        # a term over an Int and a Real is not integral: m + y > 0 with
        # m = 0 leaves y in (0, 1)
        s.declare_const("m", "Int", INT_SORT)
        s.declare_const("y", "Real", REAL_SORT)
        res = s.check_valid(["not", ["and", [">", ["+", "m", "y"], "0.0"],
                                     ["<=", "m", "0"], [">=", "m", "0"],
                                     ["<", "y", "1.0"]]], ("m", "y"))
        assert res.is_invalid and 0 < res.model["y"] < 1


def test_outside_the_fragment_is_unknown():
    with session() as s:
        s.declare_const("n", "Int", INT_SORT)
        res = s.check_valid([">=", ["*", "n", "n"], "0"])
        assert res.is_unknown and res.reason == "incomplete"
        # a sum of 16 guarded terms has 2**16 cases
        for i in range(16):
            s.declare(f"(declare-const c{i} Bool)")
            s.declare(f"(declare-const x{i} Int)")
        total = ["+"] + [["ite", f"c{i}", f"x{i}", "0"] for i in range(16)]
        assert s.check_valid([">=", total, "0"]).reason == "incomplete"
        s.declare("(declare-fun p (Int) Bool)")
        s.assert_(["forall", [["k", "Int"]], ["p", "k"]])
        assert s.check_sat() == "unknown"
        assert "quantified" in s.reason_unknown()


def test_timeout_is_unknown_with_reason_timeout():
    """Pigeonhole: 9 pigeons in 8 holes is far beyond 50 ms of search."""
    with session(timeout_ms=50) as s:
        p = [[f"p{i}_{j}" for j in range(8)] for i in range(9)]
        for row in p:
            for name in row:
                s.declare(f"(declare-const {name} Bool)")
        clauses = [["or"] + row for row in p]
        for j in range(8):
            for a, b in itertools.combinations(range(9), 2):
                clauses.append(["not", ["and", p[a][j], p[b][j]]])
        res = s.check_valid(["not", ["and"] + clauses])
        assert res.is_unknown and res.reason == "timeout"


def test_a_model_that_fails_the_query_is_never_returned(monkeypatch):
    with session() as s:
        s.declare_const("x", "Real", REAL_SORT)
        query = ["=>", [">", "x", "2.0"], [">", "x", "3.0"]]
        assert s.check_valid(query, ("x",)).is_invalid
        monkeypatch.setattr(builtin._Simplex, "values",
                            lambda self: [Fraction(0)] * len(self.beta))
        res = s.check_valid(query, ("x",))
        assert res.is_unknown and res.model is None


def test_push_pop_scopes_declarations_and_assertions():
    with session() as s:
        s.declare_const("x", "Int", INT_SORT)
        s.push()
        s.declare("(declare-const y Int)")
        s.assert_(["<", "x", "y"])
        s.assert_(["<", "y", "x"])
        assert s.check_sat() == "unsat"
        s.pop()
        assert s.check_sat() == "sat"
        with pytest.raises(SolverError):
            s.check_valid([">", "y", "0"])


def test_redeclaring_a_sort_or_constructor_is_an_error():
    with session() as s:
        s.declare("(declare-datatypes ((P 0)) (((MkP (p0 Int)))))")
        for text in ["(declare-datatypes ((P 0)) (((MkQ (q0 Int)))))",
                     "(declare-datatypes ((Q 0)) (((MkP (q0 Int)))))"]:
            with pytest.raises(SolverError, match="already declared"):
                s.declare(text)


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    op = rng.choice(["and", "or", "not", "ite", "=>"])
    if op == "not":
        return ["not", _random_formula(rng, atoms, depth - 1)]
    if op == "ite":
        return ["ite"] + [_random_formula(rng, atoms, depth - 1)
                          for _ in range(3)]
    return [op] + [_random_formula(rng, atoms, depth - 1) for _ in range(2)]


def _eval(sx, env):
    if isinstance(sx, str):
        return env[sx] if sx in env else Fraction(sx)
    op = sx[0]
    if op == "ite":
        return _eval(sx[2] if _eval(sx[1], env) else sx[3], env)
    vals = [_eval(a, env) for a in sx[1:]]
    if op == "-":
        return -vals[0] if len(vals) == 1 else vals[0] - vals[1]
    if op == "+":
        return vals[0] + vals[1]
    if op == "*":
        return vals[0] * vals[1]
    return {
        "and": lambda: all(vals), "or": lambda: any(vals),
        "not": lambda: not vals[0], "=>": lambda: not vals[0] or vals[1],
        "<=": lambda: vals[0] <= vals[1], "<": lambda: vals[0] < vals[1],
        "=": lambda: vals[0] == vals[1], ">=": lambda: vals[0] >= vals[1],
    }[op]()


def _num(k, real):
    text = f"{abs(k)}.0" if real else str(abs(k))
    return ["-", text] if k < 0 else text


@pytest.mark.parametrize("sort", ["Int", "Real"])
def test_random_linear_formulas_agree_with_brute_force(sort):
    """Bounded Int formulas are checked against every point of the box;
    order constraints over Reals with constants in [-1, 1] are satisfiable
    iff they are on the quarter grid of [-2, 2]."""
    real = sort == "Real"
    rng = random.Random(8 if real else 7)
    if real:
        box = "true"
        grid = [Fraction(k, 4) for k in range(-8, 9)]
    else:
        box = ["and", ["<=", _num(-3, False), "x"], ["<=", "x", "3"],
               ["<=", _num(-3, False), "y"], ["<=", "y", "3"]]
        grid = [Fraction(k) for k in range(-3, 4)]
    with session() as s:
        s.declare_const("x", sort, REAL_SORT if real else INT_SORT)
        s.declare_const("y", sort, REAL_SORT if real else INT_SORT)
        for _ in range(120):
            atoms = []
            for _ in range(4):
                op = rng.choice(["<=", "<", "=", ">="])
                if real:
                    terms = ["x", "y"] + [_num(k, True) for k in (-1, 0, 1)]
                    lhs, rhs = rng.sample(terms, 2)
                else:
                    lhs = ["+", ["*", _num(rng.randint(-2, 2), False), "x"],
                           ["*", _num(rng.randint(-2, 2), False), "y"]]
                    rhs = _num(rng.randint(-3, 3), False)
                atoms.append([op, lhs, rhs])
            query = ["and", box] + [_random_formula(rng, atoms, 2)
                                    for _ in range(3)]
            expected = any(_eval(query, {"x": a, "y": b, "true": True})
                           for a in grid for b in grid)
            res = s.check_valid(["not", query], ("x", "y"))
            assert res.is_invalid == expected, query
            if res.is_invalid:
                model = {"x": Fraction(res.model["x"]),
                         "y": Fraction(res.model["y"]), "true": True}
                assert _eval(query, model), (query, res.model)


def _random_term(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(names + [_num(rng.randint(-3, 3), False)])
    if roll < 0.55:
        return ["ite", _random_comparisons(rng, names, depth - 1),
                _random_term(rng, names, depth - 1),
                _random_term(rng, names, depth - 1)]
    if roll < 0.8:
        return [rng.choice(["+", "-"]), _random_term(rng, names, depth - 1),
                _random_term(rng, names, depth - 1)]
    return ["*", _num(rng.randint(-2, 2), False),
            _random_term(rng, names, depth - 1)]


def _random_comparisons(rng, names, depth):
    op = rng.choice(["<=", "<", "=", ">="])
    lhs, rhs = (_random_term(rng, names, max(depth - 1, 0)) for _ in "lr")
    return [op, lhs, rhs]


def test_random_int_formulas_with_ite_terms_agree_with_brute_force():
    """Guarded arithmetic terms (ite inside sums and products) over three
    bounded Int variables; the pivots of such systems divide by
    coefficients other than one."""
    rng = random.Random(11)
    names = ["x", "y", "z"]
    box = ["and"] + [["and", ["<=", _num(-2, False), v], ["<=", v, "2"]]
                     for v in names]
    points = list(itertools.product(range(-2, 3), repeat=3))
    with session() as s:
        for v in names:
            s.declare_const(v, "Int", INT_SORT)
        for _ in range(150):
            atoms = [_random_comparisons(rng, names, 3) for _ in range(4)]
            query = ["and", box] + [_random_formula(rng, atoms, 2)
                                    for _ in range(2)]
            expected = any(
                _eval(query, dict(zip(names, map(Fraction, p))))
                for p in points)
            res = s.check_valid(["not", query], tuple(names))
            assert res.is_invalid == expected, query
            if res.is_invalid:
                model = {v: Fraction(res.model[v]) for v in names}
                assert _eval(query, model), (query, res.model)
