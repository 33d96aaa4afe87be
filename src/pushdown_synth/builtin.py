"""Built-in SMT backend for the quantifier-free fragment the engine emits.

It reads the same SMT-LIB s-expressions as the subprocess backend and needs
nothing outside the standard library. A check runs in three steps:

1. Elaboration. ``define-fun`` and ``let`` are expanded, and every term is
   flattened: a datatype value becomes one tester literal per constructor
   plus the constructor fields, an Int/Real term becomes a list of
   (guard, linear expression) pairs, and a Bool term becomes a literal of
   hash-consed AND gates. Ground subterms fold to constants on the way, so
   a formula without free constants is decided by evaluation alone. An
   asserted equation ``c = t`` on a constant c is solved by substitution.
2. Lazy DPLL(T) (Nieuwenhuis, Oliveras & Tinelli, JACM 2006): CDCL over the
   polarity-aware Tseitin clauses of the asserted cone, with every
   arithmetic literal passed as a bound to a simplex over exact rationals
   with strict bounds (Dutertre & de Moura, CAV 2006). Int variables get
   branch-and-bound.
3. Model check. A satisfying assignment is decoded into values, and the
   asserted s-expressions are evaluated on those values by a separate
   evaluator; a model that does not satisfy them makes the answer
   ``unknown`` instead of ``sat``.

Selectors applied to the wrong constructor follow SMT-LIB: ``fval NegInf``
is one arbitrary but fixed value per selector. Each datatype value keeps the
fields of its inactive constructors equal to those fixed values, so
selection is a projection and equality compares the active fields only.

Outside the fragment (nonlinear terms, quantifiers, uninterpreted
functions, free constants of recursive datatypes) the answer is
``unknown`` with reason ``incomplete``.
"""

from __future__ import annotations

import heapq
import time
from fractions import Fraction
from math import floor, gcd, lcm

from .smt import BUILTIN, Session, SolverError, parse_sexp, sexp_str

TRUE, FALSE = 1, -1
MAX_INT_BRANCHES = 500
MAX_CASES = 4096  # guarded cases of one arithmetic operation


class Incomplete(Exception):
    """The query leaves the fragment this backend decides."""


class _Timeout(Exception):
    pass


# ---------------------------------------------------------------------------
# sorts


class _Sort:
    __slots__ = ("name", "kind", "ctors", "recursive")

    def __init__(self, name, kind, ctors=()):
        self.name = name
        self.kind = kind  # bool int real dt
        self.ctors = list(ctors)  # [(ctor, [(selector, sort name)])]
        self.recursive = False


BOOL = _Sort("Bool", "bool")
INT = _Sort("Int", "int")
REAL = _Sort("Real", "real")


class _Opaque:
    """An arbitrary value of a recursive datatype: usable only by identity."""

    def __repr__(self):
        return "<opaque>"


# ---------------------------------------------------------------------------
# Boolean structure and arithmetic atoms


class _Logic:
    """Literals are signed variable ids; variable 1 is the constant true.
    AND gates are hash-consed; atoms are ``term <= k`` or ``term < k`` over a
    canonical linear term."""

    def __init__(self):
        self.defs = [None, None]  # var -> children of its AND gate
        self.gates = {}
        self.atoms = {}  # var -> (term, k, strict)
        self.atom_vars = {}
        self.axiom = {}  # var -> literal that holds wherever var occurs
        self.int_var = []  # arithmetic var -> is Int

    def new_var(self):
        self.defs.append(None)
        return len(self.defs) - 1

    def new_avar(self, is_int):
        self.int_var.append(is_int)
        return len(self.int_var) - 1

    def and_(self, lits):
        s = set()
        for lit in lits:
            if lit == TRUE:
                continue
            if lit == FALSE or -lit in s:
                return FALSE
            s.add(lit)
        if not s:
            return TRUE
        if len(s) == 1:
            return s.pop()
        key = tuple(sorted(s))
        v = self.gates.get(key)
        if v is None:
            v = self.new_var()
            self.defs[v] = key
            self.gates[key] = v
        return v

    def or_(self, lits):
        return -self.and_([-lit for lit in lits])

    def ite(self, c, a, b):
        if c == TRUE or a == b:
            return a
        if c == FALSE:
            return b
        return self.or_([self.and_([c, a]), self.and_([-c, b])])

    def iff(self, a, b):
        return self.ite(a, b, -b)

    # -- atoms

    def le(self, lin, strict):
        """Literal for ``lin < 0`` (strict) or ``lin <= 0``."""
        c, terms = lin
        if not terms:
            return TRUE if (c < 0 or (c == 0 and not strict)) else FALSE
        lead = terms[0][1]
        if lead < 0:  # dividing flips the relation: t >= k is not (t < k)
            return -self._bound(terms, -c, lead, not strict)
        return self._bound(terms, -c, lead, strict)

    def _bound(self, terms, rhs, lead, strict):
        t = tuple((v, Fraction(a) / lead) for v, a in terms)
        k = Fraction(rhs) / lead
        if all(self.int_var[v] for v, _ in t):
            m = 1
            for _, a in t:
                m = lcm(m, a.denominator)
            g = 0
            for _, a in t:
                g = gcd(g, int(a * m))
            s = Fraction(m, g)
            t = tuple((v, int(a * s)) for v, a in t)
            k = k * s
            k = (-((-k.numerator) // k.denominator) - 1) if strict else \
                k.numerator // k.denominator
            strict = False
        key = (t, k, strict)
        v = self.atom_vars.get(key)
        if v is None:
            v = self.new_var()
            self.atom_vars[key] = v
            self.atoms[v] = key
        return v


def _lin_add(x, y, k=1):
    c = x[0] + k * y[0]
    if not y[1]:
        return (c, x[1])
    d = dict(x[1])
    for v, a in y[1]:
        n = d.get(v, 0) + k * a
        if n:
            d[v] = n
        else:
            del d[v]
    return (c, tuple(sorted(d.items())))


def _lin_scale(x, k):
    if k == 0:
        return (0, ())
    return (x[0] * k, tuple((v, a * k) for v, a in x[1]))


# ---------------------------------------------------------------------------
# elaboration


class _Elaborator:
    """Declarations of one session and the flattening of its terms.

    Representations: Bool -> literal; Int/Real -> tuple of (guard literal,
    linear expression) pairs with exactly one guard true; datatype ->
    (tester literals, per-constructor field tuples)."""

    def __init__(self):
        self.L = _Logic()
        self.sorts = {"Bool": BOOL, "Int": INT, "Real": REAL}
        self.ctors = {}  # ctor -> (sort, index)
        self.sels = {}  # selector -> (sort, ctor index, field index)
        self.testers = {}  # is-ctor -> (sort, index)
        self.macros = {}  # name -> (param names, return sort, body)
        self.funs = set()  # uninterpreted functions
        self.consts = {}  # name -> sort
        self.macro_consts = set()  # constants named inside macro bodies
        self.reps = {}  # constant -> representation
        self.arb = {}  # (sort, ctor index, field index) -> representation
        self.cache = {}
        self.parsed = {}
        self.over = None  # constant -> representation, overriding reps

    # -- declarations

    def declare(self, cmd):
        head = cmd[0]
        if head == "declare-datatypes":
            group = [
                _Sort(name, "dt", [
                    (c[0], [(f[0], f[1]) for f in c[1:]]) for c in ctors
                ])
                for (name, _), ctors in zip(cmd[1], cmd[2])
            ]
            taken = [s.name for s in group if s.name in self.sorts] + [
                c for s in group for c, _ in s.ctors if c in self.ctors
            ]
            if taken:
                raise SolverError(f"already declared: {' '.join(taken)}")
            names = {s.name for s in group}
            for sort in group:
                self.sorts[sort.name] = sort
                sort.recursive = any(
                    f in names for _, fields in sort.ctors for _, f in fields
                )
                for i, (ctor, fields) in enumerate(sort.ctors):
                    self.ctors[ctor] = (sort, i)
                    self.testers["is-" + ctor] = (sort, i)
                    for j, (sel, _) in enumerate(fields):
                        self.sels[sel] = (sort, i, j)
        elif head == "define-fun":
            name, params, ret, body = cmd[1], cmd[2], cmd[3], cmd[4]
            self.macros[name] = ([p[0] for p in params], self.sort(ret), body)
            self.macro_consts |= self.symbols(body) - {p[0] for p in params}
        elif head == "declare-const":
            self.consts[cmd[1]] = self.sort(cmd[2])
        elif head == "declare-fun":
            if cmd[2]:
                self.funs.add(cmd[1])
            else:
                self.consts[cmd[1]] = self.sort(cmd[3])
        else:
            raise SolverError(f"unsupported command {sexp_str(cmd)!r}")

    def forget(self, name):
        self.consts.pop(name, None)
        self.reps.pop(name, None)
        self.funs.discard(name)

    def sort(self, sx):
        if isinstance(sx, list) or sx not in self.sorts:
            raise SolverError(f"unknown sort {sexp_str(sx)!r}")
        return self.sorts[sx]

    def symbols(self, sx, out=None):
        out = set() if out is None else out
        if isinstance(sx, str):
            if sx in self.consts:
                out.add(sx)
            elif sx.startswith("("):
                self.symbols(self._parse(sx), out)
        else:
            for x in sx:
                self.symbols(x, out)
        return out

    def _parse(self, text):
        sx = self.parsed.get(text)
        if sx is None:
            sx = self.parsed[text] = parse_sexp(text)[0]
        return sx

    # -- fresh values

    def fresh(self, sort):
        L = self.L
        if sort.kind == "bool":
            return L.new_var()
        if sort.kind in ("int", "real"):
            return ((TRUE, (0, ((L.new_avar(sort.kind == "int"), 1),))),)
        if sort.recursive:
            raise Incomplete("free constant of a recursive datatype")
        n = len(sort.ctors)
        if n == 1:
            bits = (TRUE,)
        elif n == 2:
            b = L.new_var()
            bits = (b, -b)
        else:
            bits = tuple(L.new_var() for _ in range(n))
        fields = tuple(
            tuple(self.fresh(self.sorts[f]) for _, f in fs)
            for _, fs in sort.ctors
        )
        rep = (bits, fields)
        # exactly one constructor; inactive fields equal the fixed values
        axiom = []
        if n > 2:
            axiom.append(L.or_(bits))
            axiom += [L.or_([-bits[i], -bits[j]])
                      for i in range(n) for j in range(i + 1, n)]
        for i, (_, fs) in enumerate(sort.ctors):
            for j, (_, f) in enumerate(fs):
                axiom.append(L.or_([bits[i], self.eq(
                    self.sorts[f], fields[i][j], self.arbitrary(sort, i, j))]))
        lit = L.and_(axiom)
        if lit != TRUE:
            for b in bits:
                if b != TRUE:
                    L.axiom[abs(b)] = lit
        return rep

    def arbitrary(self, sort, i, j):
        """The fixed value of selector j of constructor i on the others."""
        key = (sort.name, i, j)
        rep = self.arb.get(key)
        if rep is None:
            fsort = self.sorts[sort.ctors[i][1][j][1]]
            rep = _Opaque() if fsort.recursive else self.fresh(fsort)
            self.arb[key] = rep
        return rep

    def const(self, name):
        if self.over is not None and name in self.over:
            return self.over[name]
        rep = self.reps.get(name)
        if rep is None:
            rep = self.reps[name] = self.fresh(self.consts[name])
        return rep

    # -- generic operations by sort

    @staticmethod
    def _dt(rep):
        if isinstance(rep, _Opaque):
            raise Incomplete("arbitrary value of a recursive datatype")
        return rep

    def construct(self, sort, i, args):
        n = len(sort.ctors)
        bits = tuple(TRUE if k == i else FALSE for k in range(n))
        fields = tuple(
            tuple(args) if k == i else tuple(
                self.arbitrary(sort, k, j) for j in range(len(fs)))
            for k, (_, fs) in enumerate(sort.ctors)
        )
        return (bits, fields)

    def eq(self, sort, x, y):
        L = self.L
        if x is y:
            return TRUE
        kind = sort.kind
        if kind == "bool":
            return L.iff(x, y)
        if kind != "dt":
            return self.compare(x, y, "=")
        (bx, fx), (by, fy) = self._dt(x), self._dt(y)
        out = []
        for i, (_, fs) in enumerate(sort.ctors):
            g = L.and_([bx[i], by[i]])
            if g == FALSE:
                continue
            parts = [g]
            for j, (_, f) in enumerate(fs):
                parts.append(self.eq(self.sorts[f], fx[i][j], fy[i][j]))
            out.append(L.and_(parts))
        return L.or_(out)

    def ite(self, sort, c, x, y):
        L = self.L
        if c == TRUE or x is y:
            return x
        if c == FALSE:
            return y
        kind = sort.kind
        if kind == "bool":
            return L.ite(c, x, y)
        if kind != "dt":
            return self._merge([(L.and_([c, g]), lin) for g, lin in x]
                               + [(L.and_([-c, g]), lin) for g, lin in y])
        (bx, fx), (by, fy) = self._dt(x), self._dt(y)
        bits = tuple(L.ite(c, a, b) for a, b in zip(bx, by))
        fields = tuple(
            tuple(self.ite(self.sorts[f], c, fx[i][j], fy[i][j])
                  for j, (_, f) in enumerate(fs))
            for i, (_, fs) in enumerate(sort.ctors)
        )
        return (bits, fields)

    def _merge(self, pairs):
        groups = {}
        for g, lin in pairs:
            if g != FALSE:
                groups.setdefault(lin, []).append(g)
        return tuple((self.L.or_(gs), lin) for lin, gs in groups.items())

    @staticmethod
    def _cases(x, y):
        """Pairs of guarded cases; their number multiplies at every step."""
        if len(x) * len(y) > MAX_CASES:
            raise Incomplete(f"arithmetic term with over {MAX_CASES} cases")
        return ((a, b) for a in x for b in y)

    def _arith2(self, x, y, fn):
        L = self.L
        pairs = []
        for (g1, l1), (g2, l2) in self._cases(x, y):
            g = L.and_([g1, g2])
            if g != FALSE:
                pairs.append((g, fn(l1, l2)))
        return self._merge(pairs)

    def compare(self, x, y, op):
        L = self.L
        out = []
        for (g1, l1), (g2, l2) in self._cases(x, y):
            g = L.and_([g1, g2])
            if g == FALSE:
                continue
            d = _lin_add(l1, l2, -1)
            if op == "<=":
                a = L.le(d, False)
            elif op == "<":
                a = L.le(d, True)
            elif op == ">=":
                a = -L.le(d, True)
            elif op == ">":
                a = -L.le(d, False)
            else:
                a = L.and_([L.le(d, False), -L.le(d, True)])
            out.append(L.and_([g, a]))
        return L.or_(out)

    @staticmethod
    def _mul(l1, l2):
        if not l1[1]:
            return _lin_scale(l2, l1[0])
        if not l2[1]:
            return _lin_scale(l1, l2[0])
        raise Incomplete("nonlinear arithmetic")

    @staticmethod
    def _div(l1, l2):
        if l2[1]:
            raise Incomplete("nonlinear arithmetic")
        if l2[0] == 0:
            raise Incomplete("division by zero")
        return _lin_scale(l1, Fraction(1) / Fraction(l2[0]))

    # -- terms

    def bool_(self, sx, env):
        sort, rep = self.term(sx, env)
        if sort is not BOOL:
            raise SolverError(f"expected a Bool term: {sexp_str(sx)!r}")
        return rep

    def term(self, sx, env):
        """(sort, representation) of an s-expression under a let/param env."""
        if isinstance(sx, str):
            return self._atom(sx, env)
        head = sx[0]
        if isinstance(head, list):
            if len(head) == 3 and head[0] == "_" and head[1] == "is":
                sort, i = self.ctors[head[2]]
                return BOOL, self._dt(self.term(sx[1], env)[1])[0][i]
            raise SolverError(f"unsupported application {sexp_str(sx)!r}")
        L = self.L
        if head == "and" or head == "or":
            sign = 1 if head == "and" else -1
            lits = []
            for a in sx[1:]:
                lit = sign * self.bool_(a, env)
                if lit == FALSE:
                    return BOOL, FALSE * sign
                lits.append(lit)
            return BOOL, sign * L.and_(lits)
        if head == "not":
            return BOOL, -self.bool_(sx[1], env)
        if head == "=>":
            lits = []
            for a in sx[1:-1]:
                lit = self.bool_(a, env)
                if lit == FALSE:
                    return BOOL, TRUE
                lits.append(lit)
            lits.append(-self.bool_(sx[-1], env))
            return BOOL, -L.and_(lits)
        if head == "ite":
            c = self.bool_(sx[1], env)
            if c == TRUE:
                return self.term(sx[2], env)
            if c == FALSE:
                return self.term(sx[3], env)
            sort, x = self.term(sx[2], env)
            sort2, y = self.term(sx[3], env)
            if sort.kind in ("int", "real"):
                sort = REAL if REAL in (sort, sort2) else INT
            return sort, self.ite(sort, c, x, y)
        if head == "let":
            inner = dict(env)
            for name, value in sx[1]:
                inner[name] = self.term(value, env)
            return self.term(sx[2], inner)
        if head == "=":
            args = [self.term(a, env) for a in sx[1:]]
            sort = args[0][0]
            return BOOL, L.and_([
                self.eq(sort, a[1], b[1]) for a, b in zip(args, args[1:])
            ])
        if head in ("<=", "<", ">=", ">"):
            args = [self.term(a, env)[1] for a in sx[1:]]
            return BOOL, L.and_([
                self.compare(a, b, head) for a, b in zip(args, args[1:])
            ])
        if head in ("+", "-", "*", "/"):
            args = [self.term(a, env) for a in sx[1:]]
            sort = REAL if head == "/" or any(s is REAL for s, _ in args) \
                else INT
            out = args[0][1]
            if head == "-" and len(args) == 1:
                return sort, tuple((g, _lin_scale(l, -1)) for g, l in out)
            fn = {
                "+": _lin_add,
                "-": lambda a, b: _lin_add(a, b, -1),
                "*": self._mul,
                "/": self._div,
            }[head]
            for _, rep in args[1:]:
                out = self._arith2(out, rep, fn)
            return sort, out
        if head == "to_real":
            return REAL, self.term(sx[1], env)[1]
        if head == "as":
            return self._atom(sx[1], env)
        if head in ("forall", "exists"):
            raise Incomplete("quantified formula (the builtin backend "
                             "decides quantifier-free formulas only)")
        if head in self.macros:
            return self._apply(head, [self.term(a, env) for a in sx[1:]])
        if head in self.ctors:
            sort, i = self.ctors[head]
            return sort, self.construct(
                sort, i, [self.term(a, env)[1] for a in sx[1:]])
        if head in self.sels:
            sort, i, j = self.sels[head]
            fsort = self.sorts[sort.ctors[i][1][j][1]]
            return fsort, self._dt(self.term(sx[1], env)[1])[1][i][j]
        if head in self.testers:
            sort, i = self.testers[head]
            return BOOL, self._dt(self.term(sx[1], env)[1])[0][i]
        if head in self.funs:
            raise Incomplete(f"uninterpreted function {head}")
        raise Incomplete(f"unsupported operator {head}")

    def _atom(self, sx, env):
        if sx in env:
            return env[sx]
        if sx in self.consts:
            return self.consts[sx], self.const(sx)
        if sx[0].isdigit():
            if "." in sx:
                return REAL, ((TRUE, (Fraction(sx), ())),)
            return INT, ((TRUE, (int(sx), ())),)
        if sx == "true":
            return BOOL, TRUE
        if sx == "false":
            return BOOL, FALSE
        if sx in self.ctors:
            sort, i = self.ctors[sx]
            return sort, self.construct(sort, i, ())
        if sx in self.macros:
            return self._apply(sx, [])
        if sx.startswith("("):
            return self.term(self._parse(sx), env)
        raise SolverError(f"unknown symbol {sx!r}")

    def _apply(self, name, args):
        # keyed by the identity of the arguments, which the entry keeps alive
        key = (name,) + tuple(id(rep) for _, rep in args)
        hit = self.cache.get(key)
        if hit is None:
            params, ret, body = self.macros[name]
            env = {p: a for p, a in zip(params, args)}
            hit = self.cache[key] = (ret, self.term(body, env)[1], args)
        return hit[0], hit[1]


def _conjuncts(sx, out):
    """Top-level conjuncts of an asserted formula."""
    if isinstance(sx, list) and sx:
        if sx[0] == "and":
            for a in sx[1:]:
                _conjuncts(a, out)
            return out
        if sx[0] == "not" and isinstance(sx[1], list) and sx[1]:
            inner = sx[1]
            if inner[0] == "=>" and len(inner) == 3:
                _conjuncts(inner[1], out)
                _conjuncts(["not", inner[2]], out)
                return out
            if inner[0] == "or":
                for a in inner[1:]:
                    _conjuncts(["not", a], out)
                return out
            if inner[0] == "not":
                return _conjuncts(inner[1], out)
    out.append(sx)
    return out


# ---------------------------------------------------------------------------
# simplex over delta-rationals (value, coefficient of delta) as 2-tuples


class _Simplex:
    def __init__(self, nvars, rows):
        self.rows = rows  # basic var -> {nonbasic var: coefficient}
        self.beta = [(0, 0)] * nvars
        self.lo = [None] * nvars
        self.hi = [None] * nvars
        self.lo_r = [0] * nvars
        self.hi_r = [0] * nvars
        self.trail = []

    def undo(self, mark):
        trail = self.trail
        while len(trail) > mark:
            x, upper, bound, reason = trail.pop()
            if upper:
                self.hi[x], self.hi_r[x] = bound, reason
            else:
                self.lo[x], self.lo_r[x] = bound, reason

    def _update(self, x, v):
        old = self.beta[x]
        d0, d1 = v[0] - old[0], v[1] - old[1]
        beta = self.beta
        for b, row in self.rows.items():
            a = row.get(x)
            if a is not None:
                bb = beta[b]
                beta[b] = (bb[0] + a * d0, bb[1] + a * d1)
        beta[x] = v

    def assert_upper(self, x, c, lit):
        hi = self.hi[x]
        if hi is not None and hi <= c:
            return None
        lo = self.lo[x]
        if lo is not None and c < lo:
            return [lit, self.lo_r[x]]
        self.trail.append((x, True, hi, self.hi_r[x]))
        self.hi[x], self.hi_r[x] = c, lit
        if x not in self.rows and self.beta[x] > c:
            self._update(x, c)
        return None

    def assert_lower(self, x, c, lit):
        lo = self.lo[x]
        if lo is not None and lo >= c:
            return None
        hi = self.hi[x]
        if hi is not None and c > hi:
            return [lit, self.hi_r[x]]
        self.trail.append((x, False, lo, self.lo_r[x]))
        self.lo[x], self.lo_r[x] = c, lit
        if x not in self.rows and self.beta[x] < c:
            self._update(x, c)
        return None

    def check(self):
        """None if the bounds are feasible, else the conflicting reasons."""
        rows, beta, lo, hi = self.rows, self.beta, self.lo, self.hi
        while True:
            bad = None
            for b in rows:
                v = beta[b]
                if (lo[b] is not None and v < lo[b]) or \
                        (hi[b] is not None and v > hi[b]):
                    if bad is None or b < bad:
                        bad = b
            if bad is None:
                return None
            row = rows[bad]
            increase = lo[bad] is not None and beta[bad] < lo[bad]
            pick = None
            for x, a in row.items():
                up = (a > 0) == increase
                if up:
                    ok = hi[x] is None or beta[x] < hi[x]
                else:
                    ok = lo[x] is None or beta[x] > lo[x]
                if ok and (pick is None or x < pick):
                    pick = x
            if pick is None:
                if increase:
                    return [self.lo_r[bad]] + [
                        self.hi_r[x] if a > 0 else self.lo_r[x]
                        for x, a in row.items()]
                return [self.hi_r[bad]] + [
                    self.lo_r[x] if a > 0 else self.hi_r[x]
                    for x, a in row.items()]
            self._pivot_update(bad, pick, lo[bad] if increase else hi[bad])

    def _pivot_update(self, b, x, v):
        rows, beta = self.rows, self.beta
        row = rows.pop(b)
        a = Fraction(row.pop(x))  # exact: int / int would give a float
        old = beta[b]
        t0, t1 = (v[0] - old[0]) / a, (v[1] - old[1]) / a
        beta[b] = v
        bx = beta[x]
        beta[x] = (bx[0] + t0, bx[1] + t1)
        for r, other in rows.items():
            c = other.get(x)
            if c is not None:
                br = beta[r]
                beta[r] = (br[0] + c * t0, br[1] + c * t1)
        # x = (b - sum row) / a
        new = {b: 1 / a}
        for y, c in row.items():
            new[y] = -c / a
        for other in rows.values():
            c = other.pop(x, None)
            if c is None:
                continue
            for y, d in new.items():
                n = other.get(y, 0) + c * d
                if n:
                    other[y] = n
                else:
                    other.pop(y, None)
        rows[x] = new

    def values(self):
        """Concrete rationals: delta is made small enough for every bound."""
        delta = Fraction(1)
        for x, (va, vb) in enumerate(self.beta):
            for bound, below in ((self.lo[x], True), (self.hi[x], False)):
                if bound is None:
                    continue
                ba, bb = bound
                if below and bb > vb:
                    delta = min(delta, Fraction(va - ba) / (bb - vb))
                elif not below and bb < vb:
                    delta = min(delta, Fraction(ba - va) / (vb - bb))
        return [Fraction(va) + vb * delta for va, vb in self.beta]


# ---------------------------------------------------------------------------
# CDCL with the simplex as theory


class _Search:
    def __init__(self, nvars, inputs, clauses, theory, simplex, int_vars,
                 new_atom, deadline):
        self.n = nvars
        self.val = [0] * (nvars + 1)
        self.level = [0] * (nvars + 1)
        self.reason = [None] * (nvars + 1)
        self.watches = [[] for _ in range(2 * nvars + 2)]
        self.act = [0.0] * (nvars + 1)
        self.phase = [-1] * (nvars + 1)
        self.seen = [False] * (nvars + 1)
        self.inc = 1.0
        # only inputs are decided: once they are all assigned without a
        # conflict, the polarity clauses guarantee every root holds
        self.input = inputs
        self.heap = [(0.0, v) for v in range(1, nvars + 1) if inputs[v]]
        self.trail = []
        self.lim = []
        self.qhead = 0
        self.theory = theory  # local var -> (simplex var, upper, lower)
        self.simplex = simplex
        self.th_head = 0
        self.th_marks = []  # (trail position, simplex trail length)
        self.dirty = False  # bounds changed since the last feasible check
        self.int_vars = int_vars  # simplex vars that must be integral
        self.new_atom = new_atom  # (simplex var, k) -> (theory entry)
        self.deadline = deadline
        self.branches = 0
        self.unsat = False
        # clauses come duplicate-free; false watches are revisited when the
        # level-0 units propagate
        watches, val = self.watches, self.val
        for c in clauses:
            if len(c) > 1:
                for lit in c[:2]:
                    watches[2 * lit if lit > 0 else -2 * lit + 1].append(c)
                continue
            lit = c[0]
            v = val[lit] if lit > 0 else -val[-lit]
            if v == -1:
                self.unsat = True
            elif v == 0:
                self._enqueue(lit, None)

    @staticmethod
    def _wi(lit):
        return 2 * lit if lit > 0 else -2 * lit + 1

    def _enqueue(self, lit, reason):
        v = abs(lit)
        self.val[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        trail, val, watches = self.trail, self.val, self.watches
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            fl = -p
            wi = 2 * fl if fl > 0 else -2 * fl + 1
            ws = watches[wi]
            keep = []
            i, n = 0, len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == fl:
                    c[0], c[1] = c[1], fl
                first = c[0]
                fv = val[first] if first > 0 else -val[-first]
                if fv == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if (val[lk] if lk > 0 else -val[-lk]) != -1:
                        c[1], c[k] = lk, fl
                        watches[2 * lk if lk > 0 else -2 * lk + 1].append(c)
                        break
                else:
                    keep.append(c)
                    if fv == -1:
                        keep.extend(ws[i:])
                        watches[wi] = keep
                        self.qhead = len(trail)
                        return c
                    self._enqueue(first, c)
            watches[wi] = keep
        return None

    def _theory_check(self):
        trail, theory, sx = self.trail, self.theory, self.simplex
        while self.th_head < len(trail):
            lit = trail[self.th_head]
            self.th_head += 1
            entry = theory.get(abs(lit))
            if entry is None:
                continue
            self.th_marks.append((self.th_head - 1, len(sx.trail)))
            x, upper, lower = entry
            if lit > 0:
                confl = sx.assert_upper(x, upper, lit)
            else:
                confl = sx.assert_lower(x, lower, lit)
            if confl is not None:
                return confl
            self.dirty = True
        if not self.dirty:
            return None
        confl = sx.check()
        self.dirty = confl is not None
        return confl

    def _backtrack(self, lvl):
        if len(self.lim) <= lvl:
            return
        pos = self.lim[lvl]
        val, heap, act, phase = self.val, self.heap, self.act, self.phase
        inputs = self.input
        for lit in self.trail[pos:]:
            v = abs(lit)
            phase[v] = val[v]
            val[v] = 0
            self.reason[v] = None
            if inputs[v]:
                heapq.heappush(heap, (-act[v], v))
        del self.trail[pos:]
        del self.lim[lvl:]
        self.qhead = pos
        marks = self.th_marks
        if marks and marks[-1][0] >= pos:
            mark = None
            while marks and marks[-1][0] >= pos:
                mark = marks.pop()[1]
            self.simplex.undo(mark)
            self.dirty = True
        self.th_head = min(self.th_head, pos)

    def _bump(self, v):
        self.act[v] += self.inc
        if self.act[v] > 1e100:
            self.act = [a * 1e-100 for a in self.act]
            self.inc *= 1e-100
            self.heap = [(-self.act[u], u) for u in range(1, self.n + 1)
                         if self.val[u] == 0 and self.input[u]]
            heapq.heapify(self.heap)
        elif self.val[v] == 0 and self.input[v]:
            heapq.heappush(self.heap, (-self.act[v], v))

    def _analyze(self, confl):
        seen, level, trail = self.seen, self.level, self.trail
        cur = len(self.lim)
        learnt = [0]
        counter = 0
        idx = len(trail) - 1
        p = 0
        clause = confl
        while True:
            for q in clause:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[abs(p)]
        learnt[0] = -p
        for q in learnt[1:]:
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        best = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _add_var(self):
        self.n += 1
        for arr, init in ((self.val, 0), (self.level, 0), (self.reason, None),
                          (self.act, 0.0), (self.phase, -1),
                          (self.seen, False), (self.input, True)):
            arr.append(init)
        self.watches += [[], []]
        return self.n

    def _branch(self):
        """Split on an Int variable with a fractional value, if any."""
        beta = self.simplex.beta
        for x in self.int_vars:
            a, b = beta[x]
            a = Fraction(a)
            if b == 0 and a.denominator == 1:
                continue
            k = floor(a) if (b >= 0 or a.denominator != 1) else int(a) - 1
            self.branches += 1
            if self.branches > MAX_INT_BRANCHES:
                raise Incomplete("integer branch-and-bound limit")
            v = self._add_var()
            self.theory[v] = self.new_atom(x, k, v)
            self.act[v] = max(self.act) + self.inc
            heapq.heappush(self.heap, (-self.act[v], v))
            return v
        return None

    def solve(self):
        if self.unsat:
            return False
        conflicts = 0
        restart_at = 100
        steps = 0
        while True:
            steps += 1
            if steps & 255 == 0 and time.monotonic() > self.deadline:
                raise _Timeout()
            confl = self._propagate()
            if confl is None:
                tconf = self._theory_check()
                if tconf is not None:
                    confl = list({-lit for lit in tconf})
            if confl is not None:
                conflicts += 1
                top = max(self.level[abs(q)] for q in confl)
                if top == 0:
                    return False
                self._backtrack(top)
                learnt, lvl = self._analyze(confl)
                self._backtrack(lvl)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.watches[self._wi(learnt[0])].append(learnt)
                    self.watches[self._wi(learnt[1])].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.inc /= 0.95
                if conflicts >= restart_at:
                    restart_at += int(restart_at * 1.5)
                    self._backtrack(0)
                continue
            v = 0
            heap, val = self.heap, self.val
            while heap:
                _, u = heapq.heappop(heap)
                if val[u] == 0:
                    v = u
                    break
            if v == 0:
                v = self._branch()
                if v is None:
                    return True
            self.lim.append(len(self.trail))
            self._enqueue(v if self.phase[v] > 0 else -v, None)


# ---------------------------------------------------------------------------
# one satisfiability check


class _Check:
    """Cone of the asserted literals, its clauses, search, and the model."""

    def __init__(self, L, roots, deadline):
        """Clauses by polarity (Plaisted & Greenbaum): a gate gets only the
        half of its definition that its occurrences need, and asserted
        conjunctions are split into their conjuncts."""
        self.L = L
        local, order, clauses = {}, [], []
        todo, req = list(roots), []
        seen_roots, seen_req = set(), set()

        def loc(lit):
            v = abs(lit)
            n = local.get(v)
            if n is None:
                n = local[v] = len(order) + 1
                order.append(v)
                ax = L.axiom.get(v)
                if ax is not None:
                    todo.append(ax)
            return n if lit > 0 else -n

        while todo or req:
            if todo:
                r = todo.pop()
                if r in seen_roots:
                    continue
                seen_roots.add(r)
                d = L.defs[abs(r)]
                if d is None:
                    clauses.append([loc(r)])
                elif r > 0:
                    todo.extend(d)
                else:
                    clauses.append([loc(-c) for c in d])
                    req.extend(-c for c in d)
                continue
            lit = req.pop()
            if lit in seen_req:
                continue
            seen_req.add(lit)
            d = L.defs[abs(lit)]
            if d is None:
                continue
            g = loc(lit)
            if lit > 0:
                clauses.extend([-g, loc(c)] for c in d)
                req.extend(d)
            else:
                clauses.append([-g] + [loc(-c) for c in d])
                req.extend(-c for c in d)
        by_term = {}
        for v in order:
            atom = L.atoms.get(v)
            if atom is not None:
                by_term.setdefault(atom[0], []).append(
                    (atom[1], not atom[2], local[v], v))
        # simplex variables: one per arithmetic var, one slack per wider term
        svar = {}
        rows = {}
        slack = {}
        n = 0
        for term in by_term:
            for av, _ in term:
                if av not in svar:
                    svar[av] = n
                    n += 1
        for term in by_term:
            if len(term) > 1:
                slack[term] = n
                rows[n] = {svar[av]: a for av, a in term}
                n += 1
        theory = {}
        for term, atoms in by_term.items():
            x = slack[term] if len(term) > 1 else svar[term[0][0]]
            atoms.sort()
            for _, _, v, g in atoms:
                theory[v] = self._entry(x, L.atoms[g])
            for (_, _, v1, _), (_, _, v2, _) in zip(atoms, atoms[1:]):
                clauses.append([-v1, v2])
        self.svar = svar
        self.local = local
        self.simplex = _Simplex(n, rows)
        int_vars = [x for av, x in svar.items() if L.int_var[av]]
        gvar = {x: av for av, x in svar.items()}

        def new_atom(x, k, v):
            g = L.le((-k, ((gvar[x], 1),)), False)
            local[g] = v
            return self._entry(x, L.atoms[g])

        inputs = [False] + [L.defs[v] is None for v in order]
        self.search = _Search(len(order), inputs, clauses, theory,
                              self.simplex, int_vars, new_atom, deadline)

    def _entry(self, x, atom):
        """Simplex bounds of an atom's literal: (var, if true, if false)."""
        term, k, strict = atom
        if strict:
            return (x, (k, -1), (k, 0))
        if all(self.L.int_var[v] for v, _ in term):
            return (x, (k, 0), (k + 1, 0))  # Int terms are integral
        return (x, (k, 0), (k, 1))

    def run(self):
        if not self.search.solve():
            return False
        values = self.simplex.values()
        self.avals = {av: values[x] for av, x in self.svar.items()}
        self.memo = {}
        return True

    # -- model evaluation

    def lit(self, lit):
        v = abs(lit)
        val = self._var(v)
        return val if lit > 0 else not val

    def _var(self, v):
        """Gates by definition, atoms by the arithmetic values, and Boolean
        inputs by the search (False where it never saw them)."""
        if v == TRUE:
            return True
        out = self.memo.get(v)
        if out is not None:
            return out
        L = self.L
        if L.defs[v] is not None:
            out = all(self.lit(c) for c in L.defs[v])
        elif v in L.atoms:
            term, k, strict = L.atoms[v]
            s = sum(a * self.avals.get(av, 0) for av, a in term)
            out = s < k if strict else s <= k
        else:
            loc = self.local.get(v)
            out = loc is not None and self.search.val[loc] > 0
        self.memo[v] = out
        return out

    def lin(self, lin):
        c, terms = lin
        return Fraction(c) + sum(
            (a * self.avals.get(av, 0) for av, a in terms), Fraction(0))


# ---------------------------------------------------------------------------
# the session


class BuiltinSession(Session):
    """In-process session over the elaborator and search of this module."""

    backend = BUILTIN

    def __init__(self, config):
        super().__init__(config)
        self._el = _Elaborator()
        self._frames = [[]]  # assertions per push frame
        self._declared = [[]]  # constants and functions per push frame
        self._reason = ""
        self._model = None  # constant -> value tree of the last sat check

    # -- session operations

    def declare(self, text):
        self._write(text if isinstance(text, str) else sexp_str(text))
        cmds = parse_sexp(text) if isinstance(text, str) else [text]
        for cmd in cmds:
            self._el.declare(cmd)
            if cmd[0] in ("declare-const", "declare-fun"):
                self._declared[-1].append(cmd[1])

    def set_option(self, name, value):
        """Solver options tune an external solver's search; none applies."""

    def push(self):
        self._write("(push 1)")
        self._frames.append([])
        self._declared.append([])

    def pop(self):
        self._write("(pop 1)")
        if len(self._frames) == 1:
            raise SolverError("pop without a matching push")
        self._frames.pop()
        for name in self._declared.pop():
            self._el.forget(name)

    def assert_(self, formula):
        self._write(f"(assert {sexp_str(formula)})")
        self._frames[-1].append(formula)

    def check_sat(self) -> str:
        self._write("(check-sat)")
        deadline = time.monotonic() + self.config.timeout_ms / 1000.0
        self._model = None
        try:
            status = self._check([f for frame in self._frames for f in frame],
                                 deadline)
        except Incomplete as exc:
            status, self._reason = "unknown", f"incomplete: {exc}"
        except _Timeout:
            status, self._reason = "unknown", "timeout"
        self._write(f"; -> {status}")
        return status

    def reason_unknown(self) -> str:
        return f'(:reason-unknown "{self._reason}")'

    def _model_sexps(self, names):
        if self._model is None:
            raise SolverError("get-model failed: no model is available")
        sexps, raw = {}, []
        for name in names:
            if name not in self._var_sorts:
                continue
            sort = self._el.consts[name]
            tree = self._model.get(name)
            if tree is None:
                tree = _default_tree(self._el, sort)
            sexps[name] = _value_sexp(self._el, sort, tree)
            raw.append(f"(define-fun {name} () {sort.name} "
                       f"{sexp_str(sexps[name])})")
        text = "(model " + " ".join(raw) + ")"
        self._write(f"; -> {text}")
        return sexps, text

    def close(self):
        self._write("(exit)")
        super().close()

    # -- deciding the asserted formulas

    def _check(self, formulas, deadline):
        el = self._el
        roots, defs = self._roots(formulas)
        if FALSE in roots:
            return "unsat"
        roots = [r for r in roots if r != TRUE]
        check = _Check(el.L, roots, deadline)
        if not check.run():
            return "unsat"
        model = {}
        for name, rep in list(el.reps.items()) + list(defs.items()):
            model[name] = _tree(el, check, el.consts[name], rep)
        arb = {key: _tree(el, check, el.sorts[el.sorts[key[0]].ctors[key[1]][1]
                                              [key[2]][1]], rep)
               for key, rep in el.arb.items() if not isinstance(rep, _Opaque)}
        if not _holds(el, formulas, model, arb):
            self._reason = "incomplete: the model does not satisfy the query"
            return "unknown"
        self._model = model
        return "sat"

    def _roots(self, formulas):
        """Literals of the assertions' conjuncts, after solving equations
        ``c = t`` for a constant c that occurs in one assertion only."""
        el = self._el
        conj = [_conjuncts(f, []) for f in formulas]
        syms = [el.symbols(f) for f in formulas] if len(formulas) > 1 else []
        subst, blocked = {}, set()
        for i, parts in enumerate(conj):
            for part in parts:
                if not (isinstance(part, list) and len(part) == 3
                        and part[0] == "=" and isinstance(part[1], str)
                        and part[1] in el.consts):
                    continue
                name = part[1]
                if name in subst or name in blocked \
                        or name in el.macro_consts \
                        or el.consts[name].recursive \
                        or any(name in s for j, s in enumerate(syms) if j != i):
                    continue
                used = el.symbols(part[2])
                if name in used or used & subst.keys():
                    continue
                subst[name] = part
                blocked |= used
        defs = {name: el.term(part[2], {})[1] for name, part in subst.items()}
        el.over = defs
        try:
            roots = []
            taken = {id(part) for part in subst.values()}
            for parts in conj:
                for part in parts:
                    if id(part) not in taken:
                        roots.append(el.bool_(part, {}))
        finally:
            el.over = None
        return roots, defs


# ---------------------------------------------------------------------------
# values: trees of (constructor index, fields), numbers and booleans


def _tree(el, check, sort, rep):
    kind = sort.kind
    if kind == "bool":
        return check.lit(rep)
    if kind in ("int", "real"):
        for g, lin in rep:
            if check.lit(g):
                v = check.lin(lin)
                return int(v) if kind == "int" else v
        raise SolverError("no guard of an arithmetic term holds in the model")
    bits, fields = el._dt(rep)
    i = next((k for k, b in enumerate(bits) if check.lit(b)), 0)
    return (i, tuple(
        _tree(el, check, el.sorts[f], fields[i][j])
        for j, (_, f) in enumerate(sort.ctors[i][1])))


def _default_tree(el, sort):
    if sort.kind == "bool":
        return False
    if sort.kind in ("int", "real"):
        return 0
    fields = sort.ctors[0][1]
    return (0, tuple(_default_tree(el, el.sorts[f]) for _, f in fields))


def _value_sexp(el, sort, tree):
    if sort.kind == "bool":
        return "true" if tree else "false"
    if sort.kind in ("int", "real"):
        v = Fraction(tree)
        mag = abs(v)
        sx = str(mag.numerator) if mag.denominator == 1 else \
            ["/", str(mag.numerator), str(mag.denominator)]
        return ["-", sx] if v < 0 else sx
    i, fields = tree
    ctor, fs = sort.ctors[i]
    if not fs:
        return ctor
    return [ctor] + [_value_sexp(el, el.sorts[f], t)
                     for (_, f), t in zip(fs, fields)]


def _holds(el, formulas, model, arb):
    """Evaluate the assertions on the model's value trees.

    This walks the s-expressions directly, apart from the elaboration the
    search used, so a fault in flattening the model or in the search cannot
    certify a wrong model."""
    memo = {}

    def sel(tree, sort, i, j):
        if tree[0] == i:
            return tree[1][j]
        value = arb.get((sort.name, i, j))
        if value is None:
            fsort = el.sorts[sort.ctors[i][1][j][1]]
            if fsort.recursive:
                raise Incomplete("arbitrary value of a recursive datatype")
            value = arb[(sort.name, i, j)] = _default_tree(el, fsort)
        return value

    def ev(sx, env):
        if isinstance(sx, str):
            if sx in env:
                return env[sx]
            if sx in el.consts:
                tree = model.get(sx)
                return _default_tree(el, el.consts[sx]) if tree is None \
                    else tree
            if sx[0].isdigit():
                return Fraction(sx)
            if sx in ("true", "false"):
                return sx == "true"
            if sx in el.ctors:
                return (el.ctors[sx][1], ())
            if sx in el.macros:
                return apply(sx, ())
            return ev(el._parse(sx), env)
        head = sx[0]
        if isinstance(head, list):  # (_ is C)
            return ev(sx[1], env)[0] == el.ctors[head[2]][1]
        if head == "ite":
            return ev(sx[2] if ev(sx[1], env) else sx[3], env)
        if head == "and":
            return all(ev(a, env) for a in sx[1:])
        if head == "or":
            return any(ev(a, env) for a in sx[1:])
        if head == "=>":
            return not ev(sx[1], env) or ev(sx[2], env)
        if head == "let":
            inner = dict(env)
            for name, value in sx[1]:
                inner[name] = ev(value, env)
            return ev(sx[2], inner)
        if head == "as":
            return ev(sx[1], env)
        args = [ev(a, env) for a in sx[1:]]
        if head == "not":
            return not args[0]
        if head == "=":
            return all(a == b for a, b in zip(args, args[1:]))
        if head in _COMPARE:
            return all(_COMPARE[head](a, b) for a, b in zip(args, args[1:]))
        if head == "+":
            return sum(args, Fraction(0))
        if head == "-":
            return -args[0] if len(args) == 1 else args[0] - sum(args[1:])
        if head == "*":
            out = Fraction(1)
            for a in args:
                out *= a
            return out
        if head == "/":
            return Fraction(args[0]) / args[1]
        if head == "to_real":
            return args[0]
        if head in el.macros:
            return apply(head, tuple(args))
        if head in el.ctors:
            return (el.ctors[head][1], tuple(args))
        if head in el.sels:
            sort, i, j = el.sels[head]
            return sel(args[0], sort, i, j)
        if head in el.testers:
            return args[0][0] == el.testers[head][1]
        raise Incomplete(f"unsupported operator {head}")

    def apply(name, args):
        key = (name, args)
        if key not in memo:
            params, _, body = el.macros[name]
            memo[key] = ev(body, dict(zip(params, args)))
        return memo[key]

    try:
        return all(ev(f, {}) is True for f in formulas)
    except ZeroDivisionError:
        return False


_COMPARE = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}
