"""Encode a typechecked task into SMT-LIB: sorts, the accumulator function,
row well-formedness, and the universe atoms as named predicates.

Floats are Reals unless the task mentions -inf, in which case they become a
two-constructor datatype (NegInf | Fin Real). Strings become a finite
enumerated sort over the program's labels plus spare elements. Lists are a
cons datatype with operations unrolled to a fixed depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from .smt import SolverError, decode_number, sexp_str
from .syntax import (
    LITERAL_TYPES, BinOp, Cond, CoerceSome, Expr, Index, Insert, IsNone,
    ListExpr, Lit, Match, Name, Not, SliceFrom, SomeVal, TBool, TFloat, TInt,
    TList, TOpt, TStr, TTuple, Type, TupleExpr, type_leaves,
)
from .typecheck import PipelineTask
from .values import LITERALS, NEG_INF, NONE, Some, Value
from .vcgen import bits

LIST_UNROLL_DEPTH = 8
STR_SPARES = 3
# a float operator over the F datatype: its function, and whether the
# operands are swapped
F_FUNCTIONS = {
    ">": ("flt", True), ">=": ("fle", True),
    "<": ("flt", False), "<=": ("fle", False),
    "+": ("fadd", False), "-": ("fsub", False),
    "*": ("fmul", False), "/": ("fdiv", False),
}


class EncodeError(Exception):
    pass


def _sanitize(label: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in label)
    return out or "empty"


@dataclass
class _SortInfo:
    text: str
    ctor: str = ""
    fields: tuple = ()


class TaskEncoding:
    def __init__(self, task: PipelineTask):
        self.task = task
        self.float_adt = task.uses_neginf
        self.decls = []
        self._sorts = {}
        # id(type object) -> (the object, its sort), in front of the
        # value-keyed `_sorts`: hashing a frozen tuple type recurses through
        # its elements, and `translate` asks for the same few type objects
        # over and over; holding the object keeps its id from being reused
        self._sorts_by_id = {}
        self._list_ops = set()
        self.str_labels = tuple(task.str_labels)
        self._str_ctors = {}
        self._str_labels_by_ctor = {}
        self._build_base_sorts()
        self.row_type = TTuple(tuple(task.schema))
        self.row_sort = self._tuple_sort(self.row_type, "Row")
        self.acc_sort = self._tuple_sort(task.acc_type, "Acc")
        self._emit_helpers()
        self._emit_f()
        self._emit_wf()

    # -- sorts

    def _build_base_sorts(self):
        if self.float_adt:
            self.decls.append(
                "(declare-datatypes ((F 0)) (((NegInf) (Fin (fval Real)))))"
            )
        # a `str` column or field that no literal names still needs the
        # sort, with only its spare elements
        types = (*self.task.schema, self.task.acc_type)
        if self.str_labels or any(isinstance(t, TStr) for ty in types
                                  for t in type_leaves(ty)):
            spares = [f"S_other{k}" for k in range(STR_SPARES)]
            taken = set(spares)
            for label in self.str_labels:
                # a suffix only where two labels sanitize alike, or a label
                # to a spare's name
                name = base = f"S_{_sanitize(label)}"
                k = 0
                while name in taken:
                    k += 1
                    name = f"{base}_{k}"
                taken.add(name)
                self._str_ctors[label] = name
                self._str_labels_by_ctor[name] = label
            ctors = " ".join(f"({c})" for c in [*self._str_ctors.values(), *spares])
            self.decls.append(f"(declare-datatypes ((Str 0)) (({ctors})))")

    def sort_of(self, ty: Type) -> _SortInfo:
        hit = self._sorts_by_id.get(id(ty))
        if hit is not None:
            return hit[1]
        info = self._sorts.get(ty)
        if info is None:
            info = self._new_sort(ty)
        self._sorts_by_id[id(ty)] = (ty, info)
        return info

    def _new_sort(self, ty: Type) -> _SortInfo:
        if isinstance(ty, TBool):
            info = _SortInfo("Bool")
        elif isinstance(ty, TInt):
            info = _SortInfo("Int")
        elif isinstance(ty, TFloat):
            info = _SortInfo("F" if self.float_adt else "Real")
        elif isinstance(ty, TStr):
            info = _SortInfo("Str")
        elif isinstance(ty, TOpt):
            inner = self.sort_of(ty.elem)
            name = f"Opt_{_sanitize(inner.text)}"
            self.decls.append(
                f"(declare-datatypes (({name} 0)) "
                f"(((None_{name}) (Some_{name} (val_{name} {inner.text})))))"
            )
            info = _SortInfo(name, ctor=f"Some_{name}")
        elif isinstance(ty, TList):
            inner = self.sort_of(ty.elem)
            name = f"Lst_{_sanitize(inner.text)}"
            self.decls.append(
                f"(declare-datatypes (({name} 0)) "
                f"(((nil_{name}) (cons_{name} (hd_{name} {inner.text}) "
                f"(tl_{name} {name})))))"
            )
            info = _SortInfo(name, ctor=f"cons_{name}")
        elif isinstance(ty, TTuple):
            info = self._tuple_sort(ty, f"Tup{len(self._sorts)}")
        else:
            raise EncodeError(f"cannot encode type {ty}")
        self._sorts[ty] = info
        return info

    def _tuple_sort(self, ty: TTuple, name: str) -> _SortInfo:
        if ty in self._sorts:
            return self._sorts[ty]
        elems = [self.sort_of(e) for e in ty.elems]
        fields = tuple(f"{name.lower()}{i}" for i in range(len(elems)))
        field_decls = " ".join(
            f"({f} {e.text})" for f, e in zip(fields, elems)
        )
        self.decls.append(
            f"(declare-datatypes (({name} 0)) (((Mk{name} {field_decls}))))"
        )
        info = _SortInfo(name, ctor=f"Mk{name}", fields=fields)
        self._sorts[ty] = info
        return info

    # -- helper functions

    def _emit_helpers(self):
        if self.float_adt:
            self.decls += [
                "(define-fun flt ((x F) (y F)) Bool"
                " (ite (is-NegInf x) (not (is-NegInf y))"
                " (and (is-Fin y) (< (fval x) (fval y)))))",
                "(define-fun fle ((x F) (y F)) Bool"
                " (or (= x y) (flt x y)))",
                "(define-fun fadd ((x F) (y F)) F (Fin (+ (fval x) (fval y))))",
                "(define-fun fsub ((x F) (y F)) F (Fin (- (fval x) (fval y))))",
                "(define-fun fmul ((x F) (y F)) F (Fin (* (fval x) (fval y))))",
                "(define-fun fdiv ((x F) (y F)) F (Fin (/ (fval x) (fval y))))",
            ]

    def _emit_f(self):
        body = self.translate(self.task.f_body, {"a": "a", "r": "r"})
        self.decls.append(
            f"(define-fun facc ((a {self.acc_sort.text}) (r {self.row_sort.text})) "
            f"{self.acc_sort.text} {body})"
        )

    def _emit_wf(self):
        conds = []
        if self.float_adt:
            for i, ty in enumerate(self.task.schema):
                if isinstance(ty, TFloat):
                    conds.append(["is-Fin", [self.row_sort.fields[i], "r"]])
        body = ["and"] + conds if conds else "true"
        self.decls.append(
            f"(define-fun wfrow ((r {self.row_sort.text})) Bool {sexp_str(body)})"
        )

    # -- list operation unrolling

    def _need_list_ops(self, list_type: TList, op: str) -> str:
        name = self.sort_of(list_type).text
        key = (name, op)
        base = f"{op}_{name}"
        if key in self._list_ops:
            return f"{base}_{LIST_UNROLL_DEPTH}"
        self._list_ops.add(key)
        if isinstance(list_type.elem, (TOpt, TList, TTuple)):
            raise EncodeError("nested collection element sorts are unsupported")
        elem_text = self.sort_of(list_type.elem).text
        le = "fle" if elem_text == "F" else "<="
        if op == "ins":
            self.decls.append(
                f"(define-fun ins_{name}_0 ((v {elem_text}) (l {name})) {name} l)"
            )
            for k in range(1, LIST_UNROLL_DEPTH + 1):
                self.decls.append(
                    f"(define-fun ins_{name}_{k} ((v {elem_text}) (l {name})) {name}"
                    f" (ite (is-nil_{name} l) (cons_{name} v (as nil_{name} {name}))"
                    f" (ite ({le} v (hd_{name} l)) (cons_{name} v l)"
                    f" (cons_{name} (hd_{name} l)"
                    f" (ins_{name}_{k - 1} v (tl_{name} l))))))"
                )
        elif op == "len":
            self.decls.append(
                f"(define-fun len_{name}_0 ((l {name})) Int 0)"
            )
            for k in range(1, LIST_UNROLL_DEPTH + 1):
                self.decls.append(
                    f"(define-fun len_{name}_{k} ((l {name})) Int"
                    f" (ite (is-nil_{name} l) 0"
                    f" (+ 1 (len_{name}_{k - 1} (tl_{name} l)))))"
                )
        elif op == "drop":
            self.decls.append(
                f"(define-fun drop_{name}_0 ((n Int) (l {name})) {name} l)"
            )
            for k in range(1, LIST_UNROLL_DEPTH + 1):
                self.decls.append(
                    f"(define-fun drop_{name}_{k} ((n Int) (l {name})) {name}"
                    f" (ite (or (<= n 0) (is-nil_{name} l)) l"
                    f" (drop_{name}_{k - 1} (- n 1) (tl_{name} l))))"
                )
        return f"{base}_{LIST_UNROLL_DEPTH}"

    # -- values

    def value_sexp(self, v: Value, ty: Type):
        if isinstance(ty, TBool):
            return "true" if v else "false"
        if isinstance(ty, TInt):
            return str(v) if v >= 0 else ["-", str(-v)]
        if isinstance(ty, TFloat):
            if v is NEG_INF:
                return "NegInf"
            sx = _real_sexp(Fraction(v))
            return ["Fin", sx] if self.float_adt else sx
        if isinstance(ty, TStr):
            # the program only tells a string apart from its labels, so any
            # string it does not name (the fuzzer's "unrelated-label") is
            # the first spare element; it decodes as that spare
            return self._str_ctors.get(v, "S_other0")
        if isinstance(ty, TOpt):
            info = self.sort_of(ty)
            if v is NONE:
                return f"(as None_{info.text} {info.text})"
            assert isinstance(v, Some)
            return [info.ctor, self.value_sexp(v.value, ty.elem)]
        if isinstance(ty, TList):
            info = self.sort_of(ty)
            out = f"(as nil_{info.text} {info.text})"
            for item in reversed(v):
                out = [info.ctor, self.value_sexp(item, ty.elem), out]
            return out
        if isinstance(ty, TTuple):
            info = self.sort_of(ty)
            return [info.ctor] + [
                self.value_sexp(x, e) for x, e in zip(v, ty.elems)
            ]
        raise EncodeError(f"cannot embed value of type {ty}")

    def decode(self, sx, ty: Type) -> Value:
        """The value of type ``ty`` that the model term ``sx`` denotes: the
        inverse of ``value_sexp``, also reading what a solver prints besides
        (bare numerals for ``F``, spare ``Str`` elements as ``⟨name⟩``).
        A malformed term raises SolverError."""
        if isinstance(ty, TBool):
            return sx == "true"
        if isinstance(ty, TInt):
            return int(decode_number(sx))
        if isinstance(ty, TFloat):
            if self.float_adt and (sx == "NegInf" or sx[:1] == ["NegInf"]):
                return NEG_INF
            if self.float_adt and sx[:1] == ["Fin"]:
                return decode_number(sx[1])
            return decode_number(sx)
        if isinstance(ty, TStr):
            name = sx if isinstance(sx, str) else sx[0]
            return self._str_labels_by_ctor.get(name, f"⟨{name}⟩")
        info = self.sort_of(ty)
        if isinstance(ty, TOpt):
            if sx[:1] == [info.ctor]:
                return Some(self.decode(sx[1], ty.elem))
            return NONE
        if isinstance(ty, TList):
            out = []
            while sx[:1] == [info.ctor]:
                out.append(self.decode(sx[1], ty.elem))
                sx = sx[2]
            return out
        if not isinstance(sx, list):
            raise SolverError(f"expected constructor application, got {sx!r}")
        return tuple(self.decode(x, e) for x, e in zip(sx[1:], ty.elems))

    def init_sexp(self):
        return self.value_sexp(self.task.init_values, self.task.acc_type)

    # -- expression translation

    def translate(self, expr: Expr, env: dict) -> str:
        """The SMT-LIB text of `expr`; `env` maps each free name to its
        text."""
        return _Texts(self, env).text(expr)

    def _translate(self, expr: Expr, texts: _Texts) -> str:
        tr = texts.text
        if isinstance(expr, Lit):
            return sexp_str(self.value_sexp(
                LITERALS[expr.kind](expr.value),
                LITERAL_TYPES.get(expr.kind) or expr.ty))
        if isinstance(expr, Name):
            if expr.ident not in texts.env:
                raise EncodeError(f"unbound variable {expr.ident!r} in encoding")
            return texts.env[expr.ident]
        if isinstance(expr, Not):
            return f"(not {tr(expr.operand)})"
        if isinstance(expr, BinOp):
            left, right = tr(expr.left), tr(expr.right)
            head = "=" if expr.op == "==" else expr.op
            if (self.float_adt and isinstance(expr.left.ty, TFloat)
                    and expr.op in F_FUNCTIONS):
                head, swapped = F_FUNCTIONS[expr.op]
                if swapped:
                    left, right = right, left
            return f"({head} {left} {right})"
        if isinstance(expr, Cond):
            return f"(ite {tr(expr.test)} {tr(expr.then)} {tr(expr.other)})"
        if isinstance(expr, Match):
            info = self.sort_of(expr.scrutinee.ty)
            scrut = tr(expr.scrutinee)
            none_case = next(c for c in expr.cases if c.pattern is None)
            bind_case = next(c for c in expr.cases if c.pattern is not None)
            none_body = tr(none_case.body)
            # the binder body reads a new environment, so it gets its own
            # memo: no text of the outer one may stand for its nodes
            inner = _Texts(self, {**texts.env, bind_case.pattern:
                                  f"(val_{info.text} {scrut})"})
            return (f"(ite ((_ is None_{info.text}) {scrut}) {none_body} "
                    f"{inner.text(bind_case.body)})")
        if isinstance(expr, IsNone):
            info = self.sort_of(expr.operand.ty)
            return f"((_ is None_{info.text}) {tr(expr.operand)})"
        if isinstance(expr, SomeVal):
            info = self.sort_of(expr.operand.ty)
            return f"(val_{info.text} {tr(expr.operand)})"
        if isinstance(expr, CoerceSome):
            info = self.sort_of(expr.ty)
            return f"({info.ctor} {tr(expr.operand)})"
        if isinstance(expr, TupleExpr):
            info = self.sort_of(expr.ty)
            return f"({' '.join([info.ctor, *map(tr, expr.items)])})"
        if isinstance(expr, ListExpr):
            info = self.sort_of(expr.ty)
            out = f"(as nil_{info.text} {info.text})"
            for item in reversed(expr.items):
                out = f"({info.ctor} {tr(item)} {out})"
            return out
        if isinstance(expr, Index):
            base_ty = expr.base.ty
            base = tr(expr.base)
            info = self.sort_of(base_ty)
            if isinstance(base_ty, TTuple):
                return f"({info.fields[expr.index]} {base})"
            if expr.index < 0:
                raise EncodeError("negative list index is not encodable")
            return f"(hd_{info.text} {_tails(info, base, expr.index)})"
        if isinstance(expr, SliceFrom):
            info = self.sort_of(expr.base.ty)
            base = tr(expr.base)
            if expr.start >= 0:
                return _tails(info, base, expr.start)
            leng = self._need_list_ops(expr.base.ty, "len")
            drop = self._need_list_ops(expr.base.ty, "drop")
            return f"({drop} (- ({leng} {base}) {-expr.start}) {base})"
        if isinstance(expr, Insert):
            ins = self._need_list_ops(expr.target.ty, "ins")
            return f"({ins} {tr(expr.item)} {tr(expr.target)})"
        raise EncodeError(f"cannot translate {type(expr).__name__}")


class _Texts:
    """SMT-LIB texts of the nodes translated under one environment, by node
    identity: each distinct node is translated once, and a parent splices
    its children's texts. A universe's atoms share one, so a part they share
    is translated and printed once. An entry holds its node, so no id is
    reused while the memo lives; the memo is dropped with the build."""

    def __init__(self, enc: TaskEncoding, env: dict):
        self.enc = enc
        self.env = env
        self._texts = {}

    def text(self, e: Expr) -> str:
        hit = self._texts.get(id(e))
        if hit is None:
            hit = self._texts[id(e)] = (e, self.enc._translate(e, self))
        return hit[1]


def _tails(info: _SortInfo, base: str, n: int) -> str:
    """The text of `base` with its first `n` list elements dropped."""
    for _ in range(n):
        base = f"(tl_{info.text} {base})"
    return base


def _real_sexp(x: Fraction):
    if x.denominator == 1:
        n = x.numerator
        return f"{n}.0" if n >= 0 else ["-", f"{-n}.0"]
    num, den = x.numerator, x.denominator
    if num < 0:
        return ["-", ["/", f"{-num}.0", f"{den}.0"]]
    return ["/", f"{num}.0", f"{den}.0"]


# ---------------------------------------------------------------------------
# task context: one live session with the task installed


class TaskContext:
    """One task, one encoding, one solver session; owns the declarations."""

    def __init__(self, task: PipelineTask, universes, session):
        self.task = task
        self.universes = universes
        self.session = session
        self.enc = TaskEncoding(task)
        acc = self.enc.acc_sort
        row = self.enc.row_sort
        # translated before any declaration is sent: an atom may be the
        # first to need a sort, which `enc.decls` then declares
        definitions = [
            *self._universe_definitions("uq", universes.u_q,
                                        [("r", row.text)]),
            *self._universe_definitions("up", universes.u_residual,
                                        [("a", acc.text)]),
            *self._universe_definitions("upsi", universes.u_psi,
                                        [("a1", acc.text), ("a2", acc.text)]),
        ]
        for decl in self.enc.decls:
            session.declare(decl)
        decode_acc = partial(self.enc.decode, ty=task.acc_type)
        for name in ("a1", "a2", "a1p", "a2p"):
            session.declare_const(name, acc.text, decode_acc)
        session.declare_const("r", row.text,
                              partial(self.enc.decode, ty=self.enc.row_type))
        for definition in definitions:
            session.declare(definition)

    def _universe_definitions(self, prefix, universe, params):
        # one memo for the universe: its atoms share typed parts
        texts = _Texts(self.enc, {name: name for name, _ in params})
        plist = " ".join(f"({n} {t})" for n, t in params)
        return [
            f"(define-fun {prefix}_{atom.index} ({plist}) Bool "
            f"{texts.text(atom.expr)})"
            for atom in universe
        ]

    # application helpers of a conjunction (bit i is atom i) for vcgen/synth

    def q_app(self, conj):
        return _conjoin("uq", conj, ["r"])

    def res_app(self, conj, acc_var):
        return _conjoin("up", conj, [acc_var])

    def psi_app(self, conj, v1="a1", v2="a2"):
        return _conjoin("upsi", conj, [v1, v2])

    def psi_atom_app(self, index, v1, v2):
        return [f"upsi_{index}", v1, v2]


def _conjoin(prefix, conj, args):
    """The `and` of the applications of the atoms of `conj` to `args`."""
    apps = [[f"{prefix}_{i}", *args] for i in bits(conj)]
    if not apps:
        return "true"
    return ["and"] + apps if len(apps) > 1 else apps[0]
