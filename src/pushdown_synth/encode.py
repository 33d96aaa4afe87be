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
from .smt import BOOL_SORT, INT_SORT, REAL_SORT, FLOAT_SORT, SortDesc, sexp_str
from .syntax import (
    BinOp, Cond, CoerceSome, Expr, Index, Insert, IsNone, ListExpr, Lit,
    Match, Name, Not, SliceFrom, SomeVal, TBool, TFloat, TInt, TList, TOpt,
    TStr, TTuple, Type, TupleExpr,
)
from .typecheck import PipelineTask
from .values import NEG_INF, NONE, Some, Value

LIST_UNROLL_DEPTH = 8
STR_SPARES = 3


class EncodeError(Exception):
    pass


def _sanitize(label: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in label)
    return out or "empty"


@dataclass
class _SortInfo:
    text: str
    desc: SortDesc
    ctor: str = ""
    fields: tuple = ()


class TaskEncoding:
    def __init__(self, task: PipelineTask):
        self.task = task
        self.float_adt = task.uses_neginf
        self.decls = []
        self._sorts = {}
        self._list_ops = set()
        self.str_labels = tuple(task.str_labels)
        self._str_ctors = {}
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
        if self.str_labels:
            ctors = []
            for label in self.str_labels:
                name = f"S_{_sanitize(label)}"
                self._str_ctors[label] = name
                ctors.append(f"({name})")
            for k in range(STR_SPARES):
                ctors.append(f"(S_other{k})")
            self.decls.append(
                f"(declare-datatypes ((Str 0)) (({' '.join(ctors)})))"
            )

    def sort_of(self, ty: Type) -> _SortInfo:
        key = ty
        if key in self._sorts:
            return self._sorts[key]
        if isinstance(ty, TBool):
            info = _SortInfo("Bool", BOOL_SORT)
        elif isinstance(ty, TInt):
            info = _SortInfo("Int", INT_SORT)
        elif isinstance(ty, TFloat):
            if self.float_adt:
                info = _SortInfo("F", FLOAT_SORT)
            else:
                info = _SortInfo("Real", REAL_SORT)
        elif isinstance(ty, TStr):
            pairs = tuple(
                (self._str_ctors[label], label) for label in self.str_labels
            )
            info = _SortInfo("Str", SortDesc("str", labels=pairs))
        elif isinstance(ty, TOpt):
            inner = self.sort_of(ty.elem)
            name = f"Opt_{_sanitize(inner.text)}"
            self.decls.append(
                f"(declare-datatypes (({name} 0)) "
                f"(((None_{name}) (Some_{name} (val_{name} {inner.text})))))"
            )
            info = _SortInfo(
                name, SortDesc("opt", inner=(inner.desc,)), ctor=f"Some_{name}"
            )
        elif isinstance(ty, TList):
            inner = self.sort_of(ty.elem)
            name = f"Lst_{_sanitize(inner.text)}"
            self.decls.append(
                f"(declare-datatypes (({name} 0)) "
                f"(((nil_{name}) (cons_{name} (hd_{name} {inner.text}) "
                f"(tl_{name} {name})))))"
            )
            info = _SortInfo(name, SortDesc("list", inner=(inner.desc,)))
        elif isinstance(ty, TTuple):
            info = self._tuple_sort(ty, f"Tup{len(self._sorts)}")
        else:
            raise EncodeError(f"cannot encode type {ty}")
        self._sorts[key] = info
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
        info = _SortInfo(
            name,
            SortDesc("tuple", inner=tuple(e.desc for e in elems)),
            ctor=f"Mk{name}",
            fields=fields,
        )
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
            f"{self.acc_sort.text} {sexp_str(body)})"
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

    def _need_list_ops(self, info: _SortInfo, op: str) -> str:
        elem = info.desc.inner[0]
        name = info.text
        key = (name, op)
        base = f"{op}_{name}"
        if key in self._list_ops:
            return f"{base}_{LIST_UNROLL_DEPTH}"
        self._list_ops.add(key)
        elem_text = {
            "int": "Int", "real": "Real", "float": "F", "bool": "Bool",
            "str": "Str",
        }.get(elem.kind)
        if elem_text is None:
            raise EncodeError("nested collection element sorts are unsupported")
        le = "fle" if elem.kind == "float" else "<="
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
            ctor = self._str_ctors.get(v)
            if ctor is None:
                raise EncodeError(f"string label {v!r} not in program constants")
            return ctor
        if isinstance(ty, TOpt):
            info = self.sort_of(ty)
            if v is NONE:
                return f"(as None_{info.text} {info.text})"
            assert isinstance(v, Some)
            return [f"Some_{info.text}", self.value_sexp(v.value, ty.elem)]
        if isinstance(ty, TList):
            info = self.sort_of(ty)
            out = f"(as nil_{info.text} {info.text})"
            for item in reversed(v):
                out = [f"cons_{info.text}", self.value_sexp(item, ty.elem), out]
            return out
        if isinstance(ty, TTuple):
            info = self.sort_of(ty)
            return [info.ctor] + [
                self.value_sexp(x, e) for x, e in zip(v, ty.elems)
            ]
        raise EncodeError(f"cannot embed value of type {ty}")

    def init_sexp(self):
        return self.value_sexp(self.task.init_values, self.task.acc_type)

    def desc_of(self, ty: Type) -> SortDesc:
        return self.sort_of(ty).desc

    # -- expression translation

    def translate(self, expr: Expr, env: dict):
        if isinstance(expr, Lit):
            if expr.kind == "int":
                n = int(expr.value)
                return str(n) if n >= 0 else ["-", str(-n)]
            if expr.kind == "float":
                sx = _real_sexp(Fraction(expr.value))
                return ["Fin", sx] if self.float_adt else sx
            if expr.kind == "neginf":
                return "NegInf"
            if expr.kind == "bool":
                return "true" if expr.value else "false"
            if expr.kind == "str":
                ctor = self._str_ctors.get(expr.value)
                if ctor is None:
                    raise EncodeError(f"unknown string label {expr.value!r}")
                return ctor
            if expr.kind == "none":
                info = self.sort_of(expr.ty)
                return f"(as None_{info.text} {info.text})"
            raise EncodeError(f"bad literal {expr.kind}")
        if isinstance(expr, Name):
            if expr.ident not in env:
                raise EncodeError(f"unbound variable {expr.ident!r} in encoding")
            return env[expr.ident]
        if isinstance(expr, Not):
            return ["not", self.translate(expr.operand, env)]
        if isinstance(expr, BinOp):
            left = self.translate(expr.left, env)
            right = self.translate(expr.right, env)
            is_float = isinstance(expr.left.ty, TFloat)
            if expr.op in ("and", "or"):
                return [expr.op, left, right]
            if expr.op == "==":
                return ["=", left, right]
            if expr.op in (">", ">=", "<", "<="):
                if is_float and self.float_adt:
                    table = {
                        ">": ["flt", right, left],
                        ">=": ["fle", right, left],
                        "<": ["flt", left, right],
                        "<=": ["fle", left, right],
                    }
                    return table[expr.op]
                return [expr.op, left, right]
            if is_float and self.float_adt:
                fn = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}[expr.op]
                return [fn, left, right]
            return [expr.op, left, right]
        if isinstance(expr, Cond):
            return [
                "ite",
                self.translate(expr.test, env),
                self.translate(expr.then, env),
                self.translate(expr.other, env),
            ]
        if isinstance(expr, Match):
            info = self.sort_of(expr.scrutinee.ty)
            scrut = self.translate(expr.scrutinee, env)
            none_case = next(c for c in expr.cases if c.pattern is None)
            bind_case = next(c for c in expr.cases if c.pattern is not None)
            inner_env = dict(env)
            inner_env[bind_case.pattern] = [f"val_{info.text}", scrut]
            return [
                "ite",
                [["_", "is", f"None_{info.text}"], scrut],
                self.translate(none_case.body, env),
                self.translate(bind_case.body, inner_env),
            ]
        if isinstance(expr, IsNone):
            info = self.sort_of(expr.operand.ty)
            return [["_", "is", f"None_{info.text}"],
                    self.translate(expr.operand, env)]
        if isinstance(expr, SomeVal):
            info = self.sort_of(expr.operand.ty)
            return [f"val_{info.text}", self.translate(expr.operand, env)]
        if isinstance(expr, CoerceSome):
            info = self.sort_of(expr.ty)
            return [f"Some_{info.text}", self.translate(expr.operand, env)]
        if isinstance(expr, TupleExpr):
            info = self.sort_of(expr.ty)
            return [info.ctor] + [self.translate(e, env) for e in expr.items]
        if isinstance(expr, ListExpr):
            info = self.sort_of(expr.ty)
            out = f"(as nil_{info.text} {info.text})"
            for item in reversed(expr.items):
                out = [f"cons_{info.text}", self.translate(item, env), out]
            return out
        if isinstance(expr, Index):
            base_ty = expr.base.ty
            base = self.translate(expr.base, env)
            info = self.sort_of(base_ty)
            if isinstance(base_ty, TTuple):
                return [info.fields[expr.index], base]
            if expr.index < 0:
                raise EncodeError("negative list index is not encodable")
            out = base
            for _ in range(expr.index):
                out = [f"tl_{info.text}", out]
            return [f"hd_{info.text}", out]
        if isinstance(expr, SliceFrom):
            info = self.sort_of(expr.base.ty)
            base = self.translate(expr.base, env)
            if expr.start >= 0:
                out = base
                for _ in range(expr.start):
                    out = [f"tl_{info.text}", out]
                return out
            leng = self._need_list_ops(info, "len")
            drop = self._need_list_ops(info, "drop")
            return [drop, ["-", [leng, base], str(-expr.start)], base]
        if isinstance(expr, Insert):
            info = self.sort_of(expr.target.ty)
            ins = self._need_list_ops(info, "ins")
            return [
                ins,
                self.translate(expr.item, env),
                self.translate(expr.target, env),
            ]
        raise EncodeError(f"cannot translate {type(expr).__name__}")


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


FREE_VARS = ("a1", "a2", "a1p", "a2p", "r")


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
        acc_desc = self.enc.desc_of(task.acc_type)
        row_desc = self.enc.desc_of(self.enc.row_type)
        for decl in self.enc.decls:
            session.declare(decl)
        for name in ("a1", "a2", "a1p", "a2p"):
            session.declare_const(name, acc.text, acc_desc)
        session.declare_const("r", row.text, row_desc)
        for definition in definitions:
            session.declare(definition)

    def _universe_definitions(self, prefix, universe, params):
        env = {name: name for name, _ in params}
        plist = " ".join(f"({n} {t})" for n, t in params)
        return [
            f"(define-fun {prefix}_{atom.index} ({plist}) Bool "
            f"{sexp_str(self.enc.translate(atom.expr, env))})"
            for atom in universe
        ]

    # application helpers used by vcgen/synth

    def q_app(self, indices, row_var="r"):
        apps = [[f"uq_{i}", row_var] for i in sorted(indices)]
        if not apps:
            return "true"
        return ["and"] + apps if len(apps) > 1 else apps[0]

    def res_app(self, indices, acc_var):
        apps = [[f"up_{i}", acc_var] for i in sorted(indices)]
        if not apps:
            return "true"
        return ["and"] + apps if len(apps) > 1 else apps[0]

    def psi_app(self, indices, v1="a1", v2="a2"):
        apps = [[f"upsi_{i}", v1, v2] for i in sorted(indices)]
        if not apps:
            return "true"
        return ["and"] + apps if len(apps) > 1 else apps[0]

    def psi_atom_app(self, index, v1, v2):
        return [f"upsi_{index}", v1, v2]

    def init_sexp(self):
        return self.enc.init_sexp()
