"""Reference `or` normalization and universe insertion, node by node.

`pushdown_synth.analysis.Universe.add` builds an `or` atom key-first: it
reduces memoized facts of the disjuncts (`_or_core`), folds the atom's key
from theirs, and builds the chain only for a new key. This module keeps the
way it was done before, as the reference the tests check it against: the
raw leaves of the `or` are flattened, each is normalized with
`NormalMemo.normalize` and flattened again, and the disjunct nodes are
deduplicated, tested for complementary pairs and merged into intervals
themselves, their keys read through `NormalMemo.key`. `reference_add` then
keys the built chain with `NormalMemo.key`.
"""

from __future__ import annotations

from pushdown_synth.analysis import (
    Atom, _const_of, _flatten, _is_int_expr, _mk_num_lit, is_trivially_false,
    is_trivially_true,
)
from pushdown_synth.syntax import BOOL, BinOp, Lit, bool_lit, mk_or, negate


def reference_normalize(e, memo):
    """The normal form of `e`; an `or` at its root is reduced here, any
    other node by `memo`."""
    if not (isinstance(e, BinOp) and e.op == "or"):
        return memo.normalize(e)
    lits = [sub for x in _flatten("or", e)
            for sub in _flatten("or", memo.normalize(x))]
    out, seen = [], set()
    for lit in lits:
        if isinstance(lit, Lit) and lit.kind == "bool":
            if lit.value:
                return bool_lit(True)
            continue
        key = memo.key(lit)
        if key not in seen:
            seen.add(key)
            out.append(lit)
    if seen & {memo.key(memo.normalize(negate(lit))) for lit in out}:
        return bool_lit(True)
    out = _intervals(out, memo)
    if out is True:
        return bool_lit(True)
    out.sort(key=memo.key)
    return mk_or(*out)


def _intervals(lits, memo):
    """Same-term comparison disjuncts absorbed and merged; True when the
    disjunction covers everything."""
    groups, out = {}, []
    for lit in lits:
        if isinstance(lit, BinOp) and lit.op in (">", ">=", "<", "<=", "==") \
                and _const_of(lit.right) is not None:
            groups.setdefault(memo.key(lit.left), []).append(lit)
        else:
            out.append(lit)
    for _, items in sorted(groups.items()):
        if len(items) == 1:
            out.append(items[0])
            continue
        lower = upper = None  # (constant, inclusive) of the widest rays
        points = []
        for lit in items:
            c = _const_of(lit.right)
            if lit.op == "==":
                points.append((c, lit))
                continue
            cand = (c, lit.op in (">=", "<="))
            if lit.op in (">", ">="):
                if lower is None or c < lower[0] or (
                        c == lower[0] and cand[1] and not lower[1]):
                    lower = cand
            elif upper is None or c > upper[0] or (
                    c == upper[0] and cand[1] and not upper[1]):
                upper = cand
        base = items[0].left
        if lower is not None and upper is not None:
            (lo, lo_inc), (up, up_inc) = lower, upper
            if lo < up or lo == up and (lo_inc or up_inc):
                return True
            if _is_int_expr(base) and lo.denominator == 1 \
                    and up.denominator == 1 \
                    and (up if up_inc else up - 1) >= \
                    (lo if lo_inc else lo + 1) - 1:
                return True
        if lower is not None:
            out.append(BinOp(op=">=" if lower[1] else ">", left=base,
                             right=_mk_num_lit(lower[0], base), ty=BOOL))
        if upper is not None:
            out.append(BinOp(op="<=" if upper[1] else "<", left=base,
                             right=_mk_num_lit(upper[0], base), ty=BOOL))
        out.extend(
            lit for c, lit in points
            if not (lower is not None and (c > lower[0] or c == lower[0]
                                           and lower[1])
                    or upper is not None and (c < upper[0] or c == upper[0]
                                              and upper[1])))
    return out


def reference_add(universe, expr, display=None, memo=None):
    """`Universe.add` through `reference_normalize` and `NormalMemo.key`."""
    expr = reference_normalize(expr, memo)
    if is_trivially_true(expr) or is_trivially_false(expr):
        return None
    key = memo.key(expr)
    if key in universe._by_key:
        return universe._by_key[key]
    atom = Atom(index=len(universe.atoms), role=universe.role, expr=expr,
                display=display if display is not None else expr, key=key)
    universe.atoms.append(atom)
    universe._by_key[key] = atom
    return atom
