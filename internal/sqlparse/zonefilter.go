package sqlparse

import "flordb/internal/relation"

// Zone-map filter compilation: turn the WHERE clause into a
// relation.ZoneFilter that decides, from a page's per-column min/max and
// null-count zone, whether the page can be skipped without decoding.
//
// The filter answers "can any row in this page possibly satisfy the
// predicate?" — it may only return true (skip) when the answer is provably
// no. Everything it cannot reason about compiles to nil, which downstream
// means "never skip". The supported shapes mirror kernelize exactly, and a
// zone filter is only ever armed when the *whole* predicate kernelizes: a
// predicate with a fallback-evaluated subtree could raise a deferred
// evaluation error on a row, and skipping the page would suppress that error
// (binder.compile's AND evaluates the right side when the left is NULL, so
// even one AND conjunct can carry another's error). Kernels never produce
// evaluation errors, so under this gate pruning is behavior-identical to the
// serial scan.
//
// Soundness notes per shape (z tracks non-NULL cells only; NULL comparisons
// are never satisfied, so NULL cells can be ignored for every shape except
// IS [NOT] NULL, which uses the null count):
//
//   - A page whose column zone has Min == NULL holds no non-NULL cell, so
//     any comparison / IN / BETWEEN prunes it.
//   - col = lit: skip when lit < Min or lit > Max.
//   - col != lit: skip when Min == lit == Max (every non-NULL cell equals lit).
//   - col < lit: skip when Min >= lit; col <= lit: skip when Min > lit.
//   - col > lit: skip when Max <= lit; col >= lit: skip when Max < lit.
//   - A NULL literal satisfies no row at all — always skip.
//   - IN: skip when every non-NULL list literal falls outside [Min, Max]
//     (NULL list items never match; an all-NULL list matches nothing).
//   - BETWEEN lo AND hi: skip when Max < lo or Min > hi; a NULL bound makes
//     the predicate NULL everywhere — always skip. NOT BETWEEN: skip when
//     the whole zone lies inside [lo, hi].
//   - IS NULL: skip when NullCount == 0; IS NOT NULL: when NullCount == Rows.
//   - AND: a page skippable by either conjunct is skippable. OR: only a page
//     skippable by both disjuncts is skippable (both must compile).
//   - Column-vs-column comparisons and anything else: nil (never skip).
//
// Ordering uses relation.ComparePtr — the same total order the kernels
// filter by — so numeric cross-type comparisons prune consistently.
func (b binder) zoneFilter(e Expr) relation.ZoneFilter {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			l, r := b.zoneFilter(x.Left), b.zoneFilter(x.Right)
			if l == nil && r == nil {
				return nil
			}
			return func(z *relation.PageZone) bool {
				return (l != nil && l(z)) || (r != nil && r(z))
			}
		case "OR":
			l, r := b.zoneFilter(x.Left), b.zoneFilter(x.Right)
			if l == nil || r == nil {
				return nil
			}
			return func(z *relation.PageZone) bool { return l(z) && r(z) }
		default:
			if ref, lit, op, ok := colCmpLit(x); ok {
				if p, err := b.resolve(ref); err == nil {
					return zoneCmpFilter(p, lit, op)
				}
			}
		}
	case *IsNullExpr:
		ref, ok := x.Expr.(*ColumnRef)
		if !ok {
			return nil
		}
		p, err := b.resolve(ref)
		if err != nil {
			return nil
		}
		negate := x.Negate
		return func(z *relation.PageZone) bool {
			if negate {
				return z.Cols[p].NullCount == z.Rows
			}
			return z.Cols[p].NullCount == 0
		}
	case *InExpr:
		if x.Negate {
			return nil // NOT IN excludes a finite set; min/max bounds say nothing
		}
		ref, ok := x.Expr.(*ColumnRef)
		if !ok {
			return nil
		}
		p, err := b.resolve(ref)
		if err != nil {
			return nil
		}
		lits := make([]relation.Value, 0, len(x.List))
		for _, le := range x.List {
			lit, ok := literalOf(le)
			if !ok {
				return nil
			}
			lits = append(lits, lit)
		}
		return func(z *relation.PageZone) bool {
			cz := &z.Cols[p]
			if cz.Min.IsNull() {
				return true
			}
			for k := range lits {
				if lits[k].IsNull() {
					continue
				}
				if relation.ComparePtr(&lits[k], &cz.Min) >= 0 && relation.ComparePtr(&lits[k], &cz.Max) <= 0 {
					return false // this literal may match a cell in the page
				}
			}
			return true
		}
	case *BetweenExpr:
		ref, ok := x.Expr.(*ColumnRef)
		if !ok {
			return nil
		}
		p, err := b.resolve(ref)
		if err != nil {
			return nil
		}
		lo, lok := literalOf(x.Lo)
		hi, hok := literalOf(x.Hi)
		if !lok || !hok {
			return nil
		}
		if lo.IsNull() || hi.IsNull() {
			return func(*relation.PageZone) bool { return true }
		}
		negate := x.Negate
		return func(z *relation.PageZone) bool {
			cz := &z.Cols[p]
			if cz.Min.IsNull() {
				return true
			}
			if negate {
				return relation.ComparePtr(&cz.Min, &lo) >= 0 && relation.ComparePtr(&cz.Max, &hi) <= 0
			}
			return relation.ComparePtr(&cz.Max, &lo) < 0 || relation.ComparePtr(&cz.Min, &hi) > 0
		}
	}
	return nil
}

// zoneCmpFilter prunes pages for `col <op> lit` from the column's [Min, Max].
func zoneCmpFilter(pos int, lit relation.Value, op string) relation.ZoneFilter {
	if lit.IsNull() {
		return func(*relation.PageZone) bool { return true }
	}
	return func(z *relation.PageZone) bool {
		cz := &z.Cols[pos]
		if cz.Min.IsNull() {
			return true // no non-NULL cell in the page
		}
		lo := relation.ComparePtr(&lit, &cz.Min)
		hi := relation.ComparePtr(&lit, &cz.Max)
		switch op {
		case "=":
			return lo < 0 || hi > 0
		case "!=":
			return lo == 0 && hi == 0
		case "<":
			return lo <= 0 // Min >= lit: no cell below lit
		case "<=":
			return lo < 0 // Min > lit
		case ">":
			return hi >= 0 // Max <= lit: no cell above lit
		case ">=":
			return hi > 0 // Max < lit
		}
		return false
	}
}
