package sqlparse

import (
	"fmt"
	"regexp"
	"strings"
	"sync"

	"flordb/internal/relation"
)

// binder resolves column references against a schema. Qualified references
// ("t.col") try the qualified name first, then the bare name (the relation
// kernel disambiguates join collisions by prefixing with the qualifier).
type binder struct {
	schema *relation.Schema
}

func (b binder) resolve(c *ColumnRef) (int, error) {
	if c.Table != "" {
		if i := b.schema.Index(c.Table + "." + c.Name); i >= 0 {
			return i, nil
		}
	}
	if i := b.schema.Index(c.Name); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("sql: unknown column %q (have %v)", c.SQL(), b.schema.Names())
}

// compile turns an expression into an evaluator closure over rows of the
// bound schema. Aggregate calls are rejected here; the planner rewrites them
// before compilation.
func (b binder) compile(e Expr) (func(relation.Row) (relation.Value, error), error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Value
		return func(relation.Row) (relation.Value, error) { return v, nil }, nil
	case *ColumnRef:
		i, err := b.resolve(x)
		if err != nil {
			return nil, err
		}
		return func(r relation.Row) (relation.Value, error) { return r[i], nil }, nil
	case *UnaryExpr:
		inner, err := b.compile(x.Expr)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return func(r relation.Row) (relation.Value, error) {
				v, err := inner(r)
				if err != nil {
					return relation.Null(), err
				}
				if v.IsNull() {
					return relation.Null(), nil
				}
				bv, err := truthy(v)
				if err != nil {
					return relation.Null(), err
				}
				return relation.Bool(!bv), nil
			}, nil
		case "-":
			return func(r relation.Row) (relation.Value, error) {
				v, err := inner(r)
				if err != nil || v.IsNull() {
					return relation.Null(), err
				}
				switch v.Type() {
				case relation.TInt:
					return relation.Int(-v.AsInt()), nil
				case relation.TFloat:
					return relation.Float(-v.AsFloat()), nil
				}
				return relation.Null(), fmt.Errorf("sql: unary minus on %s", v.Type())
			}, nil
		}
		return nil, fmt.Errorf("sql: unknown unary operator %q", x.Op)
	case *IsNullExpr:
		inner, err := b.compile(x.Expr)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return func(r relation.Row) (relation.Value, error) {
			v, err := inner(r)
			if err != nil {
				return relation.Null(), err
			}
			return relation.Bool(v.IsNull() != negate), nil
		}, nil
	case *InExpr:
		inner, err := b.compile(x.Expr)
		if err != nil {
			return nil, err
		}
		items := make([]func(relation.Row) (relation.Value, error), len(x.List))
		for i, le := range x.List {
			f, err := b.compile(le)
			if err != nil {
				return nil, err
			}
			items[i] = f
		}
		negate := x.Negate
		return func(r relation.Row) (relation.Value, error) {
			v, err := inner(r)
			if err != nil {
				return relation.Null(), err
			}
			if v.IsNull() {
				return relation.Null(), nil
			}
			for _, f := range items {
				iv, err := f(r)
				if err != nil {
					return relation.Null(), err
				}
				if relation.Equal(v, iv) {
					return relation.Bool(!negate), nil
				}
			}
			return relation.Bool(negate), nil
		}, nil
	case *BetweenExpr:
		inner, err := b.compile(x.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := b.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return func(r relation.Row) (relation.Value, error) {
			v, err := inner(r)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			lv, err := lo(r)
			if err != nil || lv.IsNull() {
				return relation.Null(), err
			}
			hv, err := hi(r)
			if err != nil || hv.IsNull() {
				return relation.Null(), err
			}
			in := relation.Compare(v, lv) >= 0 && relation.Compare(v, hv) <= 0
			return relation.Bool(in != negate), nil
		}, nil
	case *BinaryExpr:
		return b.compileBinary(x)
	case *FuncCall:
		if x.IsAggregate() {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", x.Name)
		}
		return b.compileScalarFunc(x)
	case *Star:
		return nil, fmt.Errorf("sql: '*' not allowed in this position")
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

func (b binder) compileBinary(x *BinaryExpr) (func(relation.Row) (relation.Value, error), error) {
	left, err := b.compile(x.Left)
	if err != nil {
		return nil, err
	}
	right, err := b.compile(x.Right)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case "AND", "OR":
		return func(r relation.Row) (relation.Value, error) {
			lv, err := left(r)
			if err != nil {
				return relation.Null(), err
			}
			// Three-valued logic with short circuit.
			var lb, lNull bool
			if lv.IsNull() {
				lNull = true
			} else if lb, err = truthy(lv); err != nil {
				return relation.Null(), err
			}
			if !lNull {
				if op == "AND" && !lb {
					return relation.Bool(false), nil
				}
				if op == "OR" && lb {
					return relation.Bool(true), nil
				}
			}
			rv, err := right(r)
			if err != nil {
				return relation.Null(), err
			}
			if rv.IsNull() {
				return relation.Null(), nil
			}
			rb, err := truthy(rv)
			if err != nil {
				return relation.Null(), err
			}
			if lNull {
				if op == "AND" && !rb {
					return relation.Bool(false), nil
				}
				if op == "OR" && rb {
					return relation.Bool(true), nil
				}
				return relation.Null(), nil
			}
			if op == "AND" {
				return relation.Bool(lb && rb), nil
			}
			return relation.Bool(lb || rb), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		return func(r relation.Row) (relation.Value, error) {
			lv, err := left(r)
			if err != nil {
				return relation.Null(), err
			}
			rv, err := right(r)
			if err != nil {
				return relation.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return relation.Null(), nil
			}
			c := relation.Compare(lv, rv)
			var out bool
			switch op {
			case "=":
				out = c == 0
			case "!=":
				out = c != 0
			case "<":
				out = c < 0
			case "<=":
				out = c <= 0
			case ">":
				out = c > 0
			case ">=":
				out = c >= 0
			}
			return relation.Bool(out), nil
		}, nil
	case "LIKE":
		return func(r relation.Row) (relation.Value, error) {
			lv, err := left(r)
			if err != nil {
				return relation.Null(), err
			}
			rv, err := right(r)
			if err != nil {
				return relation.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return relation.Null(), nil
			}
			if lv.Type() != relation.TText || rv.Type() != relation.TText {
				return relation.Null(), fmt.Errorf("sql: LIKE requires text operands")
			}
			re, err := likeRegexp(rv.AsText())
			if err != nil {
				return relation.Null(), err
			}
			return relation.Bool(re.MatchString(lv.AsText())), nil
		}, nil
	case "+", "-", "*", "/", "%":
		return func(r relation.Row) (relation.Value, error) {
			lv, err := left(r)
			if err != nil {
				return relation.Null(), err
			}
			rv, err := right(r)
			if err != nil {
				return relation.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return relation.Null(), nil
			}
			if op == "+" && lv.Type() == relation.TText && rv.Type() == relation.TText {
				return relation.Text(lv.AsText() + rv.AsText()), nil
			}
			if !lv.IsNumeric() || !rv.IsNumeric() {
				return relation.Null(), fmt.Errorf("sql: %s on non-numeric operands %s, %s", op, lv.Type(), rv.Type())
			}
			if lv.Type() == relation.TInt && rv.Type() == relation.TInt && op != "/" {
				a, bb := lv.AsInt(), rv.AsInt()
				switch op {
				case "+":
					return relation.Int(a + bb), nil
				case "-":
					return relation.Int(a - bb), nil
				case "*":
					return relation.Int(a * bb), nil
				case "%":
					if bb == 0 {
						return relation.Null(), fmt.Errorf("sql: modulo by zero")
					}
					return relation.Int(a % bb), nil
				}
			}
			a, bb := lv.AsFloat(), rv.AsFloat()
			switch op {
			case "+":
				return relation.Float(a + bb), nil
			case "-":
				return relation.Float(a - bb), nil
			case "*":
				return relation.Float(a * bb), nil
			case "/":
				if bb == 0 {
					return relation.Null(), fmt.Errorf("sql: division by zero")
				}
				return relation.Float(a / bb), nil
			case "%":
				return relation.Null(), fmt.Errorf("sql: modulo requires integers")
			}
			return relation.Null(), nil
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown operator %q", op)
}

func (b binder) compileScalarFunc(x *FuncCall) (func(relation.Row) (relation.Value, error), error) {
	args := make([]func(relation.Row) (relation.Value, error), len(x.Args))
	for i, a := range x.Args {
		f, err := b.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s expects %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "lower", "upper", "length", "trim":
		if err := need(1); err != nil {
			return nil, err
		}
		name := x.Name
		return func(r relation.Row) (relation.Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			s, err := relation.Coerce(v, relation.TText)
			if err != nil {
				return relation.Null(), err
			}
			switch name {
			case "lower":
				return relation.Text(strings.ToLower(s.AsText())), nil
			case "upper":
				return relation.Text(strings.ToUpper(s.AsText())), nil
			case "length":
				return relation.Int(int64(len(s.AsText()))), nil
			default:
				return relation.Text(strings.TrimSpace(s.AsText())), nil
			}
		}, nil
	case "coalesce":
		if len(args) == 0 {
			return nil, fmt.Errorf("sql: coalesce needs at least one argument")
		}
		return func(r relation.Row) (relation.Value, error) {
			for _, f := range args {
				v, err := f(r)
				if err != nil {
					return relation.Null(), err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return relation.Null(), nil
		}, nil
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r relation.Row) (relation.Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			switch v.Type() {
			case relation.TInt:
				if v.AsInt() < 0 {
					return relation.Int(-v.AsInt()), nil
				}
				return v, nil
			case relation.TFloat:
				if v.AsFloat() < 0 {
					return relation.Float(-v.AsFloat()), nil
				}
				return v, nil
			}
			return relation.Null(), fmt.Errorf("sql: abs on %s", v.Type())
		}, nil
	case "cast_int":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r relation.Row) (relation.Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			return relation.Coerce(v, relation.TInt)
		}, nil
	case "cast_float":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r relation.Row) (relation.Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			return relation.Coerce(v, relation.TFloat)
		}, nil
	case "cast_text":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r relation.Row) (relation.Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			return relation.Coerce(v, relation.TText)
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown function %q", x.Name)
}

// ---------- Vectorized predicate evaluation ----------

// compileBatchPredicate is the vectorized entry point for filter
// evaluation: it compiles a predicate into a kernel that evaluates the
// expression over a whole batch and compacts the selection vector to the
// passing rows. Comparisons between a column and a literal (either operand
// order) or between two columns, IS [NOT] NULL on a column, [NOT] IN over a
// literal list, [NOT] BETWEEN literal bounds, and AND/OR combinations of
// those run as tight loops over column slices without closure dispatch.
// Everything else falls back to the compiled row evaluator applied to a
// scratch row populated with only the referenced columns. Row-at-a-time
// semantics are preserved exactly: a NULL predicate result filters the row,
// and evaluation errors park in evalErr and suppress all subsequent rows
// (matching applyFilter).
func (b binder) compileBatchPredicate(e Expr, evalErr *error) (relation.BatchPredicate, error) {
	if k := b.kernelize(e); k != nil {
		return k, nil
	}
	return b.batchFallback(e, evalErr)
}

// kernelize returns a closure-free vectorized kernel for the supported
// predicate shapes, or nil when e needs the generic fallback. Kernels never
// produce evaluation errors, which is what makes decomposing AND/OR safe:
// with errors impossible, "filtered because false" and "filtered because
// NULL" compose identically to the row evaluator's three-valued logic.
func (b binder) kernelize(e Expr) relation.BatchPredicate {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			l, r := b.kernelize(x.Left), b.kernelize(x.Right)
			if l == nil || r == nil {
				return nil
			}
			return func(bt *relation.Batch) {
				l(bt)
				if len(bt.Sel) > 0 {
					r(bt)
				}
			}
		case "OR":
			l, r := b.kernelize(x.Left), b.kernelize(x.Right)
			if l == nil || r == nil {
				return nil
			}
			return orKernel(l, r)
		case "=", "!=", "<", "<=", ">", ">=":
			lref, lok := x.Left.(*ColumnRef)
			rref, rok := x.Right.(*ColumnRef)
			if lok && rok {
				lp, lerr := b.resolve(lref)
				rp, rerr := b.resolve(rref)
				if lerr != nil || rerr != nil {
					return nil
				}
				return colColKernel(lp, rp, x.Op)
			}
			if ref, lit, op, ok := colCmpLit(x); ok {
				if p, err := b.resolve(ref); err == nil {
					return colLitKernel(p, lit, op)
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
		return func(bt *relation.Batch) {
			col := bt.Cols[p]
			sel := bt.Sel[:0]
			for _, i := range bt.Sel {
				if col[i].IsNull() != negate {
					sel = append(sel, i)
				}
			}
			bt.Sel = sel
		}
	case *InExpr:
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
		negate := x.Negate
		return func(bt *relation.Batch) {
			col := bt.Cols[p]
			sel := bt.Sel[:0]
			for _, i := range bt.Sel {
				v := &col[i]
				if v.IsNull() {
					continue
				}
				match := false
				for k := range lits {
					// relation.Equal semantics: NULL list items never match.
					if !lits[k].IsNull() && relation.ComparePtr(v, &lits[k]) == 0 {
						match = true
						break
					}
				}
				if match != negate {
					sel = append(sel, i)
				}
			}
			bt.Sel = sel
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
			// A NULL bound makes the predicate NULL for every row.
			return func(bt *relation.Batch) { bt.Sel = bt.Sel[:0] }
		}
		negate := x.Negate
		return func(bt *relation.Batch) {
			col := bt.Cols[p]
			sel := bt.Sel[:0]
			for _, i := range bt.Sel {
				v := &col[i]
				if v.IsNull() {
					continue
				}
				in := relation.ComparePtr(v, &lo) >= 0 && relation.ComparePtr(v, &hi) <= 0
				if in != negate {
					sel = append(sel, i)
				}
			}
			bt.Sel = sel
		}
	}
	return nil
}

// cmpWant maps a comparison operator to which Compare outcomes (-1, 0, +1,
// indexed as 0, 1, 2) satisfy it, so kernels branch on a table instead of
// re-switching on the operator string per row.
func cmpWant(op string) [3]bool {
	switch op {
	case "=":
		return [3]bool{false, true, false}
	case "!=":
		return [3]bool{true, false, true}
	case "<":
		return [3]bool{true, false, false}
	case "<=":
		return [3]bool{true, true, false}
	case ">":
		return [3]bool{false, false, true}
	case ">=":
		return [3]bool{false, true, true}
	}
	return [3]bool{}
}

// colLitKernel compares one column against a literal. NULL column values
// never pass (SQL comparison with NULL is NULL); a NULL literal passes
// nothing at all.
func colLitKernel(pos int, lit relation.Value, op string) relation.BatchPredicate {
	if lit.IsNull() {
		return func(bt *relation.Batch) { bt.Sel = bt.Sel[:0] }
	}
	want := cmpWant(op)
	return func(bt *relation.Batch) {
		col := bt.Cols[pos]
		sel := bt.Sel[:0]
		for _, i := range bt.Sel {
			v := &col[i]
			if v.IsNull() {
				continue
			}
			if want[relation.ComparePtr(v, &lit)+1] {
				sel = append(sel, i)
			}
		}
		bt.Sel = sel
	}
}

// colColKernel compares two columns of the batch.
func colColKernel(lpos, rpos int, op string) relation.BatchPredicate {
	want := cmpWant(op)
	return func(bt *relation.Batch) {
		lcol, rcol := bt.Cols[lpos], bt.Cols[rpos]
		sel := bt.Sel[:0]
		for _, i := range bt.Sel {
			lv, rv := &lcol[i], &rcol[i]
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			if want[relation.ComparePtr(lv, rv)+1] {
				sel = append(sel, i)
			}
		}
		bt.Sel = sel
	}
}

// orKernel runs both sides over copies of the selection vector and merges
// the survivors. Because kernels are error-free, "row passes l OR r" is
// exactly "l keeps it or r keeps it" under three-valued logic: NULL and
// false both mean "not kept".
func orKernel(l, r relation.BatchPredicate) relation.BatchPredicate {
	var lbuf, rbuf []int
	return func(bt *relation.Batch) {
		lbuf = append(lbuf[:0], bt.Sel...)
		rbuf = append(rbuf[:0], bt.Sel...)
		out := bt.Sel[:0]
		bt.Sel = lbuf
		l(bt)
		lres := bt.Sel
		bt.Sel = rbuf
		r(bt)
		rres := bt.Sel
		// Merge-union two ascending index lists back into the original
		// buffer (the union is a subset of the original selection, so it
		// fits; lres/rres live in separate buffers, so no aliasing).
		i, j := 0, 0
		for i < len(lres) && j < len(rres) {
			switch {
			case lres[i] < rres[j]:
				out = append(out, lres[i])
				i++
			case lres[i] > rres[j]:
				out = append(out, rres[j])
				j++
			default:
				out = append(out, lres[i])
				i++
				j++
			}
		}
		out = append(out, lres[i:]...)
		out = append(out, rres[j:]...)
		bt.Sel = out
	}
}

// referencedCols lists the schema positions of every column reference in e,
// deduplicated. The batch fallback populates only these in its scratch row.
func (b binder) referencedCols(e Expr) []int {
	seen := make(map[int]bool)
	var out []int
	walkColumnRefs(e, func(ref *ColumnRef) {
		if i, err := b.resolve(ref); err == nil && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	})
	return out
}

// batchFallback evaluates an arbitrary predicate row-by-row over the batch
// through the compiled row evaluator, copying only the referenced columns
// into a reused scratch row. Still no per-row allocation — just no
// column-at-a-time loop.
func (b binder) batchFallback(e Expr, evalErr *error) (relation.BatchPredicate, error) {
	f, err := b.compile(e)
	if err != nil {
		return nil, err
	}
	need := b.referencedCols(e)
	scratch := make(relation.Row, b.schema.Len())
	return func(bt *relation.Batch) {
		if *evalErr != nil {
			bt.Sel = bt.Sel[:0]
			return
		}
		sel := bt.Sel[:0]
		for _, i := range bt.Sel {
			for _, c := range need {
				scratch[c] = bt.Cols[c][i]
			}
			v, err := f(scratch)
			if err != nil {
				*evalErr = err
				break
			}
			if v.IsNull() {
				continue
			}
			tb, err := truthy(v)
			if err != nil {
				*evalErr = err
				break
			}
			if tb {
				sel = append(sel, i)
			}
		}
		bt.Sel = sel
	}, nil
}

func truthy(v relation.Value) (bool, error) {
	switch v.Type() {
	case relation.TBool:
		return v.AsBool(), nil
	case relation.TInt:
		return v.AsInt() != 0, nil
	case relation.TFloat:
		return v.AsFloat() != 0, nil
	default:
		return false, fmt.Errorf("sql: %s is not a boolean", v.Type())
	}
}

var likeCache sync.Map // pattern -> *regexp.Regexp

// likeRegexp compiles a SQL LIKE pattern (% and _) into a cached regexp.
func likeRegexp(pattern string) (*regexp.Regexp, error) {
	if re, ok := likeCache.Load(pattern); ok {
		return re.(*regexp.Regexp), nil
	}
	var sb strings.Builder
	sb.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, fmt.Errorf("sql: bad LIKE pattern %q: %w", pattern, err)
	}
	likeCache.Store(pattern, re)
	return re, nil
}
