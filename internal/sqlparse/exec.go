package sqlparse

import (
	"fmt"
	"strings"

	"flordb/internal/relation"
)

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    []relation.Row
}

// Run parses and executes a SQL query against a catalog — the live database
// (latest visibility) or a pinned snapshot (one-epoch visibility).
func Run(cat relation.Catalog, query string) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Execute(cat, stmt)
}

// ExecOptions tunes statement execution.
type ExecOptions struct {
	// ScanWorkers caps the morsel-driven parallel scan worker pool. 0 means
	// GOMAXPROCS; 1 forces serial execution. The effective pool is
	// min(GOMAXPROCS, ScanWorkers), and never more than one worker per
	// morsel (see fanOut).
	ScanWorkers int
}

// Execute runs a parsed statement against a catalog using the query planner
// (index-backed access paths, predicate pushdown below joins, morsel-driven
// parallel full scans). An EXPLAIN statement returns the rendered plan
// instead of rows. The statement is not mutated, so a cached parse may be
// executed concurrently.
func Execute(cat relation.Catalog, stmt *SelectStmt) (*Result, error) {
	return ExecuteOptions(cat, stmt, ExecOptions{})
}

// ExecuteOptions is Execute with execution tuning.
func ExecuteOptions(cat relation.Catalog, stmt *SelectStmt, opts ExecOptions) (*Result, error) {
	return execute(cat, stmt, func(cat relation.Catalog, ctx *execCtx) (*compiled, error) {
		in, err := planInput(cat, stmt, ctx)
		if err != nil {
			return nil, err
		}
		return compileSelect(in, stmt, ctx, EffectiveScanWorkers(opts.ScanWorkers))
	})
}

// ExecuteScan runs a parsed statement with the planner disabled: every table
// is fully scanned row by row, joins build on the right, and the WHERE
// clause filters the joined rows post hoc (see scanInput). It is the
// reference implementation the planner is property-tested against and the
// baseline the C8–C10 benchmarks measure.
func ExecuteScan(cat relation.Catalog, stmt *SelectStmt) (*Result, error) {
	return execute(cat, stmt, func(cat relation.Catalog, ctx *execCtx) (*compiled, error) {
		rows, err := scanInput(cat, stmt, ctx)
		if err != nil {
			return nil, err
		}
		in := &input{it: relation.NewBatchFromRows(rows, 0), node: &PlanNode{Op: "RowScan", Detail: "reference executor"}}
		return compileSelect(in, stmt, ctx, 1)
	})
}

// scanInput is the reference FROM/JOIN/WHERE: row-at-a-time full scans,
// hash joins building on the right input, and the whole WHERE clause over
// the joined rows.
func scanInput(cat relation.Catalog, stmt *SelectStmt, ctx *execCtx) (relation.Iterator, error) {
	it, err := cat.Source(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		right, err := cat.Source(j.Table.Name)
		if err != nil {
			return nil, err
		}
		leftCols, rightCols, residual, err := splitJoinOn(j.On, it.Schema(), right.Schema(), j.Table.Binding())
		if err != nil {
			return nil, err
		}
		if it, err = relation.NewHashJoin(it, right, leftCols, rightCols, j.Table.Binding()); err != nil {
			return nil, err
		}
		if residual != nil {
			if it, err = applyRowFilter(ctx, it, residual); err != nil {
				return nil, err
			}
		}
	}
	if stmt.Where != nil {
		return applyRowFilter(ctx, it, stmt.Where)
	}
	return it, nil
}

// execute pins the statement's AS OF epoch, compiles it with plan, and runs
// it (or renders its plan, for EXPLAIN).
func execute(cat relation.Catalog, stmt *SelectStmt, plan func(relation.Catalog, *execCtx) (*compiled, error)) (*Result, error) {
	if stmt.AsOf != nil {
		if stmt.AsOf.ByTime {
			// Timestamp resolution needs the session's epoch↔timestamp map;
			// flor.Session rewrites ByTime clauses into epoch form before
			// executing. Reaching here means the statement bypassed it.
			return nil, fmt.Errorf("sql: AS OF TIMESTAMP requires a session to resolve the timestamp to an epoch")
		}
		tt, ok := cat.(relation.TimeTraveler)
		if !ok {
			return nil, fmt.Errorf("sql: this catalog does not support AS OF")
		}
		pinned, release, err := tt.AsOf(stmt.AsOf.Epoch)
		if err != nil {
			return nil, err
		}
		defer release()
		cat = pinned
	}
	ctx := &execCtx{}
	c, err := plan(cat, ctx)
	if err != nil {
		return nil, err
	}

	if stmt.Explain {
		lines := c.plan.Lines()
		rows := make([]relation.Row, len(lines))
		for i, l := range lines {
			rows[i] = relation.Row{relation.Text(l)}
		}
		return &Result{Columns: []string{"plan"}, Rows: rows}, nil
	}

	rows := relation.Collect(c.it)
	if err := ctx.firstErr(); err != nil {
		return nil, err
	}
	if c.hidden > 0 {
		for i, r := range rows {
			rows[i] = r[:len(c.columns)]
		}
	}
	return &Result{Columns: c.columns, Rows: rows}, nil
}

// compileSelect stacks the statement's output operators on its planned
// input. The pipeline up to the projection — or, for an aggregate, up to
// the pre-projection of group keys and arguments — is compiled once and
// runs as a lazy serial stream, unless fanOut lets a full scan run it on
// several morsel workers (see gather).
func compileSelect(in *input, stmt *SelectStmt, ctx *execCtx, workers int) (*compiled, error) {
	agg := stmt.HasAggregates() || len(stmt.GroupBy) > 0
	if !agg && stmt.Having != nil {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}
	schema := in.it.Schema()
	var (
		sp    *simplePlan
		ap    *aggPlan
		items []projItem
		err   error
	)
	if agg {
		if ap, err = buildAggPlan(stmt); err != nil {
			return nil, err
		}
		items = ap.pre
	} else {
		if sp, err = buildSimplePlan(stmt, schema); err != nil {
			return nil, err
		}
		items = sp.items
	}
	project := func(it relation.BatchIterator) (relation.BatchIterator, error) {
		exprs := make([]relation.BatchProjExpr, 0, len(items))
		for _, item := range items {
			e, err := compileProjExpr(binder{schema: schema}, ctx, item.expr, item.name, item.captureErr)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
		}
		return relation.NewBatchProject(it, exprs)
	}
	top, err := project(in.it)
	if err != nil {
		return nil, err
	}
	if n, morsels := fanOut(in, stmt, agg, workers); n > 1 {
		return gather(in, top, project, n, morsels, stmt, ctx, sp, ap)
	}
	if agg {
		grouped, err := relation.NewBatchGroup(top, ap.groupCols, ap.specs)
		if err != nil {
			return nil, err
		}
		node := &PlanNode{Op: "Aggregate", Detail: aggDetail(ap.groupCols, ap.rw.calls), Batched: true, Children: []*PlanNode{in.node}}
		return compileAggPost(grouped, node, stmt, ctx, ap)
	}
	node := &PlanNode{Op: "Project", Detail: "[" + strings.Join(sp.visible, ", ") + "]", Batched: true, Children: []*PlanNode{in.node}}
	return finishSimple(relation.NewRowsFromBatches(top), node, stmt, sp)
}

// compiled is a fully planned statement: the operator pipeline, the plan tree
// describing it, and the output shape.
type compiled struct {
	it      relation.Iterator
	plan    *PlanNode
	columns []string // visible output columns
	hidden  int      // trailing hidden sort columns to strip
}

// splitJoinOn decomposes an ON clause that is a conjunction of equality
// predicates between a left column and a right column. Predicates that
// aren't cross-side equalities become a residual filter applied after the
// hash join.
func splitJoinOn(on Expr, left, right *relation.Schema, rightBinding string) (leftCols, rightCols []string, residual Expr, err error) {
	conjuncts := flattenAnd(on)
	for _, c := range conjuncts {
		be, ok := c.(*BinaryExpr)
		if ok && be.Op == "=" {
			lref, lok := be.Left.(*ColumnRef)
			rref, rok := be.Right.(*ColumnRef)
			if lok && rok {
				lcol, lSide := resolveSide(lref, left, right, rightBinding)
				rcol, rSide := resolveSide(rref, left, right, rightBinding)
				if lSide == 'L' && rSide == 'R' {
					leftCols = append(leftCols, lcol)
					rightCols = append(rightCols, rcol)
					continue
				}
				if lSide == 'R' && rSide == 'L' {
					leftCols = append(leftCols, rcol)
					rightCols = append(rightCols, lcol)
					continue
				}
			}
		}
		if residual == nil {
			residual = c
		} else {
			residual = &BinaryExpr{Op: "AND", Left: residual, Right: c}
		}
	}
	if len(leftCols) == 0 {
		return nil, nil, nil, fmt.Errorf("sql: JOIN ... ON must contain at least one cross-table equality")
	}
	return leftCols, rightCols, residual, nil
}

func resolveSide(c *ColumnRef, left, right *relation.Schema, rightBinding string) (string, byte) {
	if c.Table != "" && strings.EqualFold(c.Table, rightBinding) {
		if right.Index(c.Name) >= 0 {
			return c.Name, 'R'
		}
	}
	if left.Index(c.Name) >= 0 {
		return c.Name, 'L'
	}
	if c.Table != "" && left.Index(c.Table+"."+c.Name) >= 0 {
		return c.Table + "." + c.Name, 'L'
	}
	if right.Index(c.Name) >= 0 {
		return c.Name, 'R'
	}
	return c.Name, '?'
}

func flattenAnd(e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(flattenAnd(be.Left), flattenAnd(be.Right)...)
	}
	return []Expr{e}
}

// compileProjExpr compiles one output expression for a batch projection: a
// plain column reference becomes a pass-through (the projection aliases the
// column, zero work per row); anything else compiles to a row closure plus
// the set of input columns it reads. captureErr=false mirrors the
// hidden-sort-column behavior, where evaluation errors are dropped rather
// than surfaced.
func compileProjExpr(b binder, ctx *execCtx, e Expr, name string, captureErr bool) (relation.BatchProjExpr, error) {
	if cr, ok := e.(*ColumnRef); ok {
		if i, err := b.resolve(cr); err == nil {
			return relation.PassThrough(name, b.schema.Col(i).Type, i), nil
		}
	}
	f, err := b.compile(e)
	if err != nil {
		return relation.BatchProjExpr{}, err
	}
	out := relation.BatchProjExpr{Name: name, Type: inferType(e, b.schema), NeedCols: b.referencedCols(e)}
	if captureErr {
		capturedErr := new(error)
		ctx.register(capturedErr)
		out.Eval = func(r relation.Row) relation.Value {
			v, err := f(r)
			if err != nil && *capturedErr == nil {
				*capturedErr = err
			}
			return v
		}
	} else {
		out.Eval = func(r relation.Row) relation.Value {
			v, _ := f(r)
			return v
		}
	}
	return out, nil
}

// projItem is one projection output awaiting compilation: the expression,
// its output name, and whether evaluation errors surface (hidden sort
// columns drop them).
type projItem struct {
	expr       Expr
	name       string
	captureErr bool
}

// simplePlan is the AST-level shape of a non-aggregate statement — output
// items, hidden sort columns, sort keys — computed once per statement and
// compiled once per pipeline copy: compiled closures hold per-pipeline
// scratch state, so morsel workers cannot share them.
type simplePlan struct {
	items       []projItem
	visible     []string
	sortKeys    []relation.SortKey
	sortDisplay []string
	nHidden     int
}

// buildSimplePlan computes the projection/sort shape of a non-aggregate
// statement against the input schema.
func buildSimplePlan(stmt *SelectStmt, schema *relation.Schema) (*simplePlan, error) {
	sp := &simplePlan{}
	if len(stmt.Items) == 0 { // SELECT *
		for i := 0; i < schema.Len(); i++ {
			name := schema.Col(i).Name
			// A bare ColumnRef compiles to a pass-through of the resolved
			// position; schema column names are unique, so this is the column
			// itself.
			sp.items = append(sp.items, projItem{expr: &ColumnRef{Name: name}, name: name, captureErr: true})
			sp.visible = append(sp.visible, name)
		}
	} else {
		for _, item := range stmt.Items {
			sp.items = append(sp.items, projItem{expr: item.Expr, name: item.OutputName(), captureErr: true})
			sp.visible = append(sp.visible, item.OutputName())
		}
	}

	// Hidden sort columns: ORDER BY expressions not present among visible names.
	outNames := map[string]bool{}
	for _, v := range sp.visible {
		outNames[strings.ToLower(v)] = true
	}
	for i, oi := range stmt.OrderBy {
		if cr, ok := oi.Expr.(*ColumnRef); ok && cr.Table == "" && outNames[strings.ToLower(cr.Name)] {
			sp.sortKeys = append(sp.sortKeys, relation.SortKey{Col: cr.Name, Desc: oi.Desc})
			sp.sortDisplay = append(sp.sortDisplay, orderItemSQL(oi))
			continue
		}
		name := fmt.Sprintf("__sort%d", i)
		sp.items = append(sp.items, projItem{expr: oi.Expr, name: name})
		sp.nHidden++
		sp.sortKeys = append(sp.sortKeys, relation.SortKey{Col: name, Desc: oi.Desc})
		sp.sortDisplay = append(sp.sortDisplay, orderItemSQL(oi))
	}
	if stmt.Distinct && sp.nHidden > 0 {
		return nil, fmt.Errorf("sql: ORDER BY with DISTINCT must reference selected columns")
	}
	return sp, nil
}

// finishSimple stacks the post-projection operators (DISTINCT, ORDER BY,
// LIMIT) on an already-projected row stream. Shared by the serial and
// parallel paths: relation.NewSort is stable, so sorting a parallel result
// reassembled in morsel (= row store) order yields exactly the serial output.
func finishSimple(it relation.Iterator, node *PlanNode, stmt *SelectStmt, sp *simplePlan) (*compiled, error) {
	if stmt.Distinct {
		it = relation.NewDistinct(it)
		node = &PlanNode{Op: "Distinct", Children: []*PlanNode{node}}
	}
	if len(sp.sortKeys) > 0 {
		var err error
		it, err = relation.NewSort(it, sp.sortKeys)
		if err != nil {
			return nil, err
		}
		node = &PlanNode{Op: "Sort", Detail: "[" + strings.Join(sp.sortDisplay, ", ") + "]", Children: []*PlanNode{node}}
	}
	if stmt.Limit >= 0 || stmt.Offset > 0 {
		it = relation.NewLimit(it, stmt.Limit, stmt.Offset)
		node = &PlanNode{Op: "Limit", Detail: limitDetail(stmt), Children: []*PlanNode{node}}
	}
	return &compiled{it: it, plan: node, columns: sp.visible, hidden: sp.nHidden}, nil
}

func orderItemSQL(oi OrderItem) string {
	s := oi.Expr.SQL()
	if oi.Desc {
		s += " DESC"
	}
	return s
}

func limitDetail(stmt *SelectStmt) string {
	d := ""
	if stmt.Limit >= 0 {
		d = fmt.Sprintf("%d", stmt.Limit)
	}
	if stmt.Offset > 0 {
		if d != "" {
			d += " "
		}
		d += fmt.Sprintf("OFFSET %d", stmt.Offset)
	}
	return d
}

// aggPlan is the AST-level shape of an aggregate statement: the collected
// aggregate calls, the pre-projection items (group keys then aggregate
// arguments), and the aggregation specs. Like simplePlan, it is computed
// once and compiled per pipeline.
type aggPlan struct {
	rw        *aggRewriter
	pre       []projItem
	groupCols []string
	groupSQL  map[string]string
	specs     []relation.AggSpec
}

// buildAggPlan collects aggregate calls from the select items, HAVING and
// ORDER BY, and lays out the pre-projection and aggregation specs.
func buildAggPlan(stmt *SelectStmt) (*aggPlan, error) {
	rw := &aggRewriter{bySQL: map[string]string{}}
	for _, it := range stmt.Items {
		rw.collect(it.Expr)
	}
	if stmt.Having != nil {
		rw.collect(stmt.Having)
	}
	for _, oi := range stmt.OrderBy {
		rw.collect(oi.Expr)
	}

	ap := &aggPlan{
		rw:        rw,
		groupCols: make([]string, len(stmt.GroupBy)),
		groupSQL:  make(map[string]string, len(stmt.GroupBy)),
	}
	for i, ge := range stmt.GroupBy {
		name := fmt.Sprintf("__g%d", i)
		if cr, ok := ge.(*ColumnRef); ok {
			name = cr.Name
		}
		ap.pre = append(ap.pre, projItem{expr: ge, name: name, captureErr: true})
		ap.groupCols[i] = name
		ap.groupSQL[ge.SQL()] = name
	}
	for i, call := range rw.calls {
		outName := fmt.Sprintf("__agg%d", i)
		rw.bySQL[call.SQL()] = outName
		spec := relation.AggSpec{As: outName}
		switch call.Name {
		case "count":
			if len(call.Args) == 1 {
				if _, isStar := call.Args[0].(*Star); isStar {
					spec.Kind = relation.AggCountStar
					ap.specs = append(ap.specs, spec)
					continue
				}
			}
			spec.Kind = relation.AggCount
		case "sum":
			spec.Kind = relation.AggSum
		case "avg":
			spec.Kind = relation.AggAvg
		case "min":
			spec.Kind = relation.AggMin
		case "max":
			spec.Kind = relation.AggMax
		}
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("sql: %s expects one argument", call.Name)
		}
		argName := fmt.Sprintf("__arg%d", i)
		ap.pre = append(ap.pre, projItem{expr: call.Args[0], name: argName, captureErr: true})
		spec.Col = argName
		ap.specs = append(ap.specs, spec)
	}
	return ap, nil
}

// compileAggPost stacks the post-aggregation half of the pipeline — HAVING,
// select-list rewrite, DISTINCT, ORDER BY, LIMIT — on an aggregated row
// stream. Shared by the serial path and the parallel path (where the input
// is the merged partial aggregate).
func compileAggPost(grouped relation.Iterator, node *PlanNode, stmt *SelectStmt, ctx *execCtx, ap *aggPlan) (*compiled, error) {
	rw, groupSQL := ap.rw, ap.groupSQL
	// Post-aggregation binder over the grouped schema.
	gb := binder{schema: grouped.Schema()}
	out := grouped
	if stmt.Having != nil {
		hexpr := rw.rewrite(stmt.Having, groupSQL)
		var err error
		out, err = applyRowFilter(ctx, out, hexpr)
		if err != nil {
			return nil, err
		}
		node = &PlanNode{Op: "Filter", Detail: "HAVING " + stmt.Having.SQL(), Children: []*PlanNode{node}}
	}

	if len(stmt.Items) == 0 {
		return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY")
	}
	var exprs []relation.ProjExpr
	var visible []string
	for _, item := range stmt.Items {
		re := rw.rewrite(item.Expr, groupSQL)
		f, err := gb.compile(re)
		if err != nil {
			return nil, fmt.Errorf("%w (non-aggregated column in aggregate query?)", err)
		}
		ff := f
		capturedErr := new(error)
		ctx.register(capturedErr)
		name := item.OutputName()
		exprs = append(exprs, relation.ProjExpr{Name: name, Type: inferType(re, grouped.Schema()), Eval: func(r relation.Row) relation.Value {
			v, err := ff(r)
			if err != nil && *capturedErr == nil {
				*capturedErr = err
			}
			return v
		}})
		visible = append(visible, name)
	}
	sortKeys := make([]relation.SortKey, 0, len(stmt.OrderBy))
	sortDisplay := make([]string, 0, len(stmt.OrderBy))
	var nHidden int
	outNames := map[string]bool{}
	for _, v := range visible {
		outNames[strings.ToLower(v)] = true
	}
	for i, oi := range stmt.OrderBy {
		if cr, ok := oi.Expr.(*ColumnRef); ok && cr.Table == "" && outNames[strings.ToLower(cr.Name)] {
			sortKeys = append(sortKeys, relation.SortKey{Col: cr.Name, Desc: oi.Desc})
			sortDisplay = append(sortDisplay, orderItemSQL(oi))
			continue
		}
		re := rw.rewrite(oi.Expr, groupSQL)
		f, err := gb.compile(re)
		if err != nil {
			return nil, err
		}
		ff := f
		name := fmt.Sprintf("__sort%d", i)
		exprs = append(exprs, relation.ProjExpr{Name: name, Type: inferType(re, grouped.Schema()), Eval: func(r relation.Row) relation.Value {
			v, _ := ff(r)
			return v
		}})
		nHidden++
		sortKeys = append(sortKeys, relation.SortKey{Col: name, Desc: oi.Desc})
		sortDisplay = append(sortDisplay, orderItemSQL(oi))
	}

	post, err := relation.NewProject(out, exprs)
	if err != nil {
		return nil, err
	}
	var final relation.Iterator = post
	node = &PlanNode{Op: "Project", Detail: "[" + strings.Join(visible, ", ") + "]", Children: []*PlanNode{node}}
	if stmt.Distinct {
		if nHidden > 0 {
			return nil, fmt.Errorf("sql: ORDER BY with DISTINCT must reference selected columns")
		}
		final = relation.NewDistinct(final)
		node = &PlanNode{Op: "Distinct", Children: []*PlanNode{node}}
	}
	if len(sortKeys) > 0 {
		final, err = relation.NewSort(final, sortKeys)
		if err != nil {
			return nil, err
		}
		node = &PlanNode{Op: "Sort", Detail: "[" + strings.Join(sortDisplay, ", ") + "]", Children: []*PlanNode{node}}
	}
	if stmt.Limit >= 0 || stmt.Offset > 0 {
		final = relation.NewLimit(final, stmt.Limit, stmt.Offset)
		node = &PlanNode{Op: "Limit", Detail: limitDetail(stmt), Children: []*PlanNode{node}}
	}
	return &compiled{it: final, plan: node, columns: visible, hidden: nHidden}, nil
}

func aggDetail(groupCols []string, calls []*FuncCall) string {
	var parts []string
	if len(groupCols) > 0 {
		parts = append(parts, "group by ["+strings.Join(groupCols, ", ")+"]")
	}
	aggs := make([]string, len(calls))
	for i, c := range calls {
		aggs[i] = c.SQL()
	}
	if len(aggs) > 0 {
		parts = append(parts, "aggs ["+strings.Join(aggs, ", ")+"]")
	}
	return strings.Join(parts, " ")
}

// aggRewriter collects aggregate FuncCalls and rewrites expressions to
// reference their output columns.
type aggRewriter struct {
	calls []*FuncCall
	bySQL map[string]string // agg SQL -> output column
}

func (rw *aggRewriter) collect(e Expr) {
	switch x := e.(type) {
	case *FuncCall:
		if x.IsAggregate() {
			sql := x.SQL()
			for _, c := range rw.calls {
				if c.SQL() == sql {
					return
				}
			}
			rw.calls = append(rw.calls, x)
			return
		}
		for _, a := range x.Args {
			rw.collect(a)
		}
	case *BinaryExpr:
		rw.collect(x.Left)
		rw.collect(x.Right)
	case *UnaryExpr:
		rw.collect(x.Expr)
	case *IsNullExpr:
		rw.collect(x.Expr)
	case *InExpr:
		rw.collect(x.Expr)
		for _, a := range x.List {
			rw.collect(a)
		}
	case *BetweenExpr:
		rw.collect(x.Expr)
		rw.collect(x.Lo)
		rw.collect(x.Hi)
	}
}

// rewrite replaces aggregate calls and group-by expressions with column refs
// into the aggregated schema.
func (rw *aggRewriter) rewrite(e Expr, groupSQL map[string]string) Expr {
	if name, ok := groupSQL[e.SQL()]; ok {
		return &ColumnRef{Name: name}
	}
	switch x := e.(type) {
	case *FuncCall:
		if x.IsAggregate() {
			if name, ok := rw.bySQL[x.SQL()]; ok {
				return &ColumnRef{Name: name}
			}
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rw.rewrite(a, groupSQL)
		}
		return &FuncCall{Name: x.Name, Args: args}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: rw.rewrite(x.Left, groupSQL), Right: rw.rewrite(x.Right, groupSQL)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Expr: rw.rewrite(x.Expr, groupSQL)}
	case *IsNullExpr:
		return &IsNullExpr{Expr: rw.rewrite(x.Expr, groupSQL), Negate: x.Negate}
	case *InExpr:
		list := make([]Expr, len(x.List))
		for i, a := range x.List {
			list[i] = rw.rewrite(a, groupSQL)
		}
		return &InExpr{Expr: rw.rewrite(x.Expr, groupSQL), List: list, Negate: x.Negate}
	case *BetweenExpr:
		return &BetweenExpr{Expr: rw.rewrite(x.Expr, groupSQL), Lo: rw.rewrite(x.Lo, groupSQL), Hi: rw.rewrite(x.Hi, groupSQL), Negate: x.Negate}
	}
	return e
}

// inferType gives a best-effort output type for projection schemas. The
// relation kernel treats types dynamically, so TText as a fallback is safe.
func inferType(e Expr, s *relation.Schema) relation.Type {
	switch x := e.(type) {
	case *Literal:
		if x.Value.IsNull() {
			return relation.TText
		}
		return x.Value.Type()
	case *ColumnRef:
		if x.Table != "" {
			if i := s.Index(x.Table + "." + x.Name); i >= 0 {
				return s.Col(i).Type
			}
		}
		if i := s.Index(x.Name); i >= 0 {
			return s.Col(i).Type
		}
		return relation.TText
	case *BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=", "LIKE":
			return relation.TBool
		}
		lt := inferType(x.Left, s)
		rt := inferType(x.Right, s)
		if x.Op == "/" || lt == relation.TFloat || rt == relation.TFloat {
			return relation.TFloat
		}
		if lt == relation.TText && rt == relation.TText {
			return relation.TText
		}
		return relation.TInt
	case *UnaryExpr:
		if x.Op == "NOT" {
			return relation.TBool
		}
		return inferType(x.Expr, s)
	case *IsNullExpr, *InExpr, *BetweenExpr:
		return relation.TBool
	case *FuncCall:
		switch x.Name {
		case "count":
			return relation.TInt
		case "sum", "avg", "abs", "cast_float":
			return relation.TFloat
		case "length", "cast_int":
			return relation.TInt
		case "lower", "upper", "trim", "cast_text":
			return relation.TText
		case "min", "max", "coalesce":
			if len(x.Args) > 0 {
				return inferType(x.Args[0], s)
			}
		}
		return relation.TText
	}
	return relation.TText
}
