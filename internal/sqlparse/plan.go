// Query planning. The planner is rule-based: it decomposes the WHERE clause
// into AND-ed conjuncts, pushes every single-table conjunct below the joins to
// the table it references, and picks an access path per base table —
// hash-index lookup for equality/IN predicates, ordered-index range scan for
// range predicates, full scan as the fallback — with the unconsumed residual
// applied as a filter over the narrowed stream. Joins materialize the smaller
// estimated input as the hash-build side. EXPLAIN renders the chosen plan
// tree without executing it (all access paths materialize lazily).
package sqlparse

import (
	"fmt"
	"sort"
	"strings"

	"flordb/internal/relation"
)

// PlanNode is one operator of a chosen query plan, used by EXPLAIN.
type PlanNode struct {
	Op       string // Scan, IndexLookup, IndexRange, Filter, HashJoin, ...
	Detail   string
	Batched  bool // operator executes batch-at-a-time (vectorized)
	Children []*PlanNode
}

// Lines renders the plan tree as indented text, one operator per line.
func (n *PlanNode) Lines() []string {
	var out []string
	n.render(&out, 0)
	return out
}

func (n *PlanNode) render(out *[]string, depth int) {
	line := strings.Repeat("  ", depth) + n.Op
	if n.Detail != "" {
		line += " " + n.Detail
	}
	if n.Batched {
		line += " batched=true"
	}
	*out = append(*out, line)
	for _, c := range n.Children {
		c.render(out, depth+1)
	}
}

// String renders the plan as one newline-joined string.
func (n *PlanNode) String() string { return strings.Join(n.Lines(), "\n") }

// execCtx threads deferred evaluation errors through a query pipeline. Filter
// and projection closures cannot return errors through the Iterator
// interface, so each registers an error slot here and the executor checks
// every slot after the stream is drained — including slots buried under
// joins, which the previous executor silently dropped.
type execCtx struct {
	errPtrs []*error
}

func (c *execCtx) register(p *error) { c.errPtrs = append(c.errPtrs, p) }

func (c *execCtx) firstErr() error {
	for _, p := range c.errPtrs {
		if *p != nil {
			return *p
		}
	}
	return nil
}

// applyFilter wraps in with a vectorized predicate compiled from pred;
// evaluation errors are registered on ctx and surfaced after execution.
func applyFilter(ctx *execCtx, in relation.BatchIterator, pred Expr) (relation.BatchIterator, error) {
	evalErr := new(error)
	ctx.register(evalErr)
	f, err := binder{schema: in.Schema()}.compileBatchPredicate(pred, evalErr)
	if err != nil {
		return nil, err
	}
	return relation.NewBatchFilter(in, f), nil
}

// applyRowFilter is applyFilter for row streams: the HAVING filter over
// aggregated groups, and the ExecuteScan reference executor.
func applyRowFilter(ctx *execCtx, in relation.Iterator, pred Expr) (relation.Iterator, error) {
	b := binder{schema: in.Schema()}
	f, err := b.compile(pred)
	if err != nil {
		return nil, err
	}
	evalErr := new(error)
	ctx.register(evalErr)
	return relation.NewFilter(in, func(r relation.Row) bool {
		if *evalErr != nil {
			return false
		}
		v, err := f(r)
		if err != nil {
			*evalErr = err
			return false
		}
		if v.IsNull() {
			return false
		}
		tb, err := truthy(v)
		if err != nil {
			*evalErr = err
			return false
		}
		return tb
	}), nil
}

// input is the planned FROM/JOIN/WHERE stream, compiled once. When the
// statement reads one base table through a full scan, full keeps that
// table's access so the executor can open further copies of the stream for
// morsel workers; scan is then the copy's scan operator.
type input struct {
	it   relation.BatchIterator
	node *PlanNode
	scan *relation.BatchScanOp
	full *access
}

// planInput builds the FROM/JOIN/WHERE pipeline: every WHERE conjunct that
// references a single source is pushed down to it (on a single-table
// statement, all of them are), each base table gets the access path
// planTableAccess picks, hash joins build on the smaller estimated input,
// and the remaining conjuncts filter the joined stream.
func planInput(cat relation.Catalog, stmt *SelectStmt, ctx *execCtx) (*input, error) {
	sources := make([]TableRef, 0, 1+len(stmt.Joins))
	sources = append(sources, stmt.From)
	for _, j := range stmt.Joins {
		sources = append(sources, j.Table)
	}

	// Simulate the joined schema to attribute each output column to the
	// source it comes from; this mirrors relation.Concat's collision
	// renaming exactly, so pushdown resolution matches the runtime binder.
	schemas := make([]*relation.Schema, len(sources))
	for i, ref := range sources {
		s, err := cat.SchemaOf(ref.Name)
		if err != nil {
			return nil, err
		}
		schemas[i] = s
	}
	combined := schemas[0]
	owner := make([]int, combined.Len())
	start := make([]int, len(sources)) // each source's first position in combined
	for k := 1; k < len(sources); k++ {
		start[k] = combined.Len()
		var err error
		combined, err = relation.Concat(combined, schemas[k], sources[k].Binding())
		if err != nil {
			return nil, err
		}
		for i := 0; i < schemas[k].Len(); i++ {
			owner = append(owner, k)
		}
	}

	// Split WHERE into conjuncts and push each single-source conjunct down
	// to its source; the rest stay above the joins.
	var conjuncts []Expr
	if stmt.Where != nil {
		conjuncts = flattenAnd(stmt.Where)
	}
	pushed := make([][]Expr, len(sources))
	var retained []Expr
	for _, c := range conjuncts {
		src := 0
		if len(sources) > 1 {
			src = conjunctOwner(c, combined, owner)
		}
		if src >= 0 {
			pushed[src] = append(pushed[src], c)
		} else {
			retained = append(retained, c)
		}
	}

	// Column pruning: a single table's scan materializes only the columns
	// read after its access path; a join source's, the columns the
	// statement reads anywhere (nil = all columns).
	needed := make([]func(residual []Expr) []int, len(sources))
	if len(sources) == 1 {
		needed[0] = func(residual []Expr) []int { return scanColumns(stmt, schemas[0], residual) }
	} else {
		read := append([]Expr(nil), conjuncts...)
		for _, j := range stmt.Joins {
			read = append(read, j.On)
		}
		if pos := scanColumns(stmt, combined, read); pos != nil {
			for k := range sources {
				cols := []int{}
				for _, p := range pos {
					if owner[p] == k {
						cols = append(cols, p-start[k])
					}
				}
				needed[k] = func([]Expr) []int { return cols }
			}
		}
	}

	first := planSource(cat, sources[0], pushed[0], needed[0])
	it, scan, err := first.open(ctx)
	if err != nil {
		return nil, err
	}
	in := &input{it: it, node: first.node, scan: scan}
	if len(stmt.Joins) == 0 && first.fullScan {
		in.full = first
	}

	est := first.est
	for k, j := range stmt.Joins {
		right := planSource(cat, sources[k+1], pushed[k+1], needed[k+1])
		rit, _, err := right.open(ctx)
		if err != nil {
			return nil, err
		}
		leftCols, rightCols, residual, err := splitJoinOn(j.On, in.it.Schema(), rit.Schema(), j.Table.Binding())
		if err != nil {
			return nil, err
		}
		// Build on the smaller estimated input; unknown (-1) loses to known.
		buildLeft := est >= 0 && (right.est < 0 || est < right.est)
		in.it, err = planJoin(in.it, rit, leftCols, rightCols, j.Table.Binding(), buildLeft)
		if err != nil {
			return nil, err
		}
		in.node = &PlanNode{
			Op:       "HashJoin",
			Detail:   joinDetail(leftCols, rightCols, buildLeft),
			Batched:  true,
			Children: []*PlanNode{in.node, right.node},
		}
		if est < 0 || right.est < 0 {
			est = -1
		} else if right.est > est {
			est = right.est
		}
		if residual != nil {
			if in.it, err = applyFilter(ctx, in.it, residual); err != nil {
				return nil, err
			}
			in.node = &PlanNode{Op: "Filter", Detail: residual.SQL(), Batched: true, Children: []*PlanNode{in.node}}
		}
	}

	if len(retained) > 0 {
		pred := combineAnd(retained)
		if in.it, err = applyFilter(ctx, in.it, pred); err != nil {
			return nil, err
		}
		in.node = &PlanNode{Op: "Filter", Detail: pred.SQL(), Batched: true, Children: []*PlanNode{in.node}}
	}
	return in, nil
}

// planJoin wires one hash join: the build side is drained into the hash
// table, the probe side streams batch by batch. Output columns are
// left-then-right whichever side builds.
func planJoin(left, right relation.BatchIterator, leftCols, rightCols []string, rightBinding string, buildLeft bool) (relation.BatchIterator, error) {
	probe, build := left, right
	probeCols, buildCols := leftCols, rightCols
	if buildLeft {
		probe, build = right, left
		probeCols, buildCols = rightCols, leftCols
	}
	probePos, err := resolveAll(probe.Schema(), probeCols)
	if err != nil {
		return nil, err
	}
	buildPos, err := resolveAll(build.Schema(), buildCols)
	if err != nil {
		return nil, err
	}
	schema, err := relation.Concat(left.Schema(), right.Schema(), rightBinding)
	if err != nil {
		return nil, err
	}
	return relation.NewBatchHashJoin(probe, build, probePos, buildPos, schema, buildLeft)
}

func resolveAll(s *relation.Schema, cols []string) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		p := s.Index(c)
		if p < 0 {
			return nil, fmt.Errorf("sql: join: no column %q", c)
		}
		out[i] = p
	}
	return out, nil
}

// scanColumns lists the schema positions a statement reads through extra
// (a single table's residual conjuncts, or a join's whole WHERE and ON
// clauses) and its items, GROUP BY, HAVING and ORDER BY, for scan column
// pruning. Columns only an access path consumed are thus left out. nil
// means materialize everything: SELECT * (empty item list) or a reference
// that doesn't resolve against the schema (ORDER BY on an output alias, or
// a genuinely unknown column the later compile will report). A statement
// that reads no columns at all — e.g. SELECT count(*) with no residual —
// returns an empty non-nil slice: the scan materializes nothing and only
// computes the visibility selection.
func scanColumns(stmt *SelectStmt, schema *relation.Schema, extra []Expr) []int {
	if len(stmt.Items) == 0 {
		return nil
	}
	b := binder{schema: schema}
	seen := make(map[int]bool)
	out := []int{}
	bad := false
	add := func(ref *ColumnRef) {
		if bad {
			return
		}
		pos, err := b.resolve(ref)
		if err != nil {
			bad = true
			return
		}
		if !seen[pos] {
			seen[pos] = true
			out = append(out, pos)
		}
	}
	exprs := append([]Expr(nil), extra...)
	for _, item := range stmt.Items {
		exprs = append(exprs, item.Expr)
	}
	exprs = append(exprs, stmt.GroupBy...)
	if stmt.Having != nil {
		exprs = append(exprs, stmt.Having)
	}
	for _, oi := range stmt.OrderBy {
		exprs = append(exprs, oi.Expr)
	}
	for _, e := range exprs {
		walkColumnRefs(e, add)
	}
	if bad {
		return nil
	}
	sort.Ints(out)
	return out
}

func joinDetail(leftCols, rightCols []string, buildLeft bool) string {
	parts := make([]string, len(leftCols))
	for i := range leftCols {
		parts[i] = leftCols[i] + " = " + rightCols[i]
	}
	side := "right"
	if buildLeft {
		side = "left"
	}
	return "on (" + strings.Join(parts, ", ") + ") build=" + side
}

// conjunctOwner returns the index of the single source every column reference
// in c resolves to, or -1 when c touches several sources (or none, or an
// unknown column — those stay above the join and error there if truly bad).
func conjunctOwner(c Expr, combined *relation.Schema, owner []int) int {
	src := -1
	ok := true
	walkColumnRefs(c, func(ref *ColumnRef) {
		if !ok {
			return
		}
		pos := -1
		if ref.Table != "" {
			pos = combined.Index(ref.Table + "." + ref.Name)
		}
		if pos < 0 {
			pos = combined.Index(ref.Name)
		}
		if pos < 0 {
			ok = false
			return
		}
		if src == -1 {
			src = owner[pos]
		} else if src != owner[pos] {
			ok = false
		}
	})
	if !ok {
		return -1
	}
	return src
}

func walkColumnRefs(e Expr, fn func(*ColumnRef)) {
	switch x := e.(type) {
	case *ColumnRef:
		fn(x)
	case *BinaryExpr:
		walkColumnRefs(x.Left, fn)
		walkColumnRefs(x.Right, fn)
	case *UnaryExpr:
		walkColumnRefs(x.Expr, fn)
	case *IsNullExpr:
		walkColumnRefs(x.Expr, fn)
	case *InExpr:
		walkColumnRefs(x.Expr, fn)
		for _, a := range x.List {
			walkColumnRefs(a, fn)
		}
	case *BetweenExpr:
		walkColumnRefs(x.Expr, fn)
		walkColumnRefs(x.Lo, fn)
		walkColumnRefs(x.Hi, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkColumnRefs(a, fn)
		}
	}
}

func combineAnd(exprs []Expr) Expr {
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &BinaryExpr{Op: "AND", Left: out, Right: e}
	}
	return out
}

// access is one planned FROM/JOIN source: its plan subtree and estimated
// row count (-1 = unknown; used to pick hash-join build sides), and open,
// which compiles a fresh copy of the stream — access path plus residual
// filter — and returns it with its base-table scan (nil for a virtual
// table). A fullScan access is the one the executor may open once per
// morsel worker; zoned reports that its scan prunes pages by zone map.
type access struct {
	node     *PlanNode
	est      int64
	open     func(ctx *execCtx) (relation.BatchIterator, *relation.BatchScanOp, error)
	fullScan bool
	zoned    bool
}

// planSource plans one FROM/JOIN source given the conjuncts pushed to it.
// needed computes a base table's scan columns from its residual conjuncts
// (nil = all columns).
func planSource(cat relation.Catalog, ref TableRef, conjs []Expr, needed func([]Expr) []int) *access {
	if t, ok := cat.Reader(ref.Name); ok {
		return planTableAccess(t, ref, conjs, needed)
	}
	acc := &access{est: -1, node: residualNode(&PlanNode{Op: "VirtualScan", Detail: sourceDetail(ref, -1)}, conjs)}
	acc.open = func(ctx *execCtx) (relation.BatchIterator, *relation.BatchScanOp, error) {
		rows, err := cat.Source(ref.Name)
		if err != nil {
			return nil, nil, err
		}
		it, err := withResidual(ctx, relation.NewBatchFromRows(rows, 0), conjs)
		return it, nil, err
	}
	return acc
}

// withResidual filters a freshly opened source stream by the conjuncts its
// access path did not consume.
func withResidual(ctx *execCtx, it relation.BatchIterator, residual []Expr) (relation.BatchIterator, error) {
	if len(residual) == 0 {
		return it, nil
	}
	return applyFilter(ctx, it, combineAnd(residual))
}

// residualNode puts the residual filter's plan node on top of an access
// path's.
func residualNode(node *PlanNode, residual []Expr) *PlanNode {
	if len(residual) == 0 {
		return node
	}
	return &PlanNode{Op: "Filter", Detail: combineAnd(residual).SQL(), Batched: true, Children: []*PlanNode{node}}
}

func sourceDetail(ref TableRef, est int64) string {
	d := ref.Name
	if ref.Alias != "" {
		d += " AS " + ref.Alias
	}
	if est >= 0 {
		d += fmt.Sprintf(" [~%d rows]", est)
	}
	return d
}

// ---------- Access-path selection over one base table ----------

// sargable is one index-usable conjunct: col <op> literal(s).
type sargable struct {
	idx  int    // position in the conjunct list
	col  string // schema-normalized (lower-cased) column name
	op   string // "=", "in", "<", "<=", ">", ">=", "between"
	vals []relation.Value
}

// planTableAccess is the one place a base table's access path is decided:
// it classifies the pushed conjuncts and picks the cheapest path they allow
// — hash-index lookup > ordered-index range > full scan, the last with
// zone-map pruning armed when the predicate allows. Unconsumed conjuncts
// become a residual filter over the narrowed stream. The reader may be a
// live table or a pinned snapshot; every path resolves rows through its
// visibility filter either way, and every path is a batch scan: the index
// paths walk the index's RowID list, materializing only the columns read
// after the access path.
func planTableAccess(t relation.TableReader, ref TableRef, conjs []Expr, needed func([]Expr) []int) *access {
	schema := t.Schema()
	eqs := make(map[string]sargable)
	ranges := make(map[string][]sargable)
	for i, c := range conjs {
		s, ok := classifySargable(c, ref.Binding(), schema)
		if !ok {
			continue
		}
		s.idx = i
		switch s.op {
		case "=":
			if _, dup := eqs[s.col]; !dup {
				eqs[s.col] = s
			}
			ranges[s.col] = append(ranges[s.col], s)
		case "in":
			if _, dup := eqs[s.col]; !dup {
				eqs[s.col] = s
			}
		default:
			ranges[s.col] = append(ranges[s.col], s)
		}
	}

	acc := &access{}
	var (
		consumed map[int]bool
		newScan  func(read []int) (*relation.BatchScanOp, error)
	)
	if cols, keys, used := chooseHashIndex(t, eqs); cols != nil {
		newScan = func(read []int) (*relation.BatchScanOp, error) {
			return relation.NewBatchIndexLookup(t, cols, keys, read)
		}
		acc.node = &PlanNode{Op: "IndexLookup", Detail: lookupDetail(ref, cols, keys), Batched: true}
		acc.est = int64(len(keys))
		consumed = used
	} else if col, lo, hi, loIncl, hiIncl, used := chooseOrderedIndex(t, ranges); col != "" {
		newScan = func(read []int) (*relation.BatchScanOp, error) {
			return relation.NewBatchIndexRange(t, col, lo, hi, loIncl, hiIncl, read)
		}
		acc.node = &PlanNode{Op: "IndexRange", Detail: rangeDetail(ref, col, lo, hi, loIncl, hiIncl), Batched: true}
		acc.est = int64(t.Len())/4 + 1
		consumed = used
	} else {
		// Zone-map pruning, gated on the whole pushed predicate
		// kernelizing: kernels never produce evaluation errors, so skipping
		// a page can never suppress a deferred error the unpruned scan would
		// have latched (see binder.zoneFilter).
		var zf relation.ZoneFilter
		if len(conjs) > 0 {
			pred := combineAnd(conjs)
			zb := binder{schema: schema}
			if zb.kernelize(pred) != nil {
				zf = zb.zoneFilter(pred)
			}
		}
		newScan = func(read []int) (*relation.BatchScanOp, error) {
			scan := relation.NewBatchScan(t, read, relation.DefaultBatchSize)
			if zf != nil {
				scan.SetZoneFilter(zf)
			}
			return scan, nil
		}
		acc.est = int64(t.Len())
		acc.node = &PlanNode{Op: "Scan", Detail: sourceDetail(ref, acc.est), Batched: true}
		acc.fullScan, acc.zoned = true, zf != nil
	}

	var residual []Expr
	for i, c := range conjs {
		if !consumed[i] {
			residual = append(residual, c)
		}
	}
	var read []int
	if needed != nil {
		read = needed(residual)
	}
	acc.open = func(ctx *execCtx) (relation.BatchIterator, *relation.BatchScanOp, error) {
		scan, err := newScan(read)
		if err != nil {
			return nil, nil, err
		}
		it, err := withResidual(ctx, scan, residual)
		return it, scan, err
	}
	acc.node = residualNode(acc.node, residual)
	return acc
}

// chooseHashIndex returns the widest hash index whose every column is bound
// by an equality (or one IN) conjunct, with the expanded key tuples and the
// set of consumed conjunct indices.
func chooseHashIndex(t relation.TableReader, eqs map[string]sargable) (cols []string, keys [][]relation.Value, consumed map[int]bool) {
	if len(eqs) == 0 {
		return nil, nil, nil
	}
	for _, ixCols := range t.HashIndexColumns() { // widest-first
		keys = [][]relation.Value{{}}
		consumed = make(map[int]bool)
		inUsed := false
		ok := true
		for _, col := range ixCols {
			s, have := eqs[strings.ToLower(col)]
			if !have {
				ok = false
				break
			}
			if s.op == "in" {
				// One IN column per plan keeps key expansion linear.
				if inUsed {
					ok = false
					break
				}
				inUsed = true
				expanded := make([][]relation.Value, 0, len(keys)*len(s.vals))
				for _, k := range keys {
					for _, v := range s.vals {
						nk := make([]relation.Value, 0, len(k)+1)
						nk = append(nk, k...)
						expanded = append(expanded, append(nk, v))
					}
				}
				keys = expanded
			} else {
				for i := range keys {
					keys[i] = append(keys[i], s.vals[0])
				}
			}
			consumed[s.idx] = true
		}
		if ok {
			return ixCols, dedupeKeys(keys), consumed
		}
	}
	return nil, nil, nil
}

func dedupeKeys(keys [][]relation.Value) [][]relation.Value {
	if len(keys) < 2 {
		return keys
	}
	seen := make(map[string]bool, len(keys))
	out := keys[:0]
	var buf []byte
	for _, k := range keys {
		buf = buf[:0]
		for _, v := range k {
			buf = v.AppendKey(buf)
			buf = append(buf, '\x1f')
		}
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		out = append(out, k)
	}
	return out
}

// chooseOrderedIndex returns the ordered-indexed column whose range conjuncts
// consume the most predicates, with the combined bounds.
func chooseOrderedIndex(t relation.TableReader, ranges map[string][]sargable) (col string, lo, hi relation.Value, loIncl, hiIncl bool, consumed map[int]bool) {
	best := -1
	for _, ixCol := range t.OrderedIndexColumns() {
		sargs := ranges[strings.ToLower(ixCol)]
		if len(sargs) <= best {
			continue
		}
		if len(sargs) == 0 {
			continue
		}
		best = len(sargs)
		col = ixCol
		lo, hi = relation.Null(), relation.Null()
		loIncl, hiIncl = true, true
		consumed = make(map[int]bool)
		for _, s := range sargs {
			switch s.op {
			case "=":
				lo, loIncl = tightenLo(lo, loIncl, s.vals[0], true)
				hi, hiIncl = tightenHi(hi, hiIncl, s.vals[0], true)
			case "between":
				lo, loIncl = tightenLo(lo, loIncl, s.vals[0], true)
				hi, hiIncl = tightenHi(hi, hiIncl, s.vals[1], true)
			case ">":
				lo, loIncl = tightenLo(lo, loIncl, s.vals[0], false)
			case ">=":
				lo, loIncl = tightenLo(lo, loIncl, s.vals[0], true)
			case "<":
				hi, hiIncl = tightenHi(hi, hiIncl, s.vals[0], false)
			case "<=":
				hi, hiIncl = tightenHi(hi, hiIncl, s.vals[0], true)
			}
			consumed[s.idx] = true
		}
	}
	return col, lo, hi, loIncl, hiIncl, consumed
}

func tightenLo(cur relation.Value, curIncl bool, v relation.Value, incl bool) (relation.Value, bool) {
	if cur.IsNull() {
		return v, incl
	}
	c := relation.Compare(v, cur)
	if c > 0 || (c == 0 && curIncl && !incl) {
		return v, incl
	}
	return cur, curIncl
}

func tightenHi(cur relation.Value, curIncl bool, v relation.Value, incl bool) (relation.Value, bool) {
	if cur.IsNull() {
		return v, incl
	}
	c := relation.Compare(v, cur)
	if c < 0 || (c == 0 && curIncl && !incl) {
		return v, incl
	}
	return cur, curIncl
}

// classifySargable recognizes the index-usable predicate shapes over the
// given table: col = lit, col <cmp> lit (either operand order), col IN
// (lits...), col BETWEEN lit AND lit. NULL literals are never sargable (SQL
// comparisons with NULL match nothing; the residual filter handles them).
func classifySargable(c Expr, binding string, schema *relation.Schema) (sargable, bool) {
	switch x := c.(type) {
	case *BinaryExpr:
		ref, v, op, ok := colCmpLit(x)
		if !ok || op == "!=" || v.IsNull() {
			return sargable{}, false
		}
		if col, ok := tableColOf(ref, binding, schema); ok {
			return sargable{col: col, op: op, vals: []relation.Value{v}}, true
		}
	case *InExpr:
		if x.Negate {
			return sargable{}, false
		}
		col, ok := tableColOf(x.Expr, binding, schema)
		if !ok {
			return sargable{}, false
		}
		vals := make([]relation.Value, 0, len(x.List))
		for _, e := range x.List {
			v, ok := literalOf(e)
			if !ok || v.IsNull() {
				return sargable{}, false
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return sargable{}, false
		}
		return sargable{col: col, op: "in", vals: vals}, true
	case *BetweenExpr:
		if x.Negate {
			return sargable{}, false
		}
		col, ok := tableColOf(x.Expr, binding, schema)
		if !ok {
			return sargable{}, false
		}
		lo, lok := literalOf(x.Lo)
		hi, hok := literalOf(x.Hi)
		if !lok || !hok || lo.IsNull() || hi.IsNull() {
			return sargable{}, false
		}
		return sargable{col: col, op: "between", vals: []relation.Value{lo, hi}}, true
	}
	return sargable{}, false
}

// mirrorCmp maps each comparison operator to its mirror image: lit <op> col
// holds exactly when col <mirrorCmp[op]> lit does.
var mirrorCmp = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// colCmpLit is the one matcher of column-versus-literal comparisons, shared
// by the sargable classifier, the batch kernels and the zone filters. It
// matches col <op> lit in either operand order and returns the operator as
// seen from the column's side.
func colCmpLit(x *BinaryExpr) (ref *ColumnRef, lit relation.Value, op string, ok bool) {
	mirrored, isCmp := mirrorCmp[x.Op]
	if !isCmp {
		return nil, relation.Null(), "", false
	}
	if ref, isCol := x.Left.(*ColumnRef); isCol {
		if v, isLit := literalOf(x.Right); isLit {
			return ref, v, x.Op, true
		}
	}
	if ref, isCol := x.Right.(*ColumnRef); isCol {
		if v, isLit := literalOf(x.Left); isLit {
			return ref, v, mirrored, true
		}
	}
	return nil, relation.Null(), "", false
}

// tableColOf resolves e as a reference to a column of the table bound as
// binding, returning the schema-normalized column name.
func tableColOf(e Expr, binding string, schema *relation.Schema) (string, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return "", false
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, binding) {
		return "", false
	}
	i := schema.Index(ref.Name)
	if i < 0 {
		return "", false
	}
	return strings.ToLower(schema.Col(i).Name), true
}

// literalOf extracts a constant from a Literal or a negated numeric Literal.
func literalOf(e Expr) (relation.Value, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, true
	case *UnaryExpr:
		if x.Op != "-" {
			return relation.Null(), false
		}
		inner, ok := x.Expr.(*Literal)
		if !ok {
			return relation.Null(), false
		}
		switch inner.Value.Type() {
		case relation.TInt:
			return relation.Int(-inner.Value.AsInt()), true
		case relation.TFloat:
			return relation.Float(-inner.Value.AsFloat()), true
		}
	}
	return relation.Null(), false
}

// ---------- EXPLAIN rendering details ----------

func valueSQL(v relation.Value) string { return (&Literal{Value: v}).SQL() }

func lookupDetail(ref TableRef, cols []string, keys [][]relation.Value) string {
	d := ref.Name
	if ref.Alias != "" {
		d += " AS " + ref.Alias
	}
	d += " via hash(" + strings.Join(cols, ", ") + ")"
	tuples := make([]string, len(keys))
	for i, k := range keys {
		parts := make([]string, len(k))
		for j, v := range k {
			parts[j] = valueSQL(v)
		}
		tuples[i] = "(" + strings.Join(parts, ", ") + ")"
	}
	if len(tuples) == 1 {
		return d + " = " + tuples[0]
	}
	return d + " IN (" + strings.Join(tuples, ", ") + ")"
}

func rangeDetail(ref TableRef, col string, lo, hi relation.Value, loIncl, hiIncl bool) string {
	d := ref.Name
	if ref.Alias != "" {
		d += " AS " + ref.Alias
	}
	d += " via ordered(" + col + ")"
	var parts []string
	if !lo.IsNull() {
		op := ">"
		if loIncl {
			op = ">="
		}
		parts = append(parts, col+" "+op+" "+valueSQL(lo))
	}
	if !hi.IsNull() {
		op := "<"
		if hiIncl {
			op = "<="
		}
		parts = append(parts, col+" "+op+" "+valueSQL(hi))
	}
	if len(parts) == 0 {
		return d
	}
	return d + ": " + strings.Join(parts, " AND ")
}
