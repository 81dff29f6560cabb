package relation

import "fmt"

// Batch execution. A Batch is a fixed-size, column-oriented chunk of rows
// with a selection vector: operators process whole batches instead of one
// row at a time, which amortizes interface dispatch, eliminates per-row
// output allocation, and lets predicates run as tight loops over column
// slices. MVCC visibility composes for free: a batch scan materializes a
// contiguous chunk of the append-only row store and records only the rows
// visible at the pinned epoch in the selection vector, so every downstream
// operator inherits snapshot semantics by honoring Sel.
//
// Ownership contract: a Batch returned by NextBatch — its column slices and
// its selection vector — is valid only until the next NextBatch call on the
// same iterator. Producers reuse buffers across batches; consumers that
// retain values must copy them (RowsFromBatches does). Consumers may compact
// Sel of a batch they received in place; they must not mutate column values.

// DefaultBatchSize is the number of rows a batch-producing operator packs
// per chunk. 1024 rows keeps a handful of column slices L2-resident while
// amortizing per-batch overhead to noise.
const DefaultBatchSize = 1024

// Batch is one column-oriented chunk of rows.
type Batch struct {
	// Cols holds one value slice per schema column, each of physical length
	// n. A column a batch scan was told to prune is nil; downstream
	// operators never read pruned columns.
	Cols [][]Value
	// Sel is the selection vector: the physical row indices (ascending,
	// each in [0, n)) that are live in this batch. Filters compact it.
	Sel []int

	n      int // physical rows materialized in each non-nil column
	schema *Schema
}

// NewBatch allocates a batch with capacity for size rows of the schema, all
// columns materialized, empty selection. Operators that build batches from
// scratch (adapters, joins) use it and reuse the buffers across calls.
func NewBatch(schema *Schema, size int) *Batch {
	b := &Batch{schema: schema, Cols: make([][]Value, schema.Len())}
	for i := range b.Cols {
		b.Cols[i] = make([]Value, 0, size)
	}
	b.Sel = make([]int, 0, size)
	return b
}

// Schema returns the schema the columns are laid out by.
func (b *Batch) Schema() *Schema { return b.schema }

// Len returns the number of selected (live) rows.
func (b *Batch) Len() int { return len(b.Sel) }

// Size returns the physical row count materialized in each column.
func (b *Batch) Size() int { return b.n }

// reset truncates the batch for refilling.
func (b *Batch) reset() {
	for i := range b.Cols {
		if b.Cols[i] != nil {
			b.Cols[i] = b.Cols[i][:0]
		}
	}
	b.Sel = b.Sel[:0]
	b.n = 0
}

// row copies physical row i into dst (allocated when nil or short).
func (b *Batch) row(i int, dst Row) Row {
	if cap(dst) < len(b.Cols) {
		dst = make(Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for j, col := range b.Cols {
		if col == nil {
			dst[j] = Value{}
			continue
		}
		dst[j] = col[i]
	}
	return dst
}

// BatchIterator is the batch-at-a-time operator interface, the vectorized
// sibling of Iterator. NextBatch returns the next non-empty batch or
// (nil, false) at end of stream.
type BatchIterator interface {
	Schema() *Schema
	NextBatch() (*Batch, bool)
}

// ---------- Row <-> batch adapters ----------

// RowsFromBatchesOp adapts a BatchIterator into a row Iterator at a
// pipeline boundary (sort, distinct, limit, final materialization). Emitted
// rows are copies, since batch buffers are reused; the rows of one batch
// share one allocation.
type RowsFromBatchesOp struct {
	in   BatchIterator
	cur  *Batch
	i    int     // next position within cur.Sel
	slab []Value // backing store for the rows of cur: one allocation per batch
}

// NewRowsFromBatches wraps a batch stream as a row stream.
func NewRowsFromBatches(in BatchIterator) *RowsFromBatchesOp {
	return &RowsFromBatchesOp{in: in}
}

// Schema implements Iterator.
func (r *RowsFromBatchesOp) Schema() *Schema { return r.in.Schema() }

// Next implements Iterator.
func (r *RowsFromBatchesOp) Next() (Row, bool) {
	for {
		if r.cur != nil && r.i < len(r.cur.Sel) {
			w := len(r.cur.Cols)
			row := r.cur.row(r.cur.Sel[r.i], r.slab[r.i*w:(r.i+1)*w:(r.i+1)*w])
			r.i++
			return row, true
		}
		b, ok := r.in.NextBatch()
		if !ok {
			return nil, false
		}
		r.cur, r.i = b, 0
		r.slab = make([]Value, len(b.Sel)*len(b.Cols))
	}
}

// BatchFromRowsOp adapts a row Iterator into a BatchIterator by packing up
// to size rows per batch with an identity selection vector. It lets batch
// operators run over row-producing sources (virtual tables, the ExecuteScan
// reference's row scans and joins) and gives equivalence tests a way to
// feed identical inputs to both paths.
type BatchFromRowsOp struct {
	in    Iterator
	batch *Batch
	size  int
}

// NewBatchFromRows wraps a row stream as a batch stream.
func NewBatchFromRows(in Iterator, size int) *BatchFromRowsOp {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &BatchFromRowsOp{in: in, batch: NewBatch(in.Schema(), size), size: size}
}

// Schema implements BatchIterator.
func (a *BatchFromRowsOp) Schema() *Schema { return a.in.Schema() }

// NextBatch implements BatchIterator.
func (a *BatchFromRowsOp) NextBatch() (*Batch, bool) {
	b := a.batch
	b.reset()
	for b.n < a.size {
		r, ok := a.in.Next()
		if !ok {
			break
		}
		for j := range b.Cols {
			b.Cols[j] = append(b.Cols[j], r[j])
		}
		b.Sel = append(b.Sel, b.n)
		b.n++
	}
	if b.n == 0 {
		return nil, false
	}
	return b, true
}

// ---------- Batch scan ----------

// BatchScanOp reads a table batch by batch, transposing rows into column
// slices and recording the rows visible at the reader's epoch in the
// selection vector. It walks either the whole row store in order
// (NewBatchScan, optionally narrowed by SetRange) or an index's RowID list
// in the index's order (NewBatchIndexLookup, NewBatchIndexRange). The state
// it reads — and the RowID list — resolve lazily on the first NextBatch, so
// building a plan (EXPLAIN) costs nothing. Column pruning: when needed is
// non-nil, only those columns are materialized.
type BatchScanOp struct {
	src      TableReader
	schema   *Schema
	needed   []int // nil = all columns
	size     int
	batch    *Batch
	cols     []int // resolved column positions to materialize
	resolved bool

	st    *tableState
	epoch int64
	base  int // next store position, or next index into ids
	hi    int // exclusive store bound; -1 = whole store (see SetRange)

	// RowID walk (index access paths): lookup yields the candidate ids in
	// emission order once the state is pinned; nil for a store walk.
	lookup   func() []RowID
	ids      []RowID
	identity []int // pristine 0..size-1, copied into Sel (filters compact Sel in place)

	// Zone-map pruning (nil = none): zoneFilter decides page skips, zones
	// holds the table's cached page zones, resolved lazily with the state.
	zoneFilter ZoneFilter
	zones      []PageZone
}

// NewBatchScan returns a batch scan over a table read surface. needed lists
// the schema positions to materialize (nil for all); size <= 0 selects
// DefaultBatchSize.
func NewBatchScan(t TableReader, needed []int, size int) *BatchScanOp {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &BatchScanOp{src: t, schema: t.Schema(), needed: needed, size: size, hi: -1}
}

// NewBatchIndexLookup is the equality access path over the hash index on
// cols: a batch scan of the rows whose key equals one of keys (several
// tuples serve IN-list plans), key by key in index order. It fails if no
// such index exists or a key's arity differs from the index's.
func NewBatchIndexLookup(t TableReader, cols []string, keys [][]Value, needed []int) (*BatchScanOp, error) {
	ix, ok := t.HashIndexOn(cols...)
	if !ok {
		return nil, fmt.Errorf("relation: table %s has no hash index on %v", t.Name(), cols)
	}
	for _, k := range keys {
		if len(k) != len(cols) {
			return nil, fmt.Errorf("relation: index lookup key arity %d != %d", len(k), len(cols))
		}
	}
	s := NewBatchScan(t, needed, 0)
	s.lookup = func() []RowID {
		var ids []RowID
		for _, k := range keys {
			ids = append(ids, ix.Lookup(k...)...)
		}
		return ids
	}
	return s, nil
}

// NewBatchIndexRange is the range access path over the ordered index on
// col: a batch scan of the rows within the bounds, in ascending value order.
// NULL bounds mean unbounded; NULL-valued rows are never produced. It fails
// if no such index exists.
func NewBatchIndexRange(t TableReader, col string, lo, hi Value, loIncl, hiIncl bool, needed []int) (*BatchScanOp, error) {
	ix, ok := t.OrderedIndexOn(col)
	if !ok {
		return nil, fmt.Errorf("relation: table %s has no ordered index on %s", t.Name(), col)
	}
	s := NewBatchScan(t, needed, 0)
	s.lookup = func() []RowID { return ix.RangeBounds(lo, hi, loIncl, hiIncl) }
	return s, nil
}

// Schema implements BatchIterator.
func (s *BatchScanOp) Schema() *Schema { return s.schema }

// SetZoneFilter arms zone-map pruning of a store walk: pages whose zones
// satisfy f are skipped without transposing. Must be called before the
// first NextBatch.
func (s *BatchScanOp) SetZoneFilter(f ZoneFilter) { s.zoneFilter = f }

// SetRange restricts a store walk to positions [lo, hi) and rewinds the
// cursor, so one scan operator (and the pipeline compiled on top of it) can
// be re-armed per morsel by a parallel worker. Bounds are clamped to the
// store at read time; page-aligned bounds keep zone pruning exact.
func (s *BatchScanOp) SetRange(lo, hi int) {
	s.base, s.hi = lo, hi
}

// StoreLen resolves the scan's backing state and returns the physical
// row-store length the scan walks — including versions invisible at the
// pinned epoch, unlike TableReader.Len. Parallel executors use it to carve
// the store into page-aligned morsels: the store is append-only, so any
// range valid against one worker's resolved state is valid against all.
func (s *BatchScanOp) StoreLen() int {
	if !s.resolved {
		s.resolve()
	}
	return len(s.st.rows)
}

func (s *BatchScanOp) resolve() {
	s.resolved = true
	// Pin the state before reading the index: a row is indexed before the
	// state holding it is published, so every row of the pinned state is
	// among the ids; ids past the state's end fail the visibility check.
	s.st, s.epoch = s.src.batchState()
	if s.lookup != nil {
		s.ids = s.lookup()
		s.size = max(1, min(s.size, len(s.ids))) // small lookups get small buffers
		s.identity = make([]int, s.size)
		for i := range s.identity {
			s.identity[i] = i
		}
	} else if t := s.src.zoneTable(); t != nil && s.zoneFilter != nil {
		s.zones = t.zonePages(s.st)
	}
	s.batch = &Batch{schema: s.schema, Cols: make([][]Value, s.schema.Len())}
	s.cols = s.needed
	if s.cols == nil {
		s.cols = make([]int, s.schema.Len())
		for i := range s.cols {
			s.cols[i] = i
		}
	}
	for _, c := range s.cols {
		s.batch.Cols[c] = make([]Value, s.size)
	}
	s.batch.Sel = make([]int, s.size)
}

// NextBatch implements BatchIterator.
func (s *BatchScanOp) NextBatch() (*Batch, bool) {
	if !s.resolved {
		s.resolve()
	}
	if s.lookup != nil {
		return s.nextByID()
	}
	store := s.st.rows
	limit := len(store)
	if s.hi >= 0 && s.hi < limit {
		limit = s.hi
	}
	for {
		if s.base >= limit {
			return nil, false
		}
		end := s.base + s.size
		if end > limit {
			end = limit
		}
		n := end - s.base
		// Zone pruning: when the chunk is exactly one complete page, its
		// cached zone can rule the whole page out — born after the pinned
		// epoch, or outside the predicate's value bounds — before a single
		// value is read. Conservative by construction (zonemap.go).
		if s.zones != nil && s.base%ZonePageRows == 0 && n == ZonePageRows {
			if p := s.base / ZonePageRows; p < len(s.zones) {
				z := &s.zones[p]
				if z.MinBorn > s.epoch || (s.zoneFilter != nil && s.zoneFilter(z)) {
					zonePagesPruned.Add(1)
					s.base = end
					continue
				}
			}
		}
		b := s.batch
		// Selection first: row i is selected iff row store entry base+i is
		// visible at the pinned epoch. Computing it before the transpose
		// means a chunk of pure tombstones (or rows born after an AS OF
		// epoch) skips materialization entirely — the dead-epoch analog of
		// zone pruning, sound against concurrent deletes because it reads
		// this scan's own pinned state.
		sel := b.Sel[:s.size][:n]
		born, dead := s.st.born[s.base:end], s.st.dead[s.base:end]
		k := 0
		for i := 0; i < n; i++ {
			if born[i] <= s.epoch && (dead[i] == 0 || dead[i] > s.epoch) {
				sel[k] = i
				k++
			}
		}
		b.Sel = sel[:k]
		if k == 0 {
			s.base = end
			continue
		}
		// Transpose only the selected positions: visible rows are never
		// GC-reclaimed (nil), and downstream operators read selected
		// positions only (the batch ownership contract).
		chunk := store[s.base:end]
		for _, j := range s.cols {
			col := b.Cols[j][:s.size][:n]
			for _, i := range b.Sel {
				col[i] = chunk[i][j]
			}
			b.Cols[j] = col
		}
		b.n = n
		s.base = end
		zonePagesDecoded.Add(1)
		return b, true
	}
}

// nextByID packs the next visible rows of the RowID list densely into the
// batch, in list order. Only the needed columns are copied, so the columns
// an index consumed cost nothing when the plan reads them no further.
func (s *BatchScanOp) nextByID() (*Batch, bool) {
	b := s.batch
	for _, j := range s.cols {
		b.Cols[j] = b.Cols[j][:s.size]
	}
	k := 0
	for ; s.base < len(s.ids) && k < s.size; s.base++ {
		id := s.ids[s.base]
		if !s.st.visible(id, s.epoch) {
			continue
		}
		r := s.st.rows[id]
		for _, j := range s.cols {
			b.Cols[j][k] = r[j]
		}
		k++
	}
	if k == 0 {
		return nil, false
	}
	for _, j := range s.cols {
		b.Cols[j] = b.Cols[j][:k]
	}
	b.Sel = b.Sel[:k]
	copy(b.Sel, s.identity)
	b.n = k
	return b, true
}

// ---------- Batch filter ----------

// BatchPredicate evaluates a predicate over a whole batch, compacting the
// selection vector in place to the rows that pass.
type BatchPredicate func(*Batch)

// BatchFilterOp applies a vectorized predicate to each batch, dropping
// batches the predicate empties.
type BatchFilterOp struct {
	in   BatchIterator
	pred BatchPredicate
}

// NewBatchFilter wraps a batch stream with a vectorized predicate.
func NewBatchFilter(in BatchIterator, pred BatchPredicate) *BatchFilterOp {
	return &BatchFilterOp{in: in, pred: pred}
}

// Schema implements BatchIterator.
func (f *BatchFilterOp) Schema() *Schema { return f.in.Schema() }

// NextBatch implements BatchIterator.
func (f *BatchFilterOp) NextBatch() (*Batch, bool) {
	for {
		b, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		f.pred(b)
		if len(b.Sel) > 0 {
			return b, true
		}
	}
}

// ---------- Batch project ----------

// BatchProjExpr computes one output column of a projection. The batch
// project evaluates pass-through columns by aliasing the input slice and
// computed columns row-by-row over a scratch row populated with just the
// columns the expression reads.
type BatchProjExpr struct {
	Name string
	Type Type
	// Input is the input column a pass-through aliases. An expression with
	// nil Eval is a pass-through: the batch path aliases the input slice
	// (zero copy, zero eval).
	Input int
	// NeedCols lists the input columns Eval reads; the batch path copies
	// only these into the scratch row per evaluated row.
	NeedCols []int
	// Eval computes the value from a row of the input schema; nil marks a
	// pass-through of column Input. Evaluation errors are captured out of
	// band (see sqlparse's execCtx), matching ProjExpr.
	Eval func(Row) Value
}

// PassThrough builds a pass-through projection of input column pos.
func PassThrough(name string, typ Type, pos int) BatchProjExpr {
	return BatchProjExpr{Name: name, Type: typ, Input: pos}
}

// BatchProjectOp maps input batches through projection expressions.
// Pass-through columns alias the input column slices and the output shares
// the input's selection vector; computed columns are evaluated only at
// selected positions.
type BatchProjectOp struct {
	in      BatchIterator
	exprs   []BatchProjExpr
	schema  *Schema
	out     Batch
	scratch Row
}

// NewBatchProject builds a vectorized projection operator.
func NewBatchProject(in BatchIterator, exprs []BatchProjExpr) (*BatchProjectOp, error) {
	cols := make([]Column, len(exprs))
	inWidth := in.Schema().Len()
	for i, e := range exprs {
		if e.Eval == nil && (e.Input < 0 || e.Input >= inWidth) {
			return nil, fmt.Errorf("relation: batch project: pass-through column %d out of range", e.Input)
		}
		cols[i] = Column{Name: e.Name, Type: e.Type}
	}
	s, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &BatchProjectOp{
		in: in, exprs: exprs, schema: s,
		out:     Batch{schema: s, Cols: make([][]Value, len(exprs))},
		scratch: make(Row, inWidth),
	}, nil
}

// Schema implements BatchIterator.
func (p *BatchProjectOp) Schema() *Schema { return p.schema }

// NextBatch implements BatchIterator.
func (p *BatchProjectOp) NextBatch() (*Batch, bool) {
	b, ok := p.in.NextBatch()
	if !ok {
		return nil, false
	}
	out := &p.out
	out.n = b.n
	out.Sel = b.Sel
	for j, e := range p.exprs {
		if e.Eval == nil {
			out.Cols[j] = b.Cols[e.Input]
			continue
		}
		col := out.Cols[j]
		if cap(col) < b.n {
			col = make([]Value, b.n)
		}
		col = col[:b.n]
		for _, i := range b.Sel {
			for _, c := range e.NeedCols {
				p.scratch[c] = b.Cols[c][i]
			}
			col[i] = e.Eval(p.scratch)
		}
		out.Cols[j] = col
	}
	return out, true
}

// ---------- Batch hash join ----------

// BatchHashJoinOp is the vectorized sibling of HashJoinOp: the build side
// is drained into a hash table on first use (lazily, so EXPLAIN is free)
// and the probe side streams batch-at-a-time, each selected probe row
// emitting its matches into a column-oriented output batch. Output rows are
// always left-columns-then-right regardless of which side builds. Columns
// an input pruned (nil in its batches) stay nil in the output.
type BatchHashJoinOp struct {
	probe     BatchIterator
	buildSrc  BatchIterator
	buildRows map[string][]Row
	buildLive []int // build columns materialized by any build batch
	probeCols []int
	buildCols []int
	schema    *Schema
	// buildIsLeft reports the build side supplies the left half of output
	// rows (the probe stream supplies the right half).
	buildIsLeft bool
	built       bool
	out         Batch
	probeLive   []int
	keyBuf      []byte
}

// NewBatchHashJoin joins a batched probe stream against a build stream on
// probeCols[i] == buildCols[i] (schema positions). When buildIsLeft, output
// rows are build-row ++ probe-row; otherwise probe-row ++ build-row. schema
// must be the concatenated output schema.
func NewBatchHashJoin(probe, build BatchIterator, probeCols, buildCols []int, schema *Schema, buildIsLeft bool) (*BatchHashJoinOp, error) {
	if len(probeCols) != len(buildCols) || len(probeCols) == 0 {
		return nil, fmt.Errorf("relation: batch join requires equal, non-empty key lists")
	}
	return &BatchHashJoinOp{
		probe: probe, buildSrc: build,
		probeCols: probeCols, buildCols: buildCols,
		schema: schema, buildIsLeft: buildIsLeft,
		out: Batch{schema: schema, Cols: make([][]Value, schema.Len())},
	}, nil
}

// Schema implements BatchIterator.
func (j *BatchHashJoinOp) Schema() *Schema { return j.schema }

// build drains the build side into the hash table. Each build batch's
// selected rows are copied into one slab, since batch buffers are reused.
func (j *BatchHashJoinOp) build() {
	j.buildRows = make(map[string][]Row)
	width := j.buildSrc.Schema().Len()
	live := make([]bool, width)
	for {
		b, ok := j.buildSrc.NextBatch()
		if !ok {
			break
		}
		slab := make([]Value, len(b.Sel)*width)
		for k, i := range b.Sel {
			key, ok := appendBatchJoinKey(j.keyBuf[:0], b, i, j.buildCols)
			j.keyBuf = key
			if !ok {
				continue
			}
			r := b.row(i, slab[k*width:(k+1)*width:(k+1)*width])
			j.buildRows[string(key)] = append(j.buildRows[string(key)], r)
		}
		for c, col := range b.Cols {
			live[c] = live[c] || col != nil
		}
	}
	for c, l := range live {
		if l {
			j.buildLive = append(j.buildLive, c)
		}
	}
	j.built = true
}

// appendBatchJoinKey builds the join key for batch row i into dst; ok is
// false when any key column is NULL (NULL keys never match).
func appendBatchJoinKey(dst []byte, b *Batch, i int, pos []int) (_ []byte, ok bool) {
	for _, p := range pos {
		v := &b.Cols[p][i]
		if v.IsNull() {
			return dst, false
		}
		dst = v.appendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst, true
}

// NextBatch implements BatchIterator.
func (j *BatchHashJoinOp) NextBatch() (*Batch, bool) {
	if !j.built {
		j.build()
	}
	probeWidth := j.probe.Schema().Len()
	// Output column offsets of the two sides.
	probeBase, buildBase := 0, probeWidth
	if j.buildIsLeft {
		probeBase, buildBase = j.schema.Len()-probeWidth, 0
	}
	for {
		b, ok := j.probe.NextBatch()
		if !ok {
			return nil, false
		}
		out := &j.out
		out.reset()
		j.probeLive = j.probeLive[:0]
		for c, col := range b.Cols {
			if col == nil {
				out.Cols[probeBase+c] = nil
				continue
			}
			j.probeLive = append(j.probeLive, c)
			if out.Cols[probeBase+c] == nil {
				out.Cols[probeBase+c] = make([]Value, 0, DefaultBatchSize)
			}
		}
		for _, c := range j.buildLive {
			if out.Cols[buildBase+c] == nil {
				out.Cols[buildBase+c] = make([]Value, 0, DefaultBatchSize)
			}
		}
		n := 0
		for _, i := range b.Sel {
			key, ok := appendBatchJoinKey(j.keyBuf[:0], b, i, j.probeCols)
			j.keyBuf = key
			if !ok {
				continue
			}
			for _, m := range j.buildRows[string(key)] {
				for _, c := range j.probeLive {
					out.Cols[probeBase+c] = append(out.Cols[probeBase+c], b.Cols[c][i])
				}
				for _, c := range j.buildLive {
					out.Cols[buildBase+c] = append(out.Cols[buildBase+c], m[c])
				}
				out.Sel = append(out.Sel, n)
				n++
			}
		}
		out.n = n
		if n > 0 {
			return out, true
		}
		// No probe row matched in this batch; pull the next one.
	}
}

// ---------- Batch aggregation ----------

// BatchGroupOp is the vectorized sibling of GroupOp: it consumes batches,
// builds group keys and updates aggregate states directly from column
// slices — no per-row projection allocation — and emits the (small) result
// set as a row Iterator, which the post-aggregation pipeline stays on.
type BatchGroupOp struct {
	in       BatchIterator
	groupBy  []string
	aggs     []AggSpec
	schema   *Schema
	groupPos []int
	aggPos   []int
	results  []Row
	done     bool
	i        int
}

// NewBatchGroup builds a vectorized grouping/aggregation operator. With no
// groupBy columns it produces exactly one row (global aggregates).
func NewBatchGroup(in BatchIterator, groupBy []string, aggs []AggSpec) (*BatchGroupOp, error) {
	schema, groupPos, aggPos, err := groupSchema(in.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &BatchGroupOp{
		in: in, groupBy: groupBy, aggs: aggs,
		schema: schema, groupPos: groupPos, aggPos: aggPos,
	}, nil
}

// Schema implements Iterator.
func (g *BatchGroupOp) Schema() *Schema { return g.schema }

// Next implements Iterator.
func (g *BatchGroupOp) Next() (Row, bool) {
	if !g.done {
		g.run()
		g.done = true
	}
	if g.i >= len(g.results) {
		return nil, false
	}
	r := g.results[g.i]
	g.i++
	return r, true
}

func (g *BatchGroupOp) run() {
	h := newAggHash()
	drainBatches(h, g.in, g.groupPos, g.aggPos, g.aggs)
	g.results = h.finish(len(g.groupPos), g.aggs)
}
