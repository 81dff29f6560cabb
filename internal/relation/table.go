package relation

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// RowID identifies a row within a table for the table's lifetime. IDs are
// never reused; deleted rows leave tombstones.
type RowID int64

// Table is a heap-resident relation with optional secondary indexes, stored
// as an epoch-based multiversion (MVCC) row store:
//
//   - The row slice is append-only. Every row carries the epoch it was born
//     in; a delete does not remove the row but stamps a tombstone epoch.
//   - Writers serialize on an internal mutex and publish each change as a new
//     immutable tableState via an atomic pointer.
//   - Readers load the published state without taking any lock: "latest"
//     reads (the Table methods below) see every published row whose tombstone
//     is unset, while snapshot reads (Database.Snapshot / Table.At) see
//     exactly the rows visible at one pinned epoch — with zero copying.
//
// Epochs advance at commit boundaries (Database.AdvanceEpoch). Rows written
// between commits are stamped with the next epoch, so a committed-epoch
// snapshot never observes a transaction in flight.
type Table struct {
	name   string
	schema *Schema
	epoch  *atomic.Int64 // committed-epoch counter, shared with the owning Database

	mu    sync.Mutex // serializes writers; readers never take it
	state atomic.Pointer[tableState]

	// zones caches per-page zone maps over the append-only prefix of the row
	// store (see zonemap.go). Built lazily by predicate scans, seeded by the
	// snapshot loader; derived purely from immutable data, so it is shared by
	// every state and every pinned snapshot of the table.
	zones atomic.Pointer[zoneCache]
}

// tableState is one published version of a table. All slices are append-only
// between states: a newer state may share backing arrays with an older one,
// but entries below a state's length are never mutated after that state is
// published — Delete and Update copy the tombstone array before stamping
// (copy-on-write), so a pinned state is immutable in the strongest sense
// and readers need no atomics.
type tableState struct {
	// rows is RowID-indexed. Deletes set a tombstone epoch rather than
	// removing the row; the epoch-retention GC (pruneBelow) may nil out the
	// payload of versions tombstoned at or below the retention floor, which
	// are invisible at every queryable epoch, so no reader dereferences them.
	rows []Row
	born []int64 // epoch at which the row became visible
	dead []int64 // 0 = live; otherwise the epoch at which the row was deleted
	live int     // live rows in the latest view (tombstones excluded)

	// Secondary indexes. Index entries are added on insert and retained on
	// delete (older snapshots still need them); readers filter candidate
	// RowIDs through row visibility. The maps are copy-on-write: creating an
	// index publishes a new state with a new map.
	indexes map[string]*HashIndex
	ordered map[string]*OrderedIndex
}

// NewTable creates an empty table with the given schema. The table gets a
// private epoch counter; tables created through Database.CreateTable share
// the database's counter so one snapshot can pin all tables consistently.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{name: name, schema: schema, epoch: new(atomic.Int64)}
	t.state.Store(&tableState{
		indexes: make(map[string]*HashIndex),
		ordered: make(map[string]*OrderedIndex),
	})
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// writeEpoch is the epoch stamped on rows born or killed now: the epoch the
// in-flight transaction will publish at its commit boundary.
func (t *Table) writeEpoch() int64 { return t.epoch.Load() + 1 }

// Len returns the number of live rows in the latest view.
func (t *Table) Len() int { return t.state.Load().live }

// Insert validates and appends a row, maintaining all indexes. It returns
// the new row's RowID. The row becomes visible to committed-epoch snapshots
// once the owning database's epoch advances past the current one.
func (t *Table) Insert(r Row) (RowID, error) {
	valid, err := t.schema.Validate(r)
	if err != nil {
		return 0, fmt.Errorf("table %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	id := RowID(len(st.rows))
	ns := &tableState{
		rows:    append(st.rows, valid),
		born:    append(st.born, t.writeEpoch()),
		dead:    append(st.dead, 0),
		live:    st.live + 1,
		indexes: st.indexes,
		ordered: st.ordered,
	}
	for _, ix := range ns.indexes {
		ix.add(id, valid)
	}
	for _, ix := range ns.ordered {
		ix.add(id, valid)
	}
	t.state.Store(ns)
	return id, nil
}

// LoadRows bulk-appends rows that were already validated when first
// inserted — e.g. rows decoded from a checksummed snapshot. It skips per-row
// schema validation (only arity is checked) and builds ordered indexes by
// sorting once instead of insertion-sorting per row, which is what makes
// snapshot recovery O(live data) with a small constant.
func (t *Table) LoadRows(rows []Row) error {
	width := t.schema.Len()
	for i, r := range rows {
		if len(r) != width {
			return fmt.Errorf("table %s: row %d arity %d != schema arity %d", t.name, i, len(r), width)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	start := RowID(len(st.rows))
	e := t.writeEpoch()
	born := slices.Grow(st.born, len(rows))
	dead := slices.Grow(st.dead, len(rows))
	for range rows {
		born = append(born, e)
		dead = append(dead, 0)
	}
	ns := &tableState{
		rows:    append(st.rows, rows...),
		born:    born,
		dead:    dead,
		live:    st.live + len(rows),
		indexes: st.indexes,
		ordered: st.ordered,
	}
	for _, ix := range ns.indexes {
		ix.bulkAdd(start, rows)
	}
	for _, ix := range ns.ordered {
		ix.bulkAdd(start, rows)
	}
	t.state.Store(ns)
	return nil
}

// Versions exposes the published row store verbatim: every version with its
// born/dead epochs, including tombstoned versions older snapshots may still
// need. Versions reclaimed by the retention GC have a nil row. The returned
// slices are the live backing arrays — callers must not mutate them. The
// snapshot writer uses this to persist full MVCC history, not just the
// latest-visible rows.
func (t *Table) Versions() (rows []Row, born, dead []int64) {
	st := t.state.Load()
	return st.rows, st.born, st.dead
}

// LoadVersions bulk-appends rows carrying explicit born/dead epochs — the
// recovery path for version-preserving snapshots. Unlike LoadRows it does not
// stamp the current write epoch: each version keeps the epochs it had when the
// snapshot was written, so time-travel reads after recovery see exactly the
// history that was persisted. Rows must be non-nil (the snapshot writer folds
// reclaimed versions out instead of persisting nils).
func (t *Table) LoadVersions(rows []Row, born, dead []int64) error {
	if len(born) != len(rows) || len(dead) != len(rows) {
		return fmt.Errorf("table %s: version arity mismatch: %d rows, %d born, %d dead",
			t.name, len(rows), len(born), len(dead))
	}
	width := t.schema.Len()
	live := 0
	for i, r := range rows {
		if r == nil {
			return fmt.Errorf("table %s: version %d has nil row", t.name, i)
		}
		if len(r) != width {
			return fmt.Errorf("table %s: row %d arity %d != schema arity %d", t.name, i, len(r), width)
		}
		if dead[i] == 0 {
			live++
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	start := RowID(len(st.rows))
	ns := &tableState{
		rows:    append(st.rows, rows...),
		born:    append(st.born, born...),
		dead:    append(st.dead, dead...),
		live:    st.live + live,
		indexes: st.indexes,
		ordered: st.ordered,
	}
	for _, ix := range ns.indexes {
		ix.bulkAdd(start, rows)
	}
	for _, ix := range ns.ordered {
		ix.bulkAdd(start, rows)
	}
	t.state.Store(ns)
	return nil
}

// pruneBelow publishes a state whose row payloads are nil'd for versions
// tombstoned at or below the retention floor. Such versions are invisible at
// every epoch >= floor — and the owning database refuses snapshots below the
// floor — so no reader of this or any later state can reach them. Snapshots
// pinned before the prune keep their own (immutable) state and are unaffected.
// Born/dead arrays and RowIDs are preserved so index entries stay valid.
// It returns the number of versions reclaimed by this call.
func (t *Table) pruneBelow(floor int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	n := 0
	for id := range st.rows {
		if st.rows[id] != nil && st.dead[id] != 0 && st.dead[id] <= floor {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	rows := make([]Row, len(st.rows))
	copy(rows, st.rows)
	for id := range rows {
		if st.dead[id] != 0 && st.dead[id] <= floor {
			rows[id] = nil
		}
	}
	t.state.Store(&tableState{
		rows: rows, born: st.born, dead: st.dead, live: st.live,
		indexes: st.indexes, ordered: st.ordered,
	})
	return n
}

// InsertMany inserts a batch of rows, stopping at the first error.
func (t *Table) InsertMany(rows []Row) error {
	for i, r := range rows {
		if _, err := t.Insert(r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// Get returns the row with the given id, or false if it was deleted or never
// existed. The returned row must not be mutated.
func (t *Table) Get(id RowID) (Row, bool) {
	st := t.state.Load()
	if id < 0 || int(id) >= len(st.rows) || st.dead[id] != 0 {
		return nil, false
	}
	return st.rows[id], true
}

// tombstoned returns a copy of dead with id stamped at epoch e. Tombstones
// copy-on-write instead of mutating in place so every already-published
// state — including latest-epoch views pinned mid-transaction — stays
// exactly as pinned. Deletes are rare in FlorDB's append-mostly workload,
// so the O(rows) copy is a fair trade for lock-free, atomics-free readers.
func (s *tableState) tombstoned(id RowID, e int64) []int64 {
	dead := make([]int64, len(s.dead))
	copy(dead, s.dead)
	dead[id] = e
	return dead
}

// Delete tombstones a row by id at the current write epoch. It reports
// whether a live row was removed. The row stays visible to snapshots pinned
// at earlier epochs (and to any view pinned before the delete); latest
// reads stop seeing it immediately.
func (t *Table) Delete(id RowID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	if id < 0 || int(id) >= len(st.rows) || st.dead[id] != 0 {
		return false
	}
	ns := &tableState{
		rows: st.rows, born: st.born, dead: st.tombstoned(id, t.writeEpoch()),
		live: st.live - 1, indexes: st.indexes, ordered: st.ordered,
	}
	t.state.Store(ns)
	return true
}

// Update replaces the row with the given id by tombstoning it and appending
// the new version, whose RowID is returned. Snapshots pinned before the
// update keep seeing the old version under the old id; the swap publishes
// as one state store, so no reader ever observes the row absent or doubled.
func (t *Table) Update(id RowID, r Row) (RowID, error) {
	valid, err := t.schema.Validate(r)
	if err != nil {
		return 0, fmt.Errorf("table %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	if id < 0 || int(id) >= len(st.rows) || st.dead[id] != 0 {
		return 0, fmt.Errorf("table %s: update of missing row %d", t.name, id)
	}
	e := t.writeEpoch()
	nid := RowID(len(st.rows))
	ns := &tableState{
		rows:    append(st.rows, valid),
		born:    append(st.born, e),
		dead:    append(st.tombstoned(id, e), 0),
		live:    st.live,
		indexes: st.indexes,
		ordered: st.ordered,
	}
	for _, ix := range ns.indexes {
		ix.add(nid, valid)
	}
	for _, ix := range ns.ordered {
		ix.add(nid, valid)
	}
	t.state.Store(ns)
	return nid, nil
}

// Scan calls fn for each live row in insertion order; returning false stops
// the scan. The row must not be mutated. The scan walks the published state
// directly — no lock is taken and nothing is copied; rows inserted or
// deleted after the state was loaded are not reflected.
func (t *Table) Scan(fn func(id RowID, r Row) bool) {
	t.state.Load().scan(latestEpoch, fn)
}

// latestEpoch makes every published, non-tombstoned row visible.
const latestEpoch = int64(1)<<62 - 1

// scan walks the rows visible at the given epoch.
func (s *tableState) scan(epoch int64, fn func(id RowID, r Row) bool) {
	for id := range s.rows {
		if s.visible(RowID(id), epoch) {
			if !fn(RowID(id), s.rows[id]) {
				return
			}
		}
	}
}

// visible reports whether row id exists at the given epoch: born at or
// before it, not tombstoned at or before it. Published states are immutable
// below their length (tombstones copy-on-write), so plain reads suffice.
func (s *tableState) visible(id RowID, epoch int64) bool {
	if id < 0 || int(id) >= len(s.rows) || s.born[id] > epoch {
		return false
	}
	d := s.dead[id]
	return d == 0 || d > epoch
}

func (s *tableState) rowsAt(epoch int64) []Row {
	out := make([]Row, 0, s.live)
	for id := range s.rows {
		if s.visible(RowID(id), epoch) {
			out = append(out, s.rows[id])
		}
	}
	return out
}

func (s *tableState) rowsByIDsAt(epoch int64, ids []RowID) []Row {
	out := make([]Row, 0, len(ids))
	for _, id := range ids {
		if s.visible(id, epoch) {
			out = append(out, s.rows[id])
		}
	}
	return out
}

// RowsByIDs returns the live rows among ids in the given order, e.g. the
// candidates an index lookup produced.
func (t *Table) RowsByIDs(ids []RowID) []Row {
	return t.state.Load().rowsByIDsAt(latestEpoch, ids)
}

// Rows returns the live rows in insertion order.
func (t *Table) Rows() []Row {
	return t.state.Load().rowsAt(latestEpoch)
}

// batchState exposes the published state and the epoch batch scans filter
// visibility at (see BatchScanOp); latest reads see every non-tombstoned row.
func (t *Table) batchState() (*tableState, int64) { return t.state.Load(), latestEpoch }

// At pins the table's current state at the given epoch, returning a
// consistent immutable view. Most callers want Database.Snapshot, which pins
// every table of a database at one epoch.
func (t *Table) At(epoch int64) *TableSnapshot {
	return &TableSnapshot{name: t.name, schema: t.schema, epoch: epoch, st: t.state.Load(), owner: t}
}

// CreateHashIndex builds (or returns the existing) hash index over the named
// columns. The index is maintained by subsequent mutations.
func (t *Table) CreateHashIndex(cols ...string) (*HashIndex, error) {
	positions, err := t.resolve(cols)
	if err != nil {
		return nil, err
	}
	key := indexKey(cols)
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	if ix, ok := st.indexes[key]; ok {
		return ix, nil
	}
	ix := newHashIndex(cols, positions)
	ix.bulkAdd(0, st.rows)
	indexes := make(map[string]*HashIndex, len(st.indexes)+1)
	for k, v := range st.indexes {
		indexes[k] = v
	}
	indexes[key] = ix
	ns := &tableState{
		rows: st.rows, born: st.born, dead: st.dead, live: st.live,
		indexes: indexes, ordered: st.ordered,
	}
	t.state.Store(ns)
	return ix, nil
}

// CreateOrderedIndex builds (or returns the existing) ordered index over a
// single column, supporting range scans.
func (t *Table) CreateOrderedIndex(col string) (*OrderedIndex, error) {
	positions, err := t.resolve([]string{col})
	if err != nil {
		return nil, err
	}
	key := indexKey([]string{col})
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	if ix, ok := st.ordered[key]; ok {
		return ix, nil
	}
	ix := newOrderedIndex(col, positions[0])
	ix.bulkAdd(0, st.rows)
	ordered := make(map[string]*OrderedIndex, len(st.ordered)+1)
	for k, v := range st.ordered {
		ordered[k] = v
	}
	ordered[key] = ix
	ns := &tableState{
		rows: st.rows, born: st.born, dead: st.dead, live: st.live,
		indexes: st.indexes, ordered: ordered,
	}
	t.state.Store(ns)
	return ix, nil
}

// HashIndexOn returns the hash index over the given columns, if present.
// Lookups may return tombstoned or not-yet-visible rows; resolve the ids
// through RowsByIDs (or a snapshot) to apply visibility.
func (t *Table) HashIndexOn(cols ...string) (*HashIndex, bool) {
	ix, ok := t.state.Load().indexes[indexKey(cols)]
	return ix, ok
}

// OrderedIndexOn returns the ordered index over the given column, if present.
func (t *Table) OrderedIndexOn(col string) (*OrderedIndex, bool) {
	ix, ok := t.state.Load().ordered[indexKey([]string{col})]
	return ix, ok
}

// HashIndexColumns lists the column sets of the table's hash indexes, sorted
// widest-first so planners can prefer the most selective covering index.
func (t *Table) HashIndexColumns() [][]string {
	return t.state.Load().hashIndexColumns()
}

func (s *tableState) hashIndexColumns() [][]string {
	out := make([][]string, 0, len(s.indexes))
	for _, ix := range s.indexes {
		out = append(out, append([]string(nil), ix.cols...))
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return indexKey(out[a]) < indexKey(out[b])
	})
	return out
}

// OrderedIndexColumns lists the columns carrying ordered indexes, sorted.
func (t *Table) OrderedIndexColumns() []string {
	return t.state.Load().orderedIndexColumns()
}

func (s *tableState) orderedIndexColumns() []string {
	out := make([]string, 0, len(s.ordered))
	for _, ix := range s.ordered {
		out = append(out, ix.col)
	}
	sort.Strings(out)
	return out
}

func (t *Table) resolve(cols []string) ([]int, error) {
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := t.schema.Index(c)
		if p < 0 {
			return nil, fmt.Errorf("table %s: no column %q", t.name, c)
		}
		positions[i] = p
	}
	return positions, nil
}

func indexKey(cols []string) string {
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}

// TableSnapshot is an immutable view of one table pinned at one epoch. All
// methods are lock-free and safe for concurrent use; none of them copy the
// row store. It implements TableReader.
type TableSnapshot struct {
	name   string
	schema *Schema
	epoch  int64
	st     *tableState
	// owner is the table the snapshot was pinned from; batch scans reach the
	// shared zone-map cache through it (zone maps derive from immutable data,
	// so sharing them across snapshots of any epoch is sound). nil for
	// hand-built snapshots, which then scan without pruning.
	owner *Table
}

// Name returns the table name.
func (v *TableSnapshot) Name() string { return v.name }

// Schema returns the table schema.
func (v *TableSnapshot) Schema() *Schema { return v.schema }

// Epoch returns the epoch the view is pinned at.
func (v *TableSnapshot) Epoch() int64 { return v.epoch }

// Len estimates the number of rows visible in the view. It is exact when no
// writer was mid-transaction at pin time; planners use it only to size hash
// joins and pick build sides, so the estimate is deliberately O(1).
func (v *TableSnapshot) Len() int { return v.st.live }

// Scan calls fn for each visible row in insertion order.
func (v *TableSnapshot) Scan(fn func(id RowID, r Row) bool) { v.st.scan(v.epoch, fn) }

// Get returns the row with the given id if it is visible in the view.
func (v *TableSnapshot) Get(id RowID) (Row, bool) {
	if !v.st.visible(id, v.epoch) {
		return nil, false
	}
	return v.st.rows[id], true
}

// Rows returns the visible rows in insertion order.
func (v *TableSnapshot) Rows() []Row { return v.st.rowsAt(v.epoch) }

// RowsByIDs returns the visible rows among ids in the given order.
func (v *TableSnapshot) RowsByIDs(ids []RowID) []Row { return v.st.rowsByIDsAt(v.epoch, ids) }

// batchState exposes the pinned state and epoch for batch scans.
func (v *TableSnapshot) batchState() (*tableState, int64) { return v.st, v.epoch }

// HashIndexOn returns the hash index over the given columns, if present.
func (v *TableSnapshot) HashIndexOn(cols ...string) (*HashIndex, bool) {
	ix, ok := v.st.indexes[indexKey(cols)]
	return ix, ok
}

// OrderedIndexOn returns the ordered index over the given column, if present.
func (v *TableSnapshot) OrderedIndexOn(col string) (*OrderedIndex, bool) {
	ix, ok := v.st.ordered[indexKey([]string{col})]
	return ix, ok
}

// HashIndexColumns lists the column sets of the table's hash indexes.
func (v *TableSnapshot) HashIndexColumns() [][]string { return v.st.hashIndexColumns() }

// OrderedIndexColumns lists the columns carrying ordered indexes.
func (v *TableSnapshot) OrderedIndexColumns() []string { return v.st.orderedIndexColumns() }

// TableReader is the read surface shared by live tables (latest visibility)
// and pinned TableSnapshots (epoch visibility). The SQL planner, the pivot
// engine, and every other reader operate on it, so the same code path serves
// both a single-user session and concurrent snapshot readers.
type TableReader interface {
	Name() string
	Schema() *Schema
	Len() int
	Scan(fn func(id RowID, r Row) bool)
	Get(id RowID) (Row, bool)
	Rows() []Row
	RowsByIDs(ids []RowID) []Row
	HashIndexOn(cols ...string) (*HashIndex, bool)
	OrderedIndexOn(col string) (*OrderedIndex, bool)
	HashIndexColumns() [][]string
	OrderedIndexColumns() []string

	// batchState exposes the published state and the epoch batch scans
	// filter visibility at, and zoneTable the table whose zone cache they
	// prune by. Being unexported, they also seal the interface: Table and
	// TableSnapshot are its only implementations.
	batchState() (*tableState, int64)
	zoneTable() *Table
}

var (
	_ TableReader = (*Table)(nil)
	_ TableReader = (*TableSnapshot)(nil)
)

// HashIndex is an equality index over one or more columns. Buckets hold a
// pointer to their id slice so the hot add path appends through the pointer
// without allocating a string key per insertion. Entries are retained when
// rows are tombstoned: MVCC readers filter candidate ids through row
// visibility instead.
type HashIndex struct {
	mu        sync.RWMutex
	cols      []string
	positions []int
	buckets   map[string]*[]RowID
	keyBuf    []byte // reused under mu for add key building
}

func newHashIndex(cols []string, positions []int) *HashIndex {
	return &HashIndex{
		cols:      append([]string(nil), cols...),
		positions: positions,
		buckets:   make(map[string]*[]RowID),
	}
}

// Columns returns the indexed column names.
func (ix *HashIndex) Columns() []string { return append([]string(nil), ix.cols...) }

// appendRowKey builds the bucket key for a row into dst. Callers must hold
// ix.mu when dst is ix.keyBuf.
func (ix *HashIndex) appendRowKey(dst []byte, r Row) []byte {
	for _, p := range ix.positions {
		dst = r[p].appendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst
}

// bulkAdd indexes a contiguous run of rows (ids start, start+1, ...) under
// one lock acquisition, reusing the key buffer across rows.
func (ix *HashIndex) bulkAdd(start RowID, rows []Row) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, r := range rows {
		ix.addLocked(start+RowID(i), r)
	}
}

func (ix *HashIndex) add(id RowID, r Row) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(id, r)
}

func (ix *HashIndex) addLocked(id RowID, r Row) {
	ix.keyBuf = ix.appendRowKey(ix.keyBuf[:0], r)
	ids, ok := ix.buckets[string(ix.keyBuf)] // lookup via []byte key does not allocate
	if !ok {
		ids = new([]RowID)
		ix.buckets[string(ix.keyBuf)] = ids
	}
	*ids = append(*ids, id)
}

// Lookup returns the RowIDs whose indexed columns equal the given values.
// The ids are candidates: callers must resolve them through a visibility
// filter (Table.RowsByIDs or a TableSnapshot) because tombstoned and
// not-yet-visible rows stay indexed.
func (ix *HashIndex) Lookup(vals ...Value) []RowID {
	if len(vals) != len(ix.positions) {
		return nil
	}
	var arr [64]byte
	k := arr[:0]
	for _, v := range vals {
		k = v.AppendKey(k)
		k = append(k, '\x1f')
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids, ok := ix.buckets[string(k)] // string(k) in a map index does not allocate
	if !ok || len(*ids) == 0 {
		return nil
	}
	return append([]RowID(nil), *ids...)
}

// OrderedIndex is a sorted single-column index supporting range scans. It is
// maintained as a sorted slice; inserts use binary search. For the metadata
// workloads FlorDB serves (append-mostly logs), this is simple and fast.
// Like HashIndex, entries for tombstoned rows are retained and filtered at
// read time.
type OrderedIndex struct {
	mu      sync.RWMutex
	col     string
	pos     int
	entries []orderedEntry
}

type orderedEntry struct {
	v  Value
	id RowID
}

func newOrderedIndex(col string, pos int) *OrderedIndex {
	return &OrderedIndex{col: col, pos: pos}
}

// Column returns the indexed column name.
func (ix *OrderedIndex) Column() string { return ix.col }

func (ix *OrderedIndex) add(id RowID, r Row) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	v := r[ix.pos]
	i := sort.Search(len(ix.entries), func(i int) bool {
		c := Compare(ix.entries[i].v, v)
		return c > 0 || (c == 0 && ix.entries[i].id >= id)
	})
	ix.entries = append(ix.entries, orderedEntry{})
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = orderedEntry{v: v, id: id}
}

// bulkAdd indexes a contiguous run of rows (ids start, start+1, ...) by
// appending their entries and re-sorting once — O((n+m) log (n+m)) instead
// of n insertion-sorts with O(m) memmoves each. Recovery workloads arrive
// already ordered (tstamps increase commit by commit), so an O(n) sortedness
// check usually skips the sort entirely; the fallback sorts a permutation of
// indexes to keep the comparison loop free of 72-byte entry copies.
func (ix *OrderedIndex) bulkAdd(start RowID, rows []Row) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.entries = slices.Grow(ix.entries, len(rows))
	for i, r := range rows {
		ix.entries = append(ix.entries, orderedEntry{v: r[ix.pos], id: start + RowID(i)})
	}
	less := func(a, b int) bool {
		c := comparePtr(&ix.entries[a].v, &ix.entries[b].v)
		return c < 0 || (c == 0 && ix.entries[a].id < ix.entries[b].id)
	}
	sorted := true
	for i := 1; i < len(ix.entries); i++ {
		if less(i, i-1) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	perm := make([]int, len(ix.entries))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
	out := make([]orderedEntry, len(ix.entries))
	for i, j := range perm {
		out[i] = ix.entries[j]
	}
	ix.entries = out
}

// Range returns RowIDs with lo <= value <= hi in ascending value order.
// A NULL bound means unbounded on that side. Like Lookup, the ids are
// candidates that must pass a visibility filter.
func (ix *OrderedIndex) Range(lo, hi Value) []RowID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	start := 0
	if !lo.IsNull() {
		start = sort.Search(len(ix.entries), func(i int) bool {
			return Compare(ix.entries[i].v, lo) >= 0
		})
	}
	var out []RowID
	for i := start; i < len(ix.entries); i++ {
		if !hi.IsNull() && Compare(ix.entries[i].v, hi) > 0 {
			break
		}
		out = append(out, ix.entries[i].id)
	}
	return out
}

// RangeBounds returns RowIDs whose value falls within the given bounds in
// ascending value order, with per-bound inclusivity. A NULL bound means
// unbounded on that side. Unlike Range, NULL-valued entries are never
// returned: SQL range predicates (<, <=, >, >=, BETWEEN) do not match NULL.
func (ix *OrderedIndex) RangeBounds(lo, hi Value, loIncl, hiIncl bool) []RowID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var start int
	if lo.IsNull() {
		// Unbounded below: skip the NULL run at the front of the entries.
		start = sort.Search(len(ix.entries), func(i int) bool {
			return !ix.entries[i].v.IsNull()
		})
	} else {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := Compare(ix.entries[i].v, lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	var out []RowID
	for i := start; i < len(ix.entries); i++ {
		if !hi.IsNull() {
			c := Compare(ix.entries[i].v, hi)
			if c > 0 || (c == 0 && !hiIncl) {
				break
			}
		}
		out = append(out, ix.entries[i].id)
	}
	return out
}

// Min returns the RowID holding the smallest non-NULL value, if any.
func (ix *OrderedIndex) Min() (RowID, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, e := range ix.entries {
		if !e.v.IsNull() {
			return e.id, true
		}
	}
	return 0, false
}

// Max returns the RowID holding the largest value, if any.
func (ix *OrderedIndex) Max() (RowID, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.entries) == 0 {
		return 0, false
	}
	return ix.entries[len(ix.entries)-1].id, true
}
