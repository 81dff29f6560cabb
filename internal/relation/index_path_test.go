package relation

import (
	"fmt"
	"sync"
	"testing"
)

// scoreTable builds a table over testSchema with an ordered index on score.
func scoreTable(t *testing.T, scores []Value) (*Table, *OrderedIndex) {
	t.Helper()
	tab := NewTable("t", testSchema(t))
	ix, err := tab.CreateOrderedIndex("score")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("r"), s}); err != nil {
			t.Fatal(err)
		}
	}
	return tab, ix
}

func TestScanConcurrentWithInserts(t *testing.T) {
	// Scan walks a lock-free published state; concurrent inserts and deletes
	// must neither race (run with -race) nor disturb an in-flight scan. The
	// writer is bounded: readers no longer throttle it, so an unbounded
	// writer would grow the table quadratically under the race detector.
	tab := NewTable("t", testSchema(t))
	if _, err := tab.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("seed"), Float(1)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 50000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := tab.Insert(Row{Int(int64(i)), Text("w"), Float(2)})
			if err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				tab.Delete(id)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		seen := 0
		tab.Scan(func(_ RowID, r Row) bool {
			seen++
			_ = r[0].AsInt()
			return true
		})
		if seen < 100 {
			t.Fatalf("scan %d saw %d rows, want >= 100", i, seen)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRowsByIDsSkipsDeleted(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	var ids []RowID
	for i := 0; i < 4; i++ {
		id, err := tab.Insert(Row{Int(int64(i)), Text("x"), Float(0)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	tab.Delete(ids[1])
	rows := tab.RowsByIDs(ids)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[1][0].AsInt() != 2 {
		t.Fatalf("deleted row not skipped in order: %v", rows[1][0])
	}
}

func TestRangeBoundsExclusive(t *testing.T) {
	_, ix := scoreTable(t, []Value{Float(0.1), Float(0.3), Float(0.5), Float(0.7)})
	if got := len(ix.RangeBounds(Float(0.3), Float(0.7), false, false)); got != 1 {
		t.Fatalf("(0.3, 0.7) exclusive: got %d ids, want 1", got)
	}
	if got := len(ix.RangeBounds(Float(0.3), Float(0.7), true, false)); got != 2 {
		t.Fatalf("[0.3, 0.7): got %d ids, want 2", got)
	}
	if got := len(ix.RangeBounds(Float(0.3), Float(0.7), false, true)); got != 2 {
		t.Fatalf("(0.3, 0.7]: got %d ids, want 2", got)
	}
	if got := len(ix.RangeBounds(Float(0.3), Float(0.7), true, true)); got != 3 {
		t.Fatalf("[0.3, 0.7]: got %d ids, want 3", got)
	}
}

func TestRangeBoundsNullEntriesExcluded(t *testing.T) {
	// SQL range predicates never match NULL, even when a bound is absent.
	tab, ix := scoreTable(t, []Value{Null(), Float(0.2), Null(), Float(0.8)})
	if got := len(ix.RangeBounds(Null(), Null(), true, true)); got != 2 {
		t.Fatalf("unbounded RangeBounds returned %d ids, want 2 (no NULLs)", got)
	}
	if got := len(ix.RangeBounds(Null(), Float(0.5), true, true)); got != 1 {
		t.Fatalf("<= 0.5 returned %d ids, want 1", got)
	}
	if got := len(ix.RangeBounds(Float(0.0), Null(), true, true)); got != 2 {
		t.Fatalf(">= 0.0 returned %d ids, want 2", got)
	}
	// Contrast: the inclusive Range keeps its legacy include-all behavior.
	if got := len(ix.Range(Null(), Null())); got != 4 {
		t.Fatalf("legacy Range(NULL, NULL) returned %d ids, want 4", got)
	}
	_ = tab
}

func TestRangeBoundsDuplicateKeys(t *testing.T) {
	_, ix := scoreTable(t, []Value{Float(0.5), Float(0.5), Float(0.5), Float(0.2)})
	ids := ix.RangeBounds(Float(0.5), Float(0.5), true, true)
	if len(ids) != 3 {
		t.Fatalf("point range over duplicates returned %d ids, want 3", len(ids))
	}
	if got := len(ix.RangeBounds(Float(0.5), Float(0.5), false, true)); got != 0 {
		t.Fatalf("(0.5, 0.5] must be empty, got %d", got)
	}
}

func TestRangeBoundsEmptyAndInverted(t *testing.T) {
	_, ix := scoreTable(t, []Value{Float(0.1), Float(0.9)})
	if got := len(ix.RangeBounds(Float(0.2), Float(0.8), true, true)); got != 0 {
		t.Fatalf("gap range returned %d ids, want 0", got)
	}
	if got := len(ix.RangeBounds(Float(0.9), Float(0.1), true, true)); got != 0 {
		t.Fatalf("inverted range returned %d ids, want 0", got)
	}
	empty := NewTable("e", testSchema(t))
	eix, err := empty.CreateOrderedIndex("score")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eix.RangeBounds(Null(), Null(), true, true)); got != 0 {
		t.Fatalf("empty index returned %d ids", got)
	}
}

func TestRangeBoundsTombstonedRows(t *testing.T) {
	tab, ix := scoreTable(t, []Value{Float(0.1), Float(0.5), Float(0.9)})
	var victim RowID = -1
	tab.Scan(func(id RowID, r Row) bool {
		if r[2].AsFloat() == 0.5 {
			victim = id
			return false
		}
		return true
	})
	if !tab.Delete(victim) {
		t.Fatal("delete failed")
	}
	// The tombstoned row stays indexed (older snapshots may still see it);
	// visibility filtering happens when ids resolve to rows.
	ids := ix.RangeBounds(Float(0.0), Float(1.0), true, true)
	if len(ids) != 3 {
		t.Fatalf("range over tombstoned table returned %d ids, want 3 candidates", len(ids))
	}
	if rows := tab.RowsByIDs(ids); len(rows) != 2 {
		t.Fatalf("RowsByIDs resolved %d rows, want 2", len(rows))
	}
}

func TestIndexIntrospection(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	if _, err := tab.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateHashIndex("id", "name"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateOrderedIndex("score"); err != nil {
		t.Fatal(err)
	}
	hcols := tab.HashIndexColumns()
	if len(hcols) != 2 || len(hcols[0]) != 2 {
		t.Fatalf("HashIndexColumns = %v, want widest-first", hcols)
	}
	if ocols := tab.OrderedIndexColumns(); len(ocols) != 1 || ocols[0] != "score" {
		t.Fatalf("OrderedIndexColumns = %v", ocols)
	}
	if _, ok := tab.OrderedIndexOn("score"); !ok {
		t.Fatal("OrderedIndexOn(score) missing")
	}
	if _, ok := tab.OrderedIndexOn("name"); ok {
		t.Fatal("OrderedIndexOn(name) should not exist")
	}
}

func TestIndexLookupOp(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	if _, err := tab.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	// More rows per key than one batch holds, so emission spans batches.
	const n = 2*DefaultBatchSize + 10
	for i := 0; i < n; i++ {
		name := "a"
		if i%2 == 0 {
			name = "b"
		}
		if _, err := tab.Insert(Row{Int(int64(i)), Text(name), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	op, err := NewBatchIndexLookup(tab, []string{"name"}, [][]Value{{Text("a")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, collectBatches(t, op), tab.RowsByIDs(mustHashIndex(t, tab, "name").Lookup(Text("a"))))
	// Multi-tuple (IN) lookup: key by key, each key's rows in index order.
	op, err = NewBatchIndexLookup(tab, []string{"name"}, [][]Value{{Text("b")}, {Text("a")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := collectBatches(t, op)
	if len(rows) != n {
		t.Fatalf("lookup b,a: %d rows, want %d", len(rows), n)
	}
	if rows[0][1].AsText() != "b" || rows[n-1][1].AsText() != "a" || rows[n/2][1].AsText() != "a" {
		t.Fatalf("lookup b,a: not emitted key by key: first %v, middle %v, last %v", rows[0], rows[n/2], rows[n-1])
	}
	if _, err := NewBatchIndexLookup(tab, []string{"score"}, [][]Value{{Float(1)}}, nil); err == nil {
		t.Fatal("lookup without index must fail")
	}
	if _, err := NewBatchIndexLookup(tab, []string{"name"}, [][]Value{{Text("a"), Int(1)}}, nil); err == nil {
		t.Fatal("lookup with a key of the wrong arity must fail")
	}
}

func mustHashIndex(t *testing.T, tab *Table, cols ...string) *HashIndex {
	t.Helper()
	ix, ok := tab.HashIndexOn(cols...)
	if !ok {
		t.Fatalf("no hash index on %v", cols)
	}
	return ix
}

func TestIndexRangeOp(t *testing.T) {
	tab, _ := scoreTable(t, []Value{Float(0.9), Null(), Float(0.4), Float(0.1), Float(0.6), Null()})
	op, err := NewBatchIndexRange(tab, "score", Float(0.2), Float(0.7), true, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := collectBatches(t, op)
	if len(rows) != 2 {
		t.Fatalf("range rows = %d, want 2", len(rows))
	}
	// Rows come back in ascending value order, not insertion order.
	if rows[0][2].AsFloat() != 0.4 || rows[1][2].AsFloat() != 0.6 {
		t.Fatalf("range order wrong: %v", rows)
	}
	// Unbounded below: NULL-valued rows are never produced.
	op, err = NewBatchIndexRange(tab, "score", Null(), Float(0.6), true, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows = collectBatches(t, op)
	if len(rows) != 2 || rows[0][2].AsFloat() != 0.1 || rows[1][2].AsFloat() != 0.4 {
		t.Fatalf("score < 0.6 = %v, want 0.1, 0.4", rows)
	}
	if _, err := NewBatchIndexRange(tab, "name", Null(), Null(), true, true, nil); err == nil {
		t.Fatal("range without index must fail")
	}
}

// TestIndexScanPrunesColumns checks that an index scan materializes only
// the columns it is asked for.
func TestIndexScanPrunesColumns(t *testing.T) {
	tab, _ := scoreTable(t, []Value{Float(0.1), Float(0.4), Float(0.6)})
	op, err := NewBatchIndexRange(tab, "score", Float(0.3), Null(), true, true, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := op.NextBatch()
	if !ok || b.Len() != 2 {
		t.Fatalf("want one batch of 2 rows, got ok=%v", ok)
	}
	if b.Cols[1] != nil || b.Cols[2] != nil {
		t.Fatal("pruned columns were materialized")
	}
	if b.Cols[0][b.Sel[0]].AsInt() != 1 || b.Cols[0][b.Sel[1]].AsInt() != 2 {
		t.Fatalf("ids = %v, want [1 2]", b.Cols[0][:b.Size()])
	}
	if _, ok := op.NextBatch(); ok {
		t.Fatal("scan did not end")
	}
}

// TestIndexScanPinnedSnapshotVisibility pins a snapshot while a matching
// row is in flight, then tombstones a matching row and inserts more: index
// scans over the pinned view must keep seeing exactly the committed rows of
// the pin, while scans over the live table see every later write.
func TestIndexScanPinnedSnapshotVisibility(t *testing.T) {
	db := NewDatabase()
	tab, err := db.CreateTable("t", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateOrderedIndex("score"); err != nil {
		t.Fatal(err)
	}
	var ids []RowID
	for i := 0; i < 6; i++ {
		id, err := tab.Insert(Row{Int(int64(i)), Text("x"), Float(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	tab.Delete(ids[0]) // tombstoned before the pin
	db.AdvanceEpoch()
	insert := func(i int) {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("x"), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	insert(6) // in flight at the pin: in the pinned state, born after its epoch
	snap := db.Snapshot()
	defer snap.Release()
	view, _ := snap.Table("t")

	tab.Delete(ids[1]) // tombstoned after the pin, never committed
	insert(7)          // past the end of the pinned state
	insert(8)

	ids1to5 := []int64{1, 2, 3, 4, 5}
	lookup, err := NewBatchIndexLookup(view, []string{"name"}, [][]Value{{Text("x")}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	expectIDs(t, "pinned lookup", collectBatches(t, lookup), ids1to5)
	rng, err := NewBatchIndexRange(view, "score", Float(0), Null(), true, true, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	expectIDs(t, "pinned range", collectBatches(t, rng), ids1to5)

	live, err := NewBatchIndexRange(tab, "score", Float(0), Null(), true, true, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	expectIDs(t, "live range", collectBatches(t, live), []int64{2, 3, 4, 5, 6, 7, 8})
}

func expectIDs(t *testing.T, what string, rows []Row, want []int64) {
	t.Helper()
	got := make([]int64, len(rows))
	for i, r := range rows {
		got[i] = r[0].AsInt()
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: ids %v, want %v", what, got, want)
	}
}

// countingIter counts Next calls, for asserting lazy evaluation.
type countingIter struct {
	in Iterator
	n  int
}

func (c *countingIter) Schema() *Schema { return c.in.Schema() }
func (c *countingIter) Next() (Row, bool) {
	c.n++
	return c.in.Next()
}

func TestHashJoinLazyBuild(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	for i := 0; i < 3; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("x"), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	right := &countingIter{in: NewScan(tab)}
	j, err := NewHashJoin(NewScan(tab), right, []string{"id"}, []string{"id"}, "r")
	if err != nil {
		t.Fatal(err)
	}
	if right.n != 0 {
		t.Fatalf("build side drained at construction: %d Next calls", right.n)
	}
	if got := len(Collect(j)); got != 3 {
		t.Fatalf("join rows = %d, want 3", got)
	}
	if right.n == 0 {
		t.Fatal("build side never drained")
	}
}

func TestHashJoinBuildSideEquivalence(t *testing.T) {
	left := NewTable("l", testSchema(t))
	rightT := NewTable("r", testSchema(t))
	for i := 0; i < 5; i++ {
		if _, err := left.Insert(Row{Int(int64(i % 3)), Text("l"), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := rightT.Insert(Row{Int(int64(i)), Text("r"), Float(float64(i) * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(buildLeft bool) []Row {
		j, err := NewHashJoinBuildSide(NewScan(left), NewScan(rightT), []string{"id"}, []string{"id"}, "r", buildLeft)
		if err != nil {
			t.Fatal(err)
		}
		return Collect(j)
	}
	a, b := collect(false), collect(true)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("join sizes: buildRight=%d buildLeft=%d, want 5", len(a), len(b))
	}
	// Same output schema and same multiset of rows regardless of build side.
	key := func(r Row) string {
		k := ""
		for _, v := range r {
			k += v.Key() + "|"
		}
		return k
	}
	seen := map[string]int{}
	for _, r := range a {
		seen[key(r)]++
	}
	for _, r := range b {
		seen[key(r)]--
	}
	for k, n := range seen {
		if n != 0 {
			t.Fatalf("row multiset differs between build sides at %q", k)
		}
	}
}

func TestValueAppendKeyMatchesKey(t *testing.T) {
	vals := []Value{
		Null(), Text("abc"), Text(""), Int(42), Int(-7), Float(3.14), Float(42),
		Bool(true), Bool(false), Blob([]byte{1, 2, 3}),
	}
	for _, v := range vals {
		if got := string(v.AppendKey(nil)); got != v.Key() {
			t.Fatalf("AppendKey mismatch for %v: %q != %q", v, got, v.Key())
		}
	}
	// Int/Float key unification (they join and group together).
	if Int(5).Key() != Float(5).Key() {
		t.Fatal("Int(5) and Float(5) must share a key")
	}
}
