package sqlparse

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"flordb/internal/relation"
)

// Morsel-driven parallel scan execution. When a single-table statement reads
// its table through a full scan, the executor may run the compiled
// scan→filter→project (or scan→filter→pre-aggregate) pipeline on several
// workers: the table's physical row store is carved into page-aligned
// morsels and workers claim them from a shared atomic counter, re-arming
// their own scan operator per morsel via SetRange. Every worker's pipeline
// is a fresh copy opened from the same planned access (planTableAccess
// decides the access path once, for every copy), and nothing below the sink
// is shared between workers — each copy has its own batch buffers, compiled
// closures, and scratch rows — so the only cross-goroutine traffic is the
// morsel counter and the per-morsel output slots.
//
// Correctness invariants, in terms the equivalence property tests assert:
//
//   - MVCC: every worker's scan resolves against the same published table
//     state semantics as a serial scan (each NextBatch computes its selection
//     vector from the scan's own pinned state), so tombstones and AS OF pins
//     filter identically.
//   - Ordering: non-aggregate results are reassembled in morsel order, which
//     is exactly row-store order — the serial scan's order — before the
//     (stable) ORDER BY/LIMIT operators run, so output is byte-identical to
//     serial. Aggregates merge per-worker partials and emit groups in
//     canonical key order: a deterministic permutation of the serial output,
//     row-multiset-equal; statements where group order changes the visible
//     result (LIMIT/OFFSET) stay serial.
//   - Deferred errors: expression evaluation errors latch into slots
//     registered on the shared execCtx exactly as in serial execution; any
//     worker's error surfaces after the drain. Zone-map pruning is armed only
//     when the whole WHERE kernelizes (kernels are error-free), so pruning
//     never suppresses an error the serial path would have reported.
var parallelMinRows = 8192 // smallest row store worth fanning out; test-overridable

// morselRows is the scan range one worker claims at a time: a multiple of
// the zone page size, so morsel boundaries stay page-aligned and every
// complete page inside a morsel is prunable by its zone.
const morselRows = 4 * relation.ZonePageRows

// EffectiveScanWorkers resolves an ExecOptions.ScanWorkers setting against
// the host: 0 means GOMAXPROCS, anything else is clamped to
// [1, GOMAXPROCS].
func EffectiveScanWorkers(n int) int {
	maxp := runtime.GOMAXPROCS(0)
	if n <= 0 || n > maxp {
		return maxp
	}
	return n
}

// fanOut returns how many morsel workers run the statement's pipeline over
// in, and the morsel count; fewer than two workers means the pipeline runs
// as the serial stream. Only a single-table full scan fans out, and only
// when reassembly cannot change the visible result or waste work: merged
// partial aggregates emit groups in canonical key order, which LIMIT/OFFSET
// would expose, and a serial LIMIT without ORDER BY stops scanning early.
func fanOut(in *input, stmt *SelectStmt, agg bool, workers int) (int, int) {
	if in.full == nil || workers < 2 {
		return 0, 0
	}
	if agg && (stmt.Limit >= 0 || stmt.Offset > 0) {
		return 0, 0
	}
	if !agg && stmt.Limit >= 0 && len(stmt.OrderBy) == 0 {
		return 0, 0
	}
	// Morsels must cover the *physical* row store (tombstoned versions
	// included — visibility is the scan's job), so size them from the
	// resolved store length, not the visible row count.
	storeLen := in.scan.StoreLen()
	if storeLen < parallelMinRows {
		return 0, 0
	}
	morsels := (storeLen + morselRows - 1) / morselRows
	return min(workers, morsels), morsels
}

// morselWorker is one copy of the compiled pipeline.
type morselWorker struct {
	scan *relation.BatchScanOp
	top  relation.BatchIterator
	pa   *relation.PartialAgg // aggregate mode only
}

// gather runs the pipeline on n morsel workers: worker 0 is the copy
// compileSelect already built over in, the others are fresh copies of the
// full-scan access with project stacked on each. Every copy is compiled
// up front, on this goroutine: compiled closures carry per-pipeline scratch
// buffers and error-slot registration on ctx is not synchronized, so no
// compilation may happen once workers run. The workers themselves start
// lazily, on the first row pulled, so EXPLAIN never runs them.
func gather(in *input, top relation.BatchIterator, project func(relation.BatchIterator) (relation.BatchIterator, error),
	n, morsels int, stmt *SelectStmt, ctx *execCtx, sp *simplePlan, ap *aggPlan) (*compiled, error) {
	ws := []*morselWorker{{scan: in.scan, top: top}}
	for len(ws) < n {
		it, scan, err := in.full.open(ctx)
		if err != nil {
			return nil, err
		}
		top, err := project(it)
		if err != nil {
			return nil, err
		}
		ws = append(ws, &morselWorker{scan: scan, top: top})
	}
	if ap != nil {
		for _, w := range ws {
			pa, err := relation.NewPartialAgg(w.top.Schema(), ap.groupCols, ap.specs)
			if err != nil {
				return nil, err
			}
			w.pa = pa
		}
	}

	// The store is append-only: a range valid against worker 0's state is
	// valid against every worker's.
	storeLen := in.scan.StoreLen()
	var out [][]relation.Row
	if ap == nil {
		out = make([][]relation.Row, morsels)
	}
	run := func() {
		var next atomic.Int64
		panics := make([]any, len(ws))
		var wg sync.WaitGroup
		for wi, w := range ws {
			wg.Add(1)
			go func(wi int, w *morselWorker) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						panics[wi] = p
					}
				}()
				for {
					m := int(next.Add(1)) - 1
					if m >= morsels {
						return
					}
					lo := m * morselRows
					w.scan.SetRange(lo, min(lo+morselRows, storeLen))
					if w.pa != nil {
						w.pa.Consume(w.top)
						continue
					}
					out[m] = relation.Collect(relation.NewRowsFromBatches(w.top))
				}
			}(wi, w)
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}

	// Plan tree: the per-worker pipeline under a Gather node, then the
	// shared post half on top.
	if in.full.zoned {
		in.node.Detail += " [zonemap]" // in.node is the residual Filter: zoning implies conjuncts
	}
	detail := fmt.Sprintf("workers=%d morsels=%d", n, morsels)
	if ap != nil {
		pnode := &PlanNode{Op: "PartialAggregate", Detail: aggDetail(ap.groupCols, ap.rw.calls), Batched: true, Children: []*PlanNode{in.node}}
		node := &PlanNode{Op: "Gather", Detail: detail, Children: []*PlanNode{pnode}}
		// Drain all morsels, merge the partials, and emit the merged groups
		// in canonical key order.
		grouped := relation.NewLazyScan(ws[0].pa.Schema(), func() []relation.Row {
			run()
			for _, w := range ws[1:] {
				ws[0].pa.Merge(w.pa)
			}
			return ws[0].pa.Rows()
		})
		return compileAggPost(grouped, node, stmt, ctx, ap)
	}

	pnode := &PlanNode{Op: "Project", Detail: "[" + strings.Join(sp.visible, ", ") + "]", Batched: true, Children: []*PlanNode{in.node}}
	node := &PlanNode{Op: "Gather", Detail: detail + " order=store", Children: []*PlanNode{pnode}}
	it := relation.NewLazyScan(top.Schema(), func() []relation.Row {
		run()
		total := 0
		for _, rs := range out {
			total += len(rs)
		}
		all := make([]relation.Row, 0, total)
		for _, rs := range out {
			all = append(all, rs...)
		}
		return all
	})
	return finishSimple(it, node, stmt, sp)
}
