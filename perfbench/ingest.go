package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	flor "flordb"
	"flordb/internal/sqlparse"
	"flordb/internal/storage"
)

const (
	ingestProject       = "ingest"
	ingestSeedCommits   = 64  // history every round starts from
	ingestLogsPerCommit = 256 // values logged per commit
	ingestRoundCommits  = 256 // commits per round; Compact runs after the last
	ingestNames         = 8   // value names m0..m7, logged in turn
	ingestRecent        = 20  // the reader's window, in commits
	// ingestThink is the reader's pause between queries: a dashboard
	// polling the recent window, not a second writer-sized CPU load.
	ingestThink        = time.Millisecond
	ingestSegmentBytes = 1 << 20
	// ingestUserBytes is the user data in one logged value: a two-letter
	// name and an 8-byte float.
	ingestUserBytes = 2 + 8
	// ingestCompanionRounds is the ingest phase's size beside another
	// workload's window: one round per slice, 1280 commits, 12 of them
	// beyond commit p99.
	ingestCompanionRounds = 5
)

// ingestEnv is the seeded history every round copies before it writes, so
// that every round grows the same table from the same size.
type ingestEnv struct {
	template string
	seed     int64
}

func setupIngest(r *run) (*ingestEnv, error) {
	env := &ingestEnv{template: r.projectDir("ingest-template"), seed: r.cfg.seed}
	sess, err := flor.Open(env.template, ingestProject, flor.Options{NoSync: true, SegmentBytes: ingestSegmentBytes})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for c := 0; c < ingestSeedCommits; c++ {
		logBatch(sess, rng)
		if err := sess.Commit(""); err != nil {
			return nil, err
		}
	}
	if _, err := sess.Compact(); err != nil {
		return nil, err
	}
	return env, sess.Close()
}

func logBatch(sess *flor.Session, rng *rand.Rand) {
	for i := 0; i < ingestLogsPerCommit; i++ {
		sess.Log(fmt.Sprintf("m%d", i%ingestNames), rng.Float64())
	}
}

// ingestStats holds one ingest phase's raw samples.
type ingestStats struct {
	commit, compact, query   series
	disk                     series // bytes on disk per user byte, one per round
	ackedLogs                int64
	busy                     time.Duration // time in Log and Commit calls
	heapMB                   float64
	rowVersions              int64
	rounds                   int // started; seeds each round's values
	syncs, commits           int64
	walBytes                 int64
	compactRows, segsRemoved series
	snapshotBytes            series
	pinUs, parseUs           series // filled only while tracing
	cacheHits, cacheMisses   uint64
}

// ingestPhase runs rounds: copy the seeded history, then one writer logs
// and commits while one reader queries the recent window; the round ends
// with a Compact and a reopen that must find every acknowledged log. With
// final set, the last round takes the end-of-window measurements.
func ingestPhase(r *run, env *ingestEnv, st *ingestStats, b budget, final bool) {
	b.run(r, func(_ int, atEnd func() bool) error {
		dir := r.projectDir("ingest")
		st.rounds++
		if err := copyDir(env.template, dir); err != nil {
			return err
		}
		return ingestRound(r, env, st, dir, st.rounds, func() bool { return atEnd() && final })
	})
}

func ingestRound(r *run, env *ingestEnv, st *ingestStats, dir string, round int, last func() bool) error {
	tr := r.tr
	sess, err := flor.Open(dir, ingestProject, flor.Options{SegmentBytes: ingestSegmentBytes})
	if err != nil {
		return err
	}
	defer sess.Close()
	syncs0, commits0 := sess.WALSyncCount(), sess.WALCommitCount()
	hits0, misses0 := sess.PlanCacheStats()
	wal0, err := walBytes(dir)
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ingestReader(r, sess, st, stop)
	}()

	rng := rand.New(rand.NewSource(env.seed*1000 + int64(round) + 1))
	var acked int64
	var werr error
	for c := 0; c < ingestRoundCommits && werr == nil; c++ {
		op := tr.op()
		start := time.Now()
		tr.do("flor.log_batch", -1, op, func() error { logBatch(sess, rng); return nil })
		cstart := time.Now()
		werr = r.count(tr.do("flor.commit", -1, op, func() error { return sess.Commit("") }))
		if werr == nil {
			st.commit.addSince(cstart)
			st.busy += time.Since(start)
			acked++
		}
	}
	var removed int64
	if werr == nil {
		before, _ := walBytes(dir)
		start := time.Now()
		var cs storage.CompactStats
		werr = r.count(tr.do("flor.compact", -1, tr.op(), func() (err error) {
			cs, err = sess.Compact()
			return err
		}))
		if werr == nil {
			st.compact.addSince(start)
			st.compactRows.add(float64(cs.Rows))
			st.segsRemoved.add(float64(cs.SegmentsRemoved))
			after, _ := walBytes(dir)
			removed = before - after
		}
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		return werr
	}

	st.ackedLogs += acked * ingestLogsPerCommit
	st.syncs += sess.WALSyncCount() - syncs0
	st.commits += sess.WALCommitCount() - commits0
	hits, misses := sess.PlanCacheStats()
	st.cacheHits += hits - hits0
	st.cacheMisses += misses - misses0
	walEnd, err := walBytes(dir)
	if err != nil {
		return err
	}
	st.walBytes += walEnd + removed - wal0
	disk, err := dirBytes(filepath.Join(dir, ".flor"))
	if err != nil {
		return err
	}
	total := (ingestSeedCommits + acked) * ingestLogsPerCommit
	st.disk.add(float64(disk) / float64(total*ingestUserBytes))
	snaps, err := snapshotBytes(dir)
	if err != nil {
		return err
	}
	st.snapshotBytes.add(float64(snaps))
	if last() {
		st.rowVersions, _ = sess.Database().RowVersions()
		st.heapMB = heapLiveMB()
	}
	if err := sess.Close(); err != nil {
		return err
	}

	// Durability: every acknowledged commit survives a reopen.
	again, err := flor.Open(dir, ingestProject, flor.Options{})
	if err != nil {
		return err
	}
	defer again.Close()
	res, err := again.SQL("SELECT count(*) AS n FROM logs")
	if err == nil {
		err = expectInt(res, 0, 0, total)
	}
	if err != nil {
		err = fmt.Errorf("ingest reopen: %w", err)
	}
	if err := r.count(err); err != nil {
		return err
	}
	return again.Close()
}

// ingestReader queries the recent window until stop closes. Every text is
// new (the alias carries a counter), so the plan cache never hits. Without
// a projid term the planner reads the window through the ordered tstamp
// index, so a query costs the same however large the table has grown.
func ingestReader(r *run, sess *flor.Session, st *ingestStats, stop <-chan struct{}) {
	tr := r.tr
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-time.After(ingestThink):
		}
		op := tr.op()
		start := time.Now()
		q := tr.begin("ingest.query", -1, op)
		view, err := sess.Reader()
		pinned := time.Since(start)
		if err != nil {
			tr.end(q)
			r.op(err)
			continue
		}
		epoch := view.Epoch()
		text := fmt.Sprintf("SELECT count(*) AS n%d FROM logs WHERE value_name = 'm%d' AND tstamp > %d",
			i, i%ingestNames, epoch-ingestRecent)
		res, err := view.SQL(text)
		closeStart := time.Now()
		view.Close()
		pinned += time.Since(closeStart)
		tr.end(q)
		if err == nil {
			// Commit c has tstamp c and publishes epoch c, and each commit
			// logs ingestLogsPerCommit/ingestNames values of every name.
			err = expectInt(res, 0, 0, ingestRecent*ingestLogsPerCommit/ingestNames)
		}
		r.op(err)
		if err != nil {
			continue
		}
		st.query.addSince(start)
		if tr != nil {
			st.pinUs.add(float64(pinned.Nanoseconds()) / 1e3)
			pstart := time.Now()
			if _, err := sqlparse.Parse(text); err != nil {
				r.op(err)
			}
			st.parseUs.add(float64(time.Since(pstart).Nanoseconds()) / 1e3)
		}
	}
}

func expectInt(res *sqlparse.Result, row, col int, want int64) error {
	if len(res.Rows) <= row || len(res.Rows[row]) <= col {
		return fmt.Errorf("result has no cell (%d,%d)", row, col)
	}
	if got := res.Rows[row][col].AsInt(); got != want {
		return fmt.Errorf("got %d, want %d", got, want)
	}
	return nil
}

var (
	walFile  = regexp.MustCompile(`^flor\.wal(\.[0-9]+)?$`)
	snapFile = regexp.MustCompile(`^flor\.wal\.snap\.[0-9]+$`)
)

// walBytes sums the active WAL and its sealed segments.
func walBytes(dir string) (int64, error) { return matchBytes(dir, walFile) }

// snapshotBytes sums the table snapshots.
func snapshotBytes(dir string) (int64, error) { return matchBytes(dir, snapFile) }

func matchBytes(dir string, re *regexp.Regexp) (int64, error) {
	ents, err := os.ReadDir(filepath.Join(dir, ".flor"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !re.MatchString(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// copyDir copies the regular files of a project tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// e2e reports the ingest family of end-to-end metrics, and query_p50_ms
// when the ingest reader is the run's query source.
func (st *ingestStats) e2e(r *run, source string, queries bool) {
	r.setP50("compact_p50_ms", &st.compact, source)
	r.set("disk_bytes_per_user_byte", "ratio", st.disk.median(), st.disk.n(), source+"; after each round's Compact")
	if queries {
		r.setP50("query_p50_ms", &st.query, source)
	}
	st.ungated(r, source, queries)
}

// ungated reports the write path's latency and throughput and the
// reader's tail, which swing with the machine's fsync latency.
func (st *ingestStats) ungated(r *run, source string, queries bool) {
	r.ungated("commit_p50_ms", "ms", st.commit.median(), st.commit.n(), source)
	v, note := p99(&st.commit, source)
	r.ungated("commit_p99_ms", "ms", v, st.commit.n(), note)
	r.ungated("ingest_logs_per_s", "1/s", float64(st.ackedLogs)/st.busy.Seconds(), int(st.ackedLogs), source+"; logs acknowledged per second inside Log and Commit")
	if queries {
		v, note := p99(&st.query, source)
		r.ungated("query_p99_ms", "ms", v, st.query.n(), note)
	}
}

// layers reports the storage per-layer metrics from a traced ingest
// phase, and the query-path ones when it is the query source.
func (st *ingestStats) layers(r *run, source string, queries bool) {
	st.ungated(r, source, queries)
	r.set("storage.fsyncs_per_commit", "ratio", ratio(float64(st.syncs), float64(st.commits)), int(st.commits), source)
	r.set("storage.wal_bytes_per_log", "bytes", ratio(float64(st.walBytes), float64(st.ackedLogs)), int(st.ackedLogs), source)
	r.set("storage.compact_rows", "count", st.compactRows.median(), st.compactRows.n(), source)
	r.set("storage.segments_removed", "count", st.segsRemoved.median(), st.segsRemoved.n(), source)
	r.set("record.snapshot_bytes", "bytes", st.snapshotBytes.median(), st.snapshotBytes.n(), source+"; after each round's Compact")
	r.set("flor.pin_us", "us", st.pinUs.median(), st.pinUs.n(), source+"; Reader plus Close")
	r.set("sqlparse.parse_us.recent", "us", st.parseUs.median(), st.parseUs.n(), source)
	if queries {
		r.set("sqlparse.plan_cache_hit_ratio", "ratio", ratio(float64(st.cacheHits), float64(st.cacheHits+st.cacheMisses)), int(st.cacheHits+st.cacheMisses), source)
	}
}
