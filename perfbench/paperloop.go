package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	flor "flordb"
	"flordb/internal/diffkit"
	"flordb/internal/docsim"
	"flordb/internal/hostlib"
	"flordb/internal/replay"
	"flordb/internal/script"
)

const (
	paperVersions = 6 // recorded versions of train.flow per cycle
	paperEpochs   = 5 // epochs train.flow runs (its flor.arg default)
	paperFile     = "train.flow"
	paperProject  = "paper"
	// paperCompanionCycles is the paper phase's size when it runs beside
	// another workload's window.
	paperCompanionCycles = 40
)

// paperEnv is the paper loop's generated input: the 60-document corpus and
// one train.flow source per version, each with its own seeded learning
// rate, plus the newest source carrying the hindsight weight_norm log.
type paperEnv struct {
	state  *hostlib.State
	srcs   []string
	newSrc string
}

func setupPaper(seed int64) *paperEnv {
	st := hostlib.NewState(docsim.Config{
		NumDocs: 60, MinPages: 5, MaxPages: 10, OCRFraction: 0.4, Seed: uint64(seed),
	}, 32)
	rng := rand.New(rand.NewSource(seed))
	const lrLine = `learning_rate = flor.arg("lr", 0.05)`
	if !strings.Contains(hostlib.TrainSrc, lrLine) {
		panic("perfbench: train.flow no longer sets lr with " + lrLine)
	}
	env := &paperEnv{state: st, newSrc: hostlib.TrainSrcWithNorm}
	for v := 0; v < paperVersions; v++ {
		lr := fmt.Sprintf(`learning_rate = flor.arg("lr", %.3f)`, 0.01+0.09*rng.Float64())
		env.srcs = append(env.srcs, strings.Replace(hostlib.TrainSrc, lrLine, lr, 1))
	}
	return env
}

// paperStats holds one paper phase's raw samples.
type paperStats struct {
	record, hindsight, dataframe, reopen series
	heapMB                               float64
	rowVersions                          int64
	// Filled only while tracing.
	blobBytesPerVersion series
	reports             []flor.HindsightReport
}

// paperPhase runs the paper's §2 loop, one fresh project per cycle:
// record the versions, backfill weight_norm into all of them, pivot the
// dataframe, close, and reopen through recovery. With final set, the last
// cycle takes the end-of-window measurements.
func paperPhase(r *run, env *paperEnv, st *paperStats, b budget, final bool) {
	b.run(r, func(_ int, atEnd func() bool) error {
		return paperCycle(r, env, st, r.projectDir("paper"), func() bool { return atEnd() && final })
	})
}

func paperCycle(r *run, env *paperEnv, st *paperStats, dir string, last func() bool) error {
	tr := r.tr
	op := tr.op()
	cycle := tr.begin("paper.cycle", -1, op)
	defer tr.end(cycle)

	sess, err := flor.Open(dir, paperProject, flor.Options{Policy: replay.EveryN{N: 1}})
	if err != nil {
		return err
	}
	defer sess.Close()
	hostlib.Register(sess, env.state)

	for v, src := range env.srcs {
		start := time.Now()
		rec := tr.begin("paper.record", cycle, op)
		err := tr.do("flor.run_script", rec, op, func() error { return sess.RunScript(paperFile, src) })
		if err == nil {
			err = tr.do("flor.commit", rec, op, func() error { return sess.Commit(fmt.Sprintf("version %d", v)) })
		}
		tr.end(rec)
		if err := r.count(err); err != nil {
			return err
		}
		st.record.addSince(start)
	}
	if tr != nil {
		if err := traceRecordLayers(r, env, st, sess, dir, cycle, op); err != nil {
			return err
		}
	}

	start := time.Now()
	var reports []flor.HindsightReport
	err = tr.do("flor.hindsight", cycle, op, func() (err error) {
		reports, err = sess.Hindsight(paperFile, env.newSrc, nil)
		return err
	})
	if err == nil {
		err = checkReports(reports)
	}
	if err := r.count(err); err != nil {
		return err
	}
	st.hindsight.addSince(start)
	if tr != nil {
		st.reports = append(st.reports, reports...)
	}

	start = time.Now()
	var df *flor.Dataframe
	err = tr.do("flor.dataframe", cycle, op, func() (err error) {
		df, err = sess.Dataframe("weight_norm", "acc", "recall")
		return err
	})
	if err == nil {
		err = checkPaperDataframe(df)
	}
	if err := r.count(err); err != nil {
		return err
	}
	st.dataframe.addSince(start)
	if last() {
		st.rowVersions, _ = sess.Database().RowVersions()
		st.heapMB = heapLiveMB()
	}
	if err := tr.do("flor.close", cycle, op, sess.Close); err != nil {
		return err
	}

	start = time.Now()
	var again *flor.Session
	err = tr.do("flor.open_recover", cycle, op, func() (err error) {
		again, err = flor.Open(dir, paperProject, flor.Options{})
		return err
	})
	if err := r.count(err); err != nil {
		return err
	}
	st.reopen.addSince(start)
	defer again.Close()
	df, err = again.Dataframe("weight_norm", "acc", "recall")
	if err == nil {
		err = checkPaperDataframe(df)
	}
	if err != nil {
		err = fmt.Errorf("after reopen: %w", err)
	}
	if err := r.count(err); err != nil {
		return err
	}
	return again.Close()
}

// traceRecordLayers times, beside the recorded run, the layers the record
// and hindsight steps are built from: the uninstrumented interpreter, the
// version listing, and the source alignment. It also sizes the checkpoint
// blobs the versions stored.
func traceRecordLayers(r *run, env *paperEnv, st *paperStats, sess *flor.Session, dir string, parent int, op int64) error {
	tr := r.tr
	err := tr.do("script.run", parent, op, func() error {
		f, err := script.Parse(paperFile, env.srcs[0])
		if err != nil {
			return err
		}
		in := script.NewInterp(script.NopHooks{}, nil)
		hostlib.Register(in, env.state)
		return in.Run(f)
	})
	if err == nil {
		err = tr.do("replay.versions", parent, op, func() error {
			vs, err := sess.Versions(paperFile)
			if err == nil && len(vs) != paperVersions {
				err = fmt.Errorf("versions: got %d, want %d", len(vs), paperVersions)
			}
			return err
		})
	}
	if err == nil {
		err = tr.do("diffkit.align", parent, op, func() error {
			diffkit.Align(diffkit.SplitLines(env.srcs[0]), diffkit.SplitLines(env.newSrc))
			return nil
		})
	}
	if err == nil {
		var n int64
		n, err = dirBytes(filepath.Join(dir, ".flor", "objects"))
		st.blobBytesPerVersion.add(float64(n) / paperVersions)
	}
	return r.count(err)
}

func checkReports(reports []flor.HindsightReport) error {
	if len(reports) != paperVersions {
		return fmt.Errorf("hindsight: %d reports, want %d", len(reports), paperVersions)
	}
	for _, rep := range reports {
		if rep.Err != nil {
			return fmt.Errorf("hindsight version %d: %w", rep.Tstamp, rep.Err)
		}
	}
	return nil
}

// checkPaperDataframe requires one row per version and epoch, each with a
// backfilled weight_norm.
func checkPaperDataframe(df *flor.Dataframe) error {
	if df.Len() != paperVersions*paperEpochs {
		return fmt.Errorf("dataframe: %d rows, want %d", df.Len(), paperVersions*paperEpochs)
	}
	wi := df.Index("weight_norm")
	if wi < 0 {
		return fmt.Errorf("dataframe: no weight_norm column")
	}
	for _, row := range df.Rows {
		if row[wi].IsNull() {
			return fmt.Errorf("dataframe: version %v has a null weight_norm", row[df.Index("tstamp")])
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// e2e reports the paper family of end-to-end metrics.
func (st *paperStats) e2e(r *run, source string, _ bool) {
	st.ungated(r, source)
	r.setP50("hindsight_p50_ms", &st.hindsight, source)
	r.setP50("dataframe_p50_ms", &st.dataframe, source)
	r.setP50("reopen_p50_ms", &st.reopen, source)
}

// ungated reports the record step. It writes the WAL and the checkpoint
// blobs and fsyncs at each commit, and over consecutive runs it drifted
// with the machine's write latency while the CPU-bound hindsight step held
// steady.
func (st *paperStats) ungated(r *run, source string) {
	r.ungated("record_p50_ms", "ms", st.record.median(), st.record.n(), source)
}

// layers reports the per-layer metrics of the record and hindsight steps
// from a traced paper phase.
func (st *paperStats) layers(r *run, source string, _ bool) {
	st.ungated(r, source)
	tr := r.tr
	run := tr.durations("script.run")
	runScript := tr.durations("flor.run_script")
	r.setP50("script.run_ms", run, source)
	r.set("replay.record_overhead_ms", "ms", runScript.median()-run.median(), runScript.n(), source+"; RunScript p50 minus script.run p50")
	r.setP50("flor.commit_ms", tr.durations("flor.commit"), source)
	r.set("storage.blob_bytes_per_version", "bytes", st.blobBytesPerVersion.median(), st.blobBytesPerVersion.n(), source)
	r.setP50("replay.versions_ms", tr.durations("replay.versions"), source)
	r.setP50("diffkit.align_ms", tr.durations("diffkit.align"), source)

	var restores, skipped, iters, retries int
	for _, rep := range st.reports {
		restores += rep.Stats.Restores
		skipped += rep.Stats.InnerLoopsSkipped
		iters += rep.Stats.IterationsRun
		if rep.RetryFull {
			retries++
		}
	}
	n := len(st.reports)
	r.set("replay.restores_per_version", "count", ratio(float64(restores), float64(n)), n, source)
	r.set("replay.inner_loops_skipped_ratio", "ratio", ratio(float64(skipped), float64(iters)), iters, source+"; inner loops skipped per epoch replayed")
	r.set("replay.full_retries", "count", float64(retries), n, source)
	hs := tr.durations("flor.hindsight")
	r.set("replay.speedup_vs_rerun", "x", paperVersions*run.median()/hs.median(), hs.n(), source+"; versions x script.run p50 / hindsight p50")
}
