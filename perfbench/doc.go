// Command perfbench is FlorDB's benchmark: three seeded workloads driven
// through the public API, each checking its answers, with end-to-end
// metrics from untraced runs and per-layer metrics from a traced run.
//
// Run it from the repository root; run.sh builds it from the checkout's
// sources first:
//
//	bash perfbench/run.sh --workload paper-loop --seed 1 --seconds 15 --trace 0
//
// It prints the machine facts (nproc, GOMAXPROCS, CPU model, Go version,
// git commit, seed, flush policies), a table of every metric with its
// unit, sample count and source, the answer checks, and, as its last line,
// the JSON result {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
// --trace 1 they are the per-layer ones, and the spans are written to
// .bench_build/trace/<workload>-seed<n>.jsonl.
//
// # Measurement
//
// The benchmark times calls into the public functions of each module from
// outside and changes no engine code. Percentiles are exact nearest-rank
// values over the raw samples; a p99 is reported only with at least ten
// samples beyond it, and otherwise the table names the lower percentile
// used. A workload drives its load from one process with at most two load
// goroutines and two connections. The seed is the only source of the
// inputs the engine receives: the docsim corpus and the script versions,
// the logged values, the query mix and the arrival schedule. Set-up runs
// three times and setup_s is the median. error_ratio is failed over
// attempted operations; a failed check, an error and an HTTP 429 or 503
// all count as failed.
//
// Every run must report every end-to-end metric, so each workload's own
// phase gets the window and the metric families it does not load come
// from fixed-size companion phases: 40 paper-loop cycles, and 5 ingest
// rounds (1280 commits). The window is cut into five slices, each followed
// by a fifth of each companion, so that every metric samples the whole run.
// query_p50_ms comes from the workload's own phase on dashboard and
// ingest, and from the ingest reader on paper-loop. heap_live_mb is the
// live heap after a forced GC at the end of the workload's own window.
//
// Six figures a user sees end to end are not gated: record_p50_ms,
// commit_p50_ms, commit_p99_ms, ingest_logs_per_s, query_p99_ms and
// error_ratio. Over ten seeds on a shared 2-core VM the spread
// (interquartile range over median) reached 0.22 to 0.33 for record_p50_ms
// and 0.24 to 0.30 for the commit median and the ingest rate, all of which
// follow the VM's write and fsync latency, and 0.4 to 1.0 for the p99s,
// which follow its slow episodes; the widest bound an end-to-end metric
// may carry is 0.25. error_ratio reads 0 on a clean run, where a relative
// bound means nothing; the result line's failed count and correct flag
// carry it. An untraced run prints these figures in its table, marked "not
// gated", and BENCHMARK.json lists them with the per-layer metrics of the
// traced run.
//
// A traced run measures its own phase for half the window untraced and
// half traced, recording spans (name, start, end, parent, op id) around
// each public call in memory; bench.trace_overhead_pct compares the two
// halves. It then runs every other phase traced, the dashboard one on a
// 2-second schedule, so every per-layer metric is measured on every
// workload.
//
// # Workloads
//
// paper-loop: the paper's §2 loop, closed, one client, fsync at every
// commit. Each cycle opens a fresh project, records six versions of the
// Figure-5 train.flow (each with its own seeded learning rate) over a
// 60-document corpus with a checkpoint every epoch, backfills weight_norm
// into all of them with Hindsight, pivots Dataframe("weight_norm", "acc",
// "recall"), closes, and reopens through recovery. The dataframe must have
// 30 rows with a weight_norm in each, before and after the reopen. It
// loads script, replay, diffkit, vcs, the blob store, WAL fsync, pivot and
// recovery. Its tables hold a few hundred rows, so sqlparse, relation scans
// and server changes are predicted not to move record_p50_ms,
// hindsight_p50_ms, dataframe_p50_ms or reopen_p50_ms here.
//
// dashboard: independent users, open loop. Requests arrive on a seeded
// Poisson schedule at 60 per second, about 30% of the 192 per second at
// which this mix saturates a 2-core VM, and go over loopback HTTP to
// server.Serve from two goroutines. Latency counts from each request's
// due time, so a stall delays the requests behind it and shows in their
// latency. The clock stops when the answer's body is read; decoding and
// checking it happen afterwards, outside the timed send. bench.late_ms is how late the generator sent, the validity
// check of the run. Set-up seeds 200 commits of 1000 values over eight
// names (200k logs rows) and compacts them into a columnar snapshot. The
// mix is range (tstamp BETWEEN over six commits, ordered index), point
// (count and avg of one name, hash index), scan_agg (GROUP BY over the
// table, parallel scan), dataframe (/dataframe of one name) and asof
// (count at a seeded ?as_of= epoch), in equal shares: no measured
// dashboard usage gives other shares, so the benchmark declares a uniform
// mix and favours no class. query_p50_ms is the median over the whole
// mix, so changing the shares changes it. There are about 200
// distinct texts, so the working set fits the 256-entry plan cache. Every
// answer is checked against counts and sums kept while seeding. It loads
// admission, parse and plan cache, snapshot pin, execution and encoding.
// Nothing writes while it is measured, so WAL, compaction and replay
// changes are predicted not to move query_p50_ms or query_p99_ms here.
//
// ingest: writes beside reads, closed, two clients, fsync at every commit
// (group commit), 1 MiB WAL segments. Each round copies a seeded history
// of 64 commits, then the writer logs 256 values and commits 256 times and
// calls Session.Compact, while the reader polls the recent window
// (value_name = ? AND tstamp > epoch-20, through Reader and SQL, with a
// 1 ms pause). The planner reads that window through the ordered tstamp
// index, so a query costs the same as the table grows. Every query text is
// new, so the plan cache never hits. A round ends by reopening the project,
// where count(*) must equal every acknowledged log, and each reader answer
// must be 32 logs per commit in the window. Compact is timed as its own
// class and stays out of the commit percentiles. It loads group commit,
// fsync, segment rotation, compaction and epoch publishing against
// snapshot pins. A write-side change that taxes reads shows in the gated
// query_p50_ms. A read-side change that taxes appends shows only in
// commit_p50_ms, commit_p99_ms and ingest_logs_per_s, which are printed
// but not gated, so the benchmark does not reject it; only a slower
// Compact reaches a gate, compact_p50_ms. Gating the summed commit time
// of a round instead of the commit median did not help: over five seeds
// its spread was 0.82, against 0.46 for the median, because both follow
// the machine's fsync latency from run to run.
//
// # Per-layer metrics
//
// Each per-layer metric is listed with the end-to-end metric and workload
// it is expected to move.
//
//   - script.run_ms (Parse and Interp.Run with NopHooks),
//     replay.record_overhead_ms (RunScript p50 minus script.run_ms),
//     flor.commit_ms and storage.blob_bytes_per_version: record_p50_ms on
//     paper-loop.
//   - replay.versions_ms (HistoricalVersions), diffkit.align_ms,
//     replay.restores_per_version, replay.inner_loops_skipped_ratio,
//     replay.full_retries and replay.speedup_vs_rerun (versions times
//     script.run_ms over the hindsight p50): hindsight_p50_ms on
//     paper-loop.
//   - record.snapshot_bytes (after each ingest round's Compact):
//     disk_bytes_per_user_byte on ingest, and reopen_p50_ms once the paper
//     loop compacts.
//   - storage.fsyncs_per_commit and storage.wal_bytes_per_log:
//     commit_p50_ms and ingest_logs_per_s on ingest. storage.compact_rows
//     and storage.segments_removed: compact_p50_ms on ingest.
//   - sqlparse.parse_us.<class> (sqlparse.Parse on the same texts) and
//     sqlparse.plan_cache_hit_ratio: query_p50_ms on ingest, no change on
//     dashboard. The hit ratio comes from the run's query source.
//   - sqlparse.exec_ms.<class> (in process, at one pinned epoch),
//     pivot.dataframe_ms, relation.pages_decoded_per_query.<class> and
//     relation.pages_pruned_ratio: query_p50_ms on dashboard.
//   - server.handler_ms.<route> (means from the GET /metrics route
//     histograms), server.outside_handler_ms (client time minus handler
//     time) and server.shed_ratio: query_p99_ms and error_ratio on
//     dashboard.
//   - flor.pin_us (Reader plus Close): query_p99_ms on ingest.
//     relation.row_versions: heap_live_mb. bench.late_ms: the validity of
//     the dashboard run.
package main
