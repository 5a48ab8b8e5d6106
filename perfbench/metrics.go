package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"elephants/internal/relal"
)

// measure is everything one workload run measured. Fields a workload
// does not exercise stay zero, and so do the per-layer metrics built
// from them.
type measure struct {
	verdict
	info map[string]any

	setupS  []float64 // each set-up repetition
	peakRSS float64   // MiB over the measured phase and its checks

	// Closed-loop analytic streams.
	q *analytic
	// phase is the measured phase in tracer time; per-layer figures use
	// only the spans inside it.
	phase interval

	// Runtime, over the measured phase.
	allocBytes uint64
	gcPause    time.Duration

	// Scan wrappers (traced run).
	rcfScans, htapScans, scatters *scanAcc
	cacheHits, cacheMisses        int64
	cacheUsed                     int64

	// htap-mixed.
	writes              int64
	writeElapsed        time.Duration
	commitMs            []float64
	recoveryMs          []float64
	bsonBytes           int64
	storedBytes         int64
	logBytes            int64
	committed, flushes  int64
	converted, converts int64
	quiesceMs           float64
	framesReplayed      int64
	partsRecovered      int64
	lagSamples          []int64

	// dist-scatter.
	requests, retries int64
	wireBytes         int64
}

// runtimeMark snapshots the allocator, the collector and the host's
// CPU time counters; the steal share of the latter tells how much of a
// phase a shared host's other guests took.
type runtimeMark struct {
	alloc uint64
	pause uint64
	cpu   []float64 // /proc/stat "cpu" line: user nice system idle iowait irq softirq steal
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := runtimeMark{alloc: ms.TotalAlloc, pause: ms.PauseTotalNs}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		for _, f := range strings.Fields(line)[1:] {
			x, _ := strconv.ParseFloat(f, 64)
			r.cpu = append(r.cpu, x)
		}
	}
	return r
}

func (m *measure) sinceRuntime(r runtimeMark) {
	now := markRuntime()
	m.allocBytes = now.alloc - r.alloc
	m.gcPause = time.Duration(now.pause - r.pause)
	if len(r.cpu) >= 8 && len(now.cpu) == len(r.cpu) {
		var total float64
		for i := 0; i < 8; i++ {
			total += now.cpu[i] - r.cpu[i]
		}
		m.info["host_steal_frac"] = ratio(now.cpu[7]-r.cpu[7], total)
		m.info["host_idle_frac"] = ratio(now.cpu[3]-r.cpu[3], total)
	}
}

// rssWatch measures the peak resident set size of a phase.
type rssWatch struct{ scoped bool }

// watchRSS returns set-up garbage to the OS and restarts the kernel's
// peak-RSS watermark (VmHWM) at the current resident size, so the peak
// covers what follows only.
func watchRSS() rssWatch {
	debug.FreeOSMemory()
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return rssWatch{scoped: err == nil}
}

// finish returns the peak since watchRSS, in MiB.
func (w rssWatch) finish(info map[string]any) float64 {
	info["peak_rss_scope"] = "measured phase and its checks"
	if !w.scoped {
		info["peak_rss_scope"] = "whole process (the peak watermark cannot be reset here)"
	}
	return peakRSSMiB()
}

// peakRSSMiB reads the peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the metrics a user of the engine sees. Every one is
// measured on every workload.
func endToEnd(m *measure) []metric {
	lat := make([]float64, len(m.q.samples))
	byID := make(map[int][]float64)
	for i, s := range m.q.samples {
		lat[i] = s.ms
		byID[s.id] = append(byID[s.id], s.ms)
	}
	meds := make([]float64, 0, len(byID))
	medByID := make(map[string]float64, len(byID))
	for id, xs := range byID {
		meds = append(meds, median(xs))
		medByID[fmt.Sprintf("Q%d", id)] = median(xs)
	}
	m.info["query_median_ms"] = medByID
	// The tail percentile sits on a query-class boundary (the top few
	// percent of a 22-query mix are one or two queries), so it moves by
	// more than the gate allows and is reported, not gated.
	pct, tailMs, beyond := tail(lat)
	m.info["query_tail_ms"] = tailMs
	m.info["query_samples"] = len(lat)
	m.info["replay_s"] = m.q.replaySec
	m.info["query_ids_sampled"] = len(byID)
	m.info["query_tail_percentile"] = pct
	m.info["query_tail_samples_beyond"] = beyond
	m.info["setup_s_each"] = m.setupS
	return []metric{
		{"setup_s", median(m.setupS), "s"},
		{"qps", m.q.qps, "1/s"},
		{"query_gm_ms", geomean(meds), "ms"},
		{"query_p50_ms", median(lat), "ms"},
		{"peak_rss_mb", m.peakRSS, "MiB"},
	}
}

// perLayer computes the per-layer metrics from the counters the run
// read and the spans it recorded. Each layer's time is its spans' self
// time: duration minus what child spans cover.
func perLayer(m *measure, spans []span) []metric {
	nq := float64(len(m.q.samples))
	perQ := func(x float64) float64 { return ratio(x, nq) }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	inPhase := spans[:0:0]
	for _, s := range spans {
		if s.Start >= m.phase.lo && s.End <= m.phase.hi {
			inPhase = append(inPhase, s)
		}
	}
	spans = inPhase
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := func(s span) int64 {
		kids := children[s.ID]
		ivs := make([]interval, len(kids))
		for i, k := range kids {
			ivs[i] = interval{k.Start, k.End}
		}
		return s.dur() - coveredNanos(s.Start, s.End, ivs)
	}
	// descendants of a root, for coverage.
	var under func(id uint64, out []interval) []interval
	under = func(id uint64, out []interval) []interval {
		for _, k := range children[id] {
			out = append(under(k.ID, out), interval{k.Start, k.End})
		}
		return out
	}

	selfBy := make(map[string]int64)
	var queryWall, queryCovered, writeWall, writeCovered, logAppended int64
	var relayService, relayTransfer, scatterWall int64
	var syncMs []float64
	for _, s := range spans {
		selfBy[s.Name] += self(s)
		switch s.Name {
		case spanQuery:
			queryWall += s.dur()
			queryCovered += coveredNanos(s.Start, s.End, under(s.ID, nil))
		case spanDistScatter:
			scatterWall += s.dur()
		case spanWrite:
			writeWall += s.dur()
			writeCovered += coveredNanos(s.Start, s.End, under(s.ID, nil))
		case spanFSSync:
			if s.Note == "delta.log" {
				syncMs = append(syncMs, ms(s.dur()))
			}
		case spanFSAppend:
			if s.Note == "delta.log" {
				logAppended += s.Bytes
			}
		}
		// Shards serve one scatter concurrently, so relay legs are
		// charged in wall time: an instant when any shard is still
		// serving counts as service, else one when any response is in
		// transfer counts as transfer.
		var svc, legs []interval
		for _, k := range children[s.ID] {
			switch k.Name {
			case spanRelayServe:
				svc = append(svc, interval{k.Start, k.End})
				legs = append(legs, interval{k.Start, k.End})
			case spanRelayXfer:
				legs = append(legs, interval{k.Start, k.End})
			}
		}
		if len(legs) > 0 {
			sv := coveredNanos(s.Start, s.End, svc)
			relayService += sv
			relayTransfer += coveredNanos(s.Start, s.End, legs) - sv
		}
	}
	m.info["span_self_ms"] = func() map[string]float64 {
		out := make(map[string]float64, len(selfBy))
		for k, v := range selfBy {
			out[k] = ms(v)
		}
		return out
	}()

	// Scan accounting as the sources reported it: RCF5 files read
	// locally, through the htap store's parts, or by the shards.
	var rcf relal.ScanStats
	var shipped int64
	for _, a := range []*scanAcc{m.rcfScans, m.htapScans, m.scatters} {
		if a != nil {
			st, rows := a.snapshot()
			rcf.Add(st)
			if a == m.scatters {
				shipped = rows
			}
		}
	}

	var lagSum, lagMax int64
	for _, l := range m.lagSamples {
		lagSum += l
		lagMax = max(lagMax, l)
	}
	writes := float64(m.writes)

	// The coordinator's own work: query wall time outside the scatter
	// spans (fragment queries scatter inside RunQuery, unwrapped).
	distLocal := 0.0
	if m.scatters != nil {
		distLocal = perQ(ms(queryWall - scatterWall))
	}

	return append(writeSide(m), []metric{
		{"relal.self_ms_per_query", perQ(ms(queryWall - queryCovered)), "ms"},
		{"relal.sort_ms_per_query", perQ(ms(m.q.sortNanos)), "ms"},
		{"relal.join_rows_per_query", perQ(float64(m.q.joinRows)), "rows"},
		{"relal.agg_rows_per_query", perQ(float64(m.q.aggRows)), "rows"},

		{"rcfile.scan_ms_per_query", perQ(ms(selfBy[spanRCFileScan])), "ms"},
		{"rcfile.bytes_read_per_query", perQ(float64(rcf.BytesRead)), "bytes"},
		{"rcfile.bytes_skipped_frac", ratio(float64(rcf.BytesSkipped), float64(rcf.BytesRead+rcf.BytesSkipped)), "ratio"},
		{"rcfile.groups_read_per_query", perQ(float64(rcf.GroupsRead)), "count"},
		{"rcfile.cache_hit_ratio", ratio(float64(m.cacheHits), float64(m.cacheHits+m.cacheMisses)), "ratio"},
		{"rcfile.cache_used_bytes", float64(m.cacheUsed), "bytes"},

		{"htap.scan_ms_per_query", perQ(ms(selfBy[spanHTAPScan])), "ms"},
		{"htap.lag_mean_records", ratio(float64(lagSum), float64(len(m.lagSamples))), "records"},
		{"htap.lag_max_records", float64(lagMax), "records"},
		{"htap.records_per_convert", ratio(float64(m.converted), float64(m.converts)), "records"},
		{"htap.quiesce_ms", m.quiesceMs, "ms"},
		{"htap.frames_replayed", float64(m.framesReplayed), "count"},
		{"htap.parts_recovered", float64(m.partsRecovered), "count"},

		{"delta.records_per_flush", ratio(float64(m.committed), float64(m.flushes)), "records"},
		{"delta.log_bytes_per_record", ratio(float64(m.logBytes), float64(m.committed)), "bytes"},
		{"docstore.bson_bytes_per_write", ratio(float64(m.bsonBytes), writes), "bytes"},

		{"fault.fsyncs_per_write", ratio(float64(len(syncMs)), writes), "count"},
		{"fault.fsync_ms_p50", median(syncMs), "ms"},
		{"fault.bytes_appended_per_write", ratio(float64(logAppended), writes), "bytes"},

		{"dist.scatter_ms_per_query", perQ(ms(scatterWall)), "ms"},
		{"dist.local_ms_per_query", distLocal, "ms"},
		{"dist.requests_per_query", perQ(float64(m.requests)), "count"},
		{"dist.retries", float64(m.retries), "count"},
		{"dist.rows_shipped_per_query", perQ(float64(shipped)), "rows"},
		{"dist.wire_bytes_per_query", perQ(float64(m.wireBytes)), "bytes"},
		{"dist.shard_service_ms_per_query", perQ(ms(relayService)), "ms"},
		{"dist.transfer_ms_per_query", perQ(ms(relayTransfer)), "ms"},
		{"dist.decode_merge_ms_per_query", perQ(ms(selfBy[spanDistScatter])), "ms"},

		{"go.alloc_mb_per_query", perQ(float64(m.allocBytes) / (1 << 20)), "MiB"},
		{"go.gc_pause_ms", ms(int64(m.gcPause)), "ms"},

		{"trace.query_coverage_frac", ratio(float64(queryCovered), float64(queryWall)), "ratio"},
		{"trace.write_coverage_frac", ratio(float64(writeCovered), float64(writeWall)), "ratio"},
	}...)
}

// writeSide computes what a writer of the htap store sees. These are
// end-to-end figures, but only htap-mixed writes, so they are reported
// with the per-layer metrics (and in the untraced report) rather than
// gated on every workload.
func writeSide(m *measure) []metric {
	m.info["commit_samples"] = len(m.commitMs)
	m.info["commit_p99_samples_beyond"] = len(m.commitMs) / 100
	return []metric{
		{"commit_p50_ms", median(m.commitMs), "ms"},
		{"commit_p99_ms", quantile(m.commitMs, 0.99), "ms"},
		{"write_ops_s", ratio(float64(m.writes), m.writeElapsed.Seconds()), "1/s"},
		{"recovery_ms", median(m.recoveryMs), "ms"},
		{"stored_bytes_per_user_byte", ratio(float64(m.storedBytes), float64(m.bsonBytes)), "ratio"},
	}
}

// sourceHash identifies the source tree the benchmark ran: a SHA-256
// over every Go source and module file under root, in walk (lexical)
// order. The
// benchmark runs from checkouts that are not git repositories, so this
// stands in for the commit.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if r, err := os.Open(f); err == nil {
			io.Copy(h, r)
			r.Close()
		}
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}
