package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elephants/internal/delta"
	"elephants/internal/docstore"
	"elephants/internal/fault"
	"elephants/internal/htap"
	"elephants/internal/rcfile"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// htap-mixed: writes and reads side by side on a durable store. With
// the analytic stream running, two writers sustain about 1,350 writes/s
// on a 2-core host; at 750/s offered a backlog formed in some runs and
// commit latency swung by two orders of magnitude, so the offered rate
// is 500/s, where latency reflects contention rather than a growing
// queue. The chunk cache holds the working set, so the read side
// measures the delta tail and part scans, not decode.
const (
	htapSF         = 0.01
	htapCacheBytes = 64 << 20
	htapWriteRate  = 500.0 // offered writes per second
	htapWriters    = 2
	htapSync       = delta.SyncGroup
	lagEvery       = 5 * time.Millisecond
)

// writeOp is one pre-marshalled BSON row write.
type writeOp struct {
	table string
	pos   int64
	bson  []byte
}

// holdFor splits n held rows between orders and lineitem in proportion
// to their sizes, so the writes replay both tables' tails; each table
// keeps at least half its rows in the base part.
func holdFor(db *tpch.DB, n int) map[string]int {
	o, l := db.Orders.NumRows(), db.Lineitem.NumRows()
	ho := n * o / (o + l)
	return map[string]int{"orders": min(ho, o/2), "lineitem": min(n-ho, l/2)}
}

type htapSystem struct {
	db    *tpch.DB
	store *htap.Store
	cache *rcfile.ChunkCache
	dir   string
	hold  map[string]int
	ops   []writeOp
	cfg   htap.Config
}

func (s *htapSystem) close() {
	s.store.Close()
	os.RemoveAll(s.dir)
}

func runHTAP(cfg config, tr *tracer) (*measure, error) {
	sf := orDefault(cfg.sf, htapSF)
	want, err := answersFor(cfg.root, sf, cfg.dataSeed)
	if err != nil {
		return nil, err
	}
	nWrites := max(1, int(htapWriteRate*cfg.seconds))
	m := &measure{info: map[string]any{
		"sf": sf, "cache_bytes": htapCacheBytes, "streams": 1,
		"sync_policy": htapSync.String(), "fs": "fault.DirFS",
		"offered_write_rate": htapWriteRate, "write_clients": htapWriters,
		"write_arrivals": "Poisson (open loop)", "reopens": cfg.reopens,
	}}

	var writers []*client
	maint := &client{}
	if tr != nil {
		for i := 0; i < htapWriters; i++ {
			writers = append(writers, &client{})
		}
	}
	var sys *htapSystem
	for rep := 0; rep < cfg.setups; rep++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		sys, err = setupHTAP(cfg, sf, rep, nWrites, tr, writers, maint)
		if err != nil {
			return nil, err
		}
		// Warm-up over the base rows only: no oracle describes this
		// state, so its answers go unchecked.
		m.merge(replay("warm-up", localExec(sys.db), nil))
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(sys.dir)
	m.info["held_rows"] = sys.hold
	m.info["writes_offered"] = len(sys.ops)

	var wrap func(name string, src relal.Source) relal.Source
	var st stream
	if tr != nil {
		m.rcfScans, m.htapScans = &scanAcc{}, &scanAcc{}
		st.cl = &client{}
		wrap = func(name string, src relal.Source) relal.Source {
			if sys.hold[name] > 0 {
				return &timedSource{Source: src, span: spanHTAPScan, tr: tr, cl: st.cl, acc: m.htapScans}
			}
			return &timedSource{Source: src, span: spanRCFileScan, tr: tr, cl: st.cl, acc: m.rcfScans}
		}
	}
	st.exec = localExec(view(sys.db, wrap))

	rss := watchRSS()
	hits0, misses0 := sys.cache.Stats()
	rt := markRuntime()
	var writesDone atomic.Bool
	var lagWG sync.WaitGroup
	if tr != nil {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			tick := time.NewTicker(lagEvery)
			defer tick.Stop()
			for range tick.C {
				if writesDone.Load() {
					return
				}
				m.lagSamples = append(m.lagSamples, sys.store.StatsNow().LagRecords)
			}
		}()
	}
	m.phase.lo = tr.mark()
	var wr writeResult
	var wrWG sync.WaitGroup
	wrWG.Add(1)
	go func() {
		defer wrWG.Done()
		wr = driveWrites(sys.store, sys.ops, cfg.schedSeed, writers, tr)
		writesDone.Store(true)
	}()
	m.q = runStreams([]stream{st}, writesDone.Load, nil, tr)
	wrWG.Wait()
	lagWG.Wait()
	m.phase.hi = tr.mark()
	m.sinceRuntime(rt)
	m.merge(m.q.verdict)
	m.merge(wr.verdict)
	m.writes, m.writeElapsed = wr.completed, wr.elapsed
	m.commitMs = wr.commitMs
	m.bsonBytes = wr.bsonBytes
	m.info["generator_lateness_p50_ms"] = median(wr.latenessMs)
	m.info["generator_lateness_max_ms"] = quantile(wr.latenessMs, 1)

	if err := maintain(maint, tr, spanQuiesce, sys.store.Quiesce, &m.quiesceMs); err != nil {
		return nil, err
	}
	stats := sys.store.StatsNow()
	m.committed, m.flushes = stats.CommittedRecords, stats.Flushes
	m.converted, m.converts = stats.ConvertedRecords, stats.Converts
	var convertMs float64
	if err := maintain(maint, tr, spanConvertAll, sys.store.ConvertAll, &convertMs); err != nil {
		return nil, err
	}
	m.info["convert_all_ms"] = convertMs
	m.merge(replay("after quiesce", localExec(sys.db), want))
	if m.storedBytes, m.logBytes, err = storeBytes(sys.dir); err != nil {
		return nil, err
	}
	hits1, misses1 := sys.cache.Stats()
	m.cacheHits, m.cacheMisses = hits1-hits0, misses1-misses0
	m.cacheUsed = sys.cache.UsedBytes()
	if err := sys.store.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}

	for k := 0; k < cfg.reopens; k++ {
		var store *htap.Store
		var openMs float64
		err := maintain(maint, tr, spanOpen, func() (err error) {
			store, err = htap.Open(sys.db, sys.hold, sys.cfg)
			return err
		}, &openMs)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		m.recoveryMs = append(m.recoveryMs, openMs)
		m.merge(replay(fmt.Sprintf("after reopen %d", k+1), localExec(sys.db), want))
		st := store.StatsNow()
		m.framesReplayed, m.partsRecovered = st.FramesReplayed, st.PartsRecovered
		if err := store.Close(); err != nil {
			return nil, fmt.Errorf("close reopened store: %w", err)
		}
	}
	m.peakRSS = rss.finish(m.info)
	return m, nil
}

// setupHTAP generates the data, encodes the tables that take no
// writes, opens a fresh durable store holding back nWrites rows, and
// pre-marshals the held rows as BSON.
func setupHTAP(cfg config, sf float64, rep, nWrites int, tr *tracer, writers []*client, maint *client) (*htapSystem, error) {
	s := &htapSystem{dir: filepath.Join(cfg.workDir(), fmt.Sprintf("htap-%d", rep))}
	s.db = tpch.Generate(tpch.GenConfig{SF: sf, Seed: cfg.dataSeed, Random64: true})
	s.hold = holdFor(s.db, nWrites)
	s.cache = rcfile.NewChunkCache(htapCacheBytes)
	var others []string
	for _, name := range tpch.TableNames {
		if s.hold[name] == 0 {
			others = append(others, name)
		}
	}
	if err := encodeTables(s.db, others, s.cache); err != nil {
		return nil, err
	}
	dirFS, err := fault.NewDirFS(s.dir)
	if err != nil {
		return nil, err
	}
	var fsys fault.FS = dirFS
	if tr != nil {
		fsys = &tracedFS{FS: dirFS, tr: tr, writers: writers, maint: maint}
	}
	s.cfg = htap.Config{RCFile: true, Cache: s.cache, FS: fsys, Sync: htapSync}
	if s.store, err = htap.Open(s.db, s.hold, s.cfg); err != nil {
		return nil, err
	}
	for _, r := range s.store.HeldRecords() {
		doc, err := s.store.DocOf(r)
		if err != nil {
			s.close()
			return nil, err
		}
		s.ops = append(s.ops, writeOp{table: r.Table, pos: r.Pos, bson: docstore.Marshal(doc)})
	}
	s.store.StartConverter()
	return s, nil
}

// maintain times one maintenance call, as a root span when traced.
func maintain(cl *client, tr *tracer, name string, fn func() error, ms *float64) error {
	var id uint64
	var start int64
	if tr != nil {
		id = tr.id()
		cl.trace.Store(id)
		cl.op.Store(id)
		start = tr.now()
	}
	t0 := time.Now()
	err := fn()
	*ms = float64(time.Since(t0)) / float64(time.Millisecond)
	if tr != nil {
		tr.add(span{ID: id, Trace: id, Name: name, Start: start, End: tr.now()})
		cl.trace.Store(0)
		cl.op.Store(0)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// storeBytes sums the durable store's files: the delta log plus every
// converted part.
func storeBytes(dir string) (total, log int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case e.Name() == "delta.log":
			log = info.Size()
			total += log
		case strings.HasSuffix(e.Name(), ".part"):
			total += info.Size()
		}
	}
	return total, log, nil
}

// writeResult is what the open-loop write generator measured.
type writeResult struct {
	verdict
	completed            int64
	elapsed              time.Duration
	commitMs, latenessMs []float64
	bsonBytes            int64
}

// driveWrites sends ops through AppendBSON in an open loop: arrivals
// are Poisson at htapWriteRate with seeded gaps, one generator
// goroutine releases each op at its due time, and htapWriters clients
// send them. A write's latency runs from when it was due, so a stall
// also charges the writes queued behind it; the generator's own
// lateness is reported beside it.
func driveWrites(store *htap.Store, ops []writeOp, seed int64, writers []*client, tr *tracer) writeResult {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, len(ops))
	var at time.Duration
	for i := range ops {
		at += time.Duration(rng.ExpFloat64() / htapWriteRate * float64(time.Second))
		due[i] = at
	}
	lateness := make([]float64, len(ops))
	// Sized to the number of sends, so the generator never blocks on a
	// backlog: that is what makes the loop open.
	queue := make(chan int, len(ops))
	start := time.Now()
	var trStart int64
	if tr != nil {
		trStart = tr.now()
	}
	go func() {
		for i := range ops {
			if d := time.Until(start.Add(due[i])); d > 0 {
				time.Sleep(d)
			}
			lateness[i] = float64(time.Since(start)-due[i]) / float64(time.Millisecond)
			queue <- i
		}
		close(queue)
	}()

	per := make([]writeResult, htapWriters)
	var last atomic.Int64
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &per[w]
			var cl *client
			if tr != nil {
				cl = writers[w]
			}
			for i := range queue {
				op := ops[i]
				var wid, aid uint64
				var astart int64
				if cl != nil {
					wid, aid = tr.id(), tr.id()
					astart = tr.now()
					cl.start.Store(astart)
					cl.op.Store(aid)
					cl.trace.Store(wid)
				}
				_, err := store.AppendBSON(op.table, op.pos, op.bson)
				done := time.Since(start)
				if cl != nil {
					end := tr.now()
					cl.trace.Store(0)
					tr.add(span{ID: wid, Trace: wid, Name: spanWrite, Start: trStart + int64(due[i]), End: end, Note: op.table})
					tr.add(span{ID: aid, Parent: wid, Trace: wid, Name: spanAppendBSON, Start: astart, End: end})
				}
				last.Store(int64(done))
				r.attempted++
				if err != nil {
					r.fail("write %s@%d: %v", op.table, op.pos, err)
					continue
				}
				r.completed++
				r.bsonBytes += int64(len(op.bson))
				r.commitMs = append(r.commitMs, float64(done-due[i])/float64(time.Millisecond))
			}
		}()
	}
	wg.Wait()
	out := writeResult{elapsed: time.Duration(last.Load()), latenessMs: lateness}
	for i := range per {
		out.merge(per[i].verdict)
		out.completed += per[i].completed
		out.bsonBytes += per[i].bsonBytes
		out.commitMs = append(out.commitMs, per[i].commitMs...)
	}
	return out
}
