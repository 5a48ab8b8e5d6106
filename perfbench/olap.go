package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"elephants/internal/rcfile"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// olap-rcf: the analytic working set is several times the chunk cache,
// so every replay decodes most chunks again (about 38 MB per 22-query
// replay at SF 0.05) and the cache evicts continuously. At SF 0.05
// lineitem is about 37 morsels, enough for two workers to split.
const (
	olapSF         = 0.05
	olapCacheBytes = 8 << 20
	olapStreams    = 2
)

// encodeTables replaces the named tables' sources with RCF5 sources
// behind cache, encoding up to GOMAXPROCS tables at once, and drops the
// in-memory copies queries no longer read.
func encodeTables(db *tpch.DB, names []string, cache *rcfile.ChunkCache) error {
	srcs := make([]*rcfile.Source, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			srcs[i], errs[i] = rcfile.NewSourceOpts(db.Table(name), 0, rcfile.WriterOpts{})
		}()
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			return fmt.Errorf("encode %s: %w", name, errs[i])
		}
		srcs[i].SetCache(cache)
		db.SetSource(name, srcs[i])
	}
	// Queries now read these tables only through their RCF5 sources, so
	// the generator's in-memory copies go: kept, they would sit in the
	// heap the collector scans and in peak_rss_mb. Q8 reads the
	// in-memory nation table directly, so the two small tables stay.
	for _, name := range names {
		switch name {
		case "supplier":
			db.Supplier = nil
		case "customer":
			db.Customer = nil
		case "part":
			db.Part = nil
		case "partsupp":
			db.PartSupp = nil
		case "orders":
			db.Orders = nil
		case "lineitem":
			db.Lineitem = nil
		}
	}
	return nil
}

func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

func runOLAP(cfg config, tr *tracer) (*measure, error) {
	sf := orDefault(cfg.sf, olapSF)
	want, err := answersFor(cfg.root, sf, cfg.dataSeed)
	if err != nil {
		return nil, err
	}
	m := &measure{info: map[string]any{
		"sf": sf, "cache_bytes": olapCacheBytes, "streams": olapStreams,
		"result_memo": false, "encoding": "RCF5 adaptive, default row groups",
	}}

	var db *tpch.DB
	var cache *rcfile.ChunkCache
	for rep := 0; rep < cfg.setups; rep++ {
		t0 := time.Now()
		db = tpch.Generate(tpch.GenConfig{SF: sf, Seed: cfg.dataSeed, Random64: true})
		cache = rcfile.NewChunkCache(olapCacheBytes)
		if err := encodeTables(db, tpch.TableNames, cache); err != nil {
			return nil, err
		}
		m.merge(replay("warm-up", localExec(db), want))
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}

	streams := make([]stream, olapStreams)
	var wrap func(name string, src relal.Source) relal.Source
	if tr != nil {
		m.rcfScans = &scanAcc{}
	}
	for i := range streams {
		if tr != nil {
			cl := &client{}
			wrap = func(name string, src relal.Source) relal.Source {
				return &timedSource{Source: src, span: spanRCFileScan, tr: tr, cl: cl, acc: m.rcfScans}
			}
			streams[i].cl = cl
		}
		streams[i].exec = localExec(view(db, wrap))
	}

	rss := watchRSS()
	hits0, misses0 := cache.Stats()
	rt := markRuntime()
	m.phase.lo = tr.mark()
	m.q = runStreams(streams, until(cfg.duration()), want, tr)
	m.phase.hi = tr.mark()
	m.sinceRuntime(rt)
	m.peakRSS = rss.finish(m.info)
	hits1, misses1 := cache.Stats()
	m.cacheHits, m.cacheMisses = hits1-hits0, misses1-misses0
	m.cacheUsed = cache.UsedBytes()
	m.info["cache_hit_ratio"] = ratio(float64(m.cacheHits), float64(m.cacheHits+m.cacheMisses))
	m.merge(m.q.verdict)
	return m, nil
}
