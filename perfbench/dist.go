package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"elephants/internal/dist"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// dist-scatter: the only workload on the wire protocol, the shard's
// re-encode and gzip, and the coordinator's merge. Shards are durable
// (data directories, the shard's default fsync-per-record policy) and
// no faults are injected. A change confined to dist should move this
// workload and leave olap-rcf and htap-mixed flat.
const (
	distSF     = 0.005
	distShards = 2
)

type distSystem struct {
	shards []*dist.Shard
	relays []*relay
	coord  *dist.Coordinator
	dir    string
}

func (s *distSystem) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, r := range s.relays {
		r.close()
	}
	for _, sh := range s.shards {
		if sh != nil {
			sh.Close()
		}
	}
	os.RemoveAll(s.dir)
}

// setupDist starts the shards (concurrently, each building its own
// partition and durable store), a relay in front of each when traced,
// and a coordinator over them.
func setupDist(cfg config, sf float64, rep int, tr *tracer, cl *client) (*distSystem, error) {
	s := &distSystem{dir: filepath.Join(cfg.workDir(), fmt.Sprintf("dist-%d", rep)), shards: make([]*dist.Shard, distShards)}
	errs := make([]error, distShards)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.shards[i], errs[i] = dist.StartShard(dist.ShardConfig{
				Shards: distShards, Index: i,
				SF: sf, Seed: cfg.dataSeed, Random64: true,
				DataDir: filepath.Join(s.dir, fmt.Sprintf("shard-%d", i)),
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("start shard %d: %w", i, err)
		}
	}
	addrs := make([]string, distShards)
	for i, sh := range s.shards {
		addrs[i] = sh.Addr()
		if tr != nil {
			r, err := startRelay(sh.Addr(), tr, cl)
			if err != nil {
				s.close()
				return nil, err
			}
			s.relays = append(s.relays, r)
			addrs[i] = r.addr()
		}
	}
	db := tpch.Generate(tpch.GenConfig{SF: sf, Seed: cfg.dataSeed, Random64: true})
	s.coord = dist.NewCoordinatorDB(db, addrs, dist.Options{Seed: cfg.schedSeed})
	return s, nil
}

// wireBytes sums what the relays forwarded.
func (s *distSystem) wireBytes() int64 {
	var n int64
	for _, r := range s.relays {
		n += r.bytes.Load()
	}
	return n
}

func coordExec(c *dist.Coordinator) execFn {
	return func(id int) (*relal.Table, relal.StepLog, error) {
		t, err := c.RunQuery(id)
		return t, relal.StepLog{}, err
	}
}

func runDist(cfg config, tr *tracer) (*measure, error) {
	sf := orDefault(cfg.sf, distSF)
	want, err := answersFor(cfg.root, sf, cfg.dataSeed)
	if err != nil {
		return nil, err
	}
	checkedAgainst := "oracle"
	if sf == goldenSF && cfg.dataSeed == goldenSeed {
		checkedAgainst = goldenPath
	}
	m := &measure{info: map[string]any{
		"sf": sf, "shards": distShards, "clients": 1, "transport": "loopback TCP",
		"shard_sync_policy": "always", "net_faults": "none", "answers_checked_against": checkedAgainst,
	}}

	var cl *client
	if tr != nil {
		cl = &client{}
	}
	var sys *distSystem
	for rep := 0; rep < cfg.setups; rep++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		if sys, err = setupDist(cfg, sf, rep, tr, cl); err != nil {
			return nil, err
		}
		m.merge(replay("warm-up", coordExec(sys.coord), want))
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	defer sys.close()

	db := sys.coord.DB()
	if tr != nil {
		m.scatters = &scanAcc{}
		for name := range dist.PartitionedTables {
			db.SetSource(name, &timedSource{Source: db.Src(name), span: spanDistScatter, tr: tr, cl: cl, acc: m.scatters})
		}
	}
	before := sys.coord.Stats()
	rss := watchRSS()
	rt := markRuntime()
	wire0 := sys.wireBytes()
	m.phase.lo = tr.mark()
	m.q = runStreams([]stream{{exec: coordExec(sys.coord), cl: cl}}, until(cfg.duration()), want, tr)
	m.phase.hi = tr.mark()
	m.wireBytes = sys.wireBytes() - wire0
	m.sinceRuntime(rt)
	m.peakRSS = rss.finish(m.info)
	after := sys.coord.Stats()
	m.requests = after["dist_requests"] - before["dist_requests"]
	m.retries = after["dist_retries"] - before["dist_retries"]
	m.merge(m.q.verdict)
	return m, nil
}
