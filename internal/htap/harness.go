// The combined HTAP harness: a YCSB-style write stream replays the
// held-back rows through the BSON write path while tpch.RunStreams
// replays analytical queries over the same store, and the result
// reports all three axes — write ops/sec, analytical QPS, and freshness
// (delta lag) — the ROADMAP's success metric for the update-shipping
// pipeline.
package htap

import (
	"time"

	"elephants/internal/docstore"
	"elephants/internal/tpch"
	"elephants/internal/ycsb"
)

// HarnessConfig scopes one combined run over an existing store.
type HarnessConfig struct {
	// Writers is the number of closed-loop write clients (0 = 1).
	Writers int
	// Streams/Rounds/Queries parameterize the analytical side exactly
	// as tpch.StreamConfig does.
	Streams, Rounds int
	Queries         []int
	// SampleEvery is the freshness sampling interval (0 = 1ms).
	SampleEvery time.Duration
}

// Freshness summarizes the sampled delta lag over the run.
type Freshness struct {
	// MaxLagRecords/MeanLagRecords summarize committed-minus-converted
	// over the samples taken while the run was live.
	MaxLagRecords  int64
	MeanLagRecords float64
	// FinalLagRecords is the lag when both phases had finished (before
	// any explicit ConvertAll).
	FinalLagRecords int64
	Samples         int
	// Converts/ConvertedRecords count background conversion activity.
	Converts         int64
	ConvertedRecords int64
	// Flushes is the number of delta-log group-commit flushes.
	Flushes int64
}

// HarnessResult is one combined run's report.
type HarnessResult struct {
	Write     ycsb.WriteStreamResult
	Analytic  tpch.StreamResult
	Freshness Freshness
}

// Run drives the write stream and the analytical streams concurrently
// over store's DB, sampling freshness throughout. The write stream
// replays every held record through the BSON wire path; the analytical
// streams run their configured rounds over whatever state each scan's
// snapshot sees. Run does not quiesce or convert afterwards — callers
// sequence Quiesce/ConvertAll themselves before pinning answers.
func Run(store *Store, db *tpch.DB, cfg HarnessConfig) (HarnessResult, error) {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Millisecond
	}
	held := store.HeldRecords()
	// Pre-marshal the write ops so the timed loop measures the write
	// path (unmarshal, validate, group commit), not doc construction.
	type op struct {
		table string
		pos   int64
		bson  []byte
	}
	ops := make([]op, len(held))
	for i, r := range held {
		doc, err := store.DocOf(r)
		if err != nil {
			return HarnessResult{}, err
		}
		ops[i] = op{table: r.Table, pos: r.Pos, bson: docstore.Marshal(doc)}
	}

	// Freshness sampler: lag snapshots while either phase runs.
	stopSample := make(chan struct{})
	sampleDone := make(chan Freshness, 1)
	go func() {
		var f Freshness
		var lagSum int64
		ticker := time.NewTicker(cfg.SampleEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stopSample:
				if f.Samples > 0 {
					f.MeanLagRecords = float64(lagSum) / float64(f.Samples)
				}
				sampleDone <- f
				return
			case <-ticker.C:
				st := store.StatsNow()
				lag := st.LagRecords
				if lag > f.MaxLagRecords {
					f.MaxLagRecords = lag
				}
				lagSum += lag
				f.Samples++
			}
		}
	}()

	writeDone := make(chan ycsb.WriteStreamResult, 1)
	go func() {
		writeDone <- ycsb.RunWriteStream(len(ops), ycsb.WriteStreamConfig{
			Clients: cfg.Writers,
		}, func(i int) error {
			_, err := store.AppendBSON(ops[i].table, ops[i].pos, ops[i].bson)
			return err
		})
	}()

	analytic := tpch.RunStreams(db, tpch.StreamConfig{
		Streams: cfg.Streams,
		Rounds:  cfg.Rounds,
		Queries: cfg.Queries,
	})
	write := <-writeDone

	close(stopSample)
	fresh := <-sampleDone
	final := store.StatsNow()
	fresh.FinalLagRecords = final.LagRecords
	fresh.Converts = final.Converts
	fresh.ConvertedRecords = final.ConvertedRecords
	fresh.Flushes = final.Flushes

	return HarnessResult{Write: write, Analytic: analytic, Freshness: fresh}, nil
}
