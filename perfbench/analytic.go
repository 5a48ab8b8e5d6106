package main

import (
	"fmt"
	"sync"
	"time"

	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// execFn answers one query. The step log is empty where the layer API
// does not return one (the distributed coordinator).
type execFn func(id int) (*relal.Table, relal.StepLog, error)

// localExec runs queries on db with the shared morsel pool.
func localExec(db *tpch.DB) execFn {
	return func(id int) (*relal.Table, relal.StepLog, error) {
		t, log := tpch.RunQueryWorkers(id, db, 0)
		return t, log, nil
	}
}

// view returns a database sharing db's tables and sources but with its
// own source registry, each source passed through wrap. One view per
// client lets a wrapper attribute its scans to that client's query.
func view(db *tpch.DB, wrap func(name string, src relal.Source) relal.Source) *tpch.DB {
	v := &tpch.DB{
		SF: db.SF, Region: db.Region, Nation: db.Nation, Supplier: db.Supplier,
		Customer: db.Customer, Part: db.Part, PartSupp: db.PartSupp,
		Orders: db.Orders, Lineitem: db.Lineitem,
	}
	for _, name := range tpch.TableNames {
		src := db.Src(name)
		if wrap != nil {
			src = wrap(name, src)
		}
		v.SetSource(name, src)
	}
	return v
}

// sample is one timed query execution.
type sample struct {
	id int
	ms float64
}

// analytic is what the closed-loop streams measured.
type analytic struct {
	samples []sample
	// replaySec is the wall time of each whole replay of the 22
	// queries, on any stream. Throughput rests on these: a stream's
	// last, partial replay holds whichever queries the deadline left
	// it, and the queries differ in cost by two orders of magnitude.
	replaySec []float64
	// qps is the streams' combined rate at the median replay time.
	qps float64
	// From the step logs: sort kernel time and the rows joins and
	// aggregations consumed.
	sortNanos, joinRows, aggRows int64
	verdict
}

func (a *analytic) add(o *analytic) {
	a.samples = append(a.samples, o.samples...)
	a.replaySec = append(a.replaySec, o.replaySec...)
	a.sortNanos += o.sortNanos
	a.joinRows += o.joinRows
	a.aggRows += o.aggRows
	a.verdict.merge(o.verdict)
}

// stream is one closed-loop analytic client.
type stream struct {
	exec execFn
	cl   *client // nil when untraced
}

// runStreams replays the 22 queries on every stream until done reports
// true; the query in flight then completes, and every stream answers at
// least one. Each stream starts at a different query, so concurrent
// streams pair different query classes, and sends its next query only
// when the previous one has answered. want == nil leaves answers
// unchecked.
func runStreams(streams []stream, done func() bool, want expected, tr *tracer) *analytic {
	per := make([]analytic, len(streams))
	start := time.Now()
	var wg sync.WaitGroup
	for s := range streams {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st, a := streams[s], &per[s]
			n := len(tpch.Queries)
			replayStart := time.Now()
			first := s * n / len(streams)
			for k := first; k == first || !done(); k++ {
				id := tpch.Queries[k%n].ID
				var qspan uint64
				var qstart int64
				if st.cl != nil {
					qspan = tr.id()
					st.cl.trace.Store(qspan)
					st.cl.op.Store(qspan)
					qstart = tr.now()
				}
				t0 := time.Now()
				t, log, err := st.exec(id)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if st.cl != nil {
					tr.add(span{ID: qspan, Trace: qspan, Name: spanQuery, Start: qstart, End: tr.now(), Note: fmt.Sprintf("Q%d", id)})
					st.cl.trace.Store(0)
					st.cl.op.Store(0)
				}
				a.samples = append(a.samples, sample{id: id, ms: ms})
				if len(a.samples)%n == 0 {
					a.replaySec = append(a.replaySec, time.Since(replayStart).Seconds())
					replayStart = time.Now()
				}
				a.sortNanos += log.SortNanos
				for _, step := range log.Steps {
					switch step.Kind {
					case relal.StepJoin:
						a.joinRows += int64(step.LeftRows + step.RightRows)
					case relal.StepAgg:
						a.aggRows += int64(step.LeftRows)
					}
				}
				a.check("timed", id, t, err, want)
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	out := &analytic{}
	for i := range per {
		out.add(&per[i])
	}
	if len(out.replaySec) > 0 {
		out.qps = float64(len(streams)*len(tpch.Queries)) / median(out.replaySec)
	} else {
		// A run too short for one whole replay.
		out.qps = ratio(float64(len(out.samples)), elapsed.Seconds())
	}
	return out
}

// until returns a done function for a closed loop of the given length.
func until(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return !time.Now().Before(end) }
}
