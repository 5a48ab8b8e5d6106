// Package core is the benchmark framework proper: it assembles full
// deployments of every system and regenerates each table and figure of
// the paper — Tables 2–5 and Figure 1 on the TPC-H side (Hive vs PDW),
// Figures 2–6 and the load-time comparison on the YCSB side (Mongo-AS,
// Mongo-CS, SQL-CS) — printing rows/series in the paper's shape.
package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"elephants/internal/cluster"
	"elephants/internal/hive"
	"elephants/internal/metrics"
	"elephants/internal/pdw"
	"elephants/internal/sim"
	"elephants/internal/tpch"
)

// PaperScaleFactors are the four TPC-H points in the paper (GB).
var PaperScaleFactors = []float64{250, 1000, 4000, 16000}

// TPCHConfig scopes a TPC-H comparison run.
type TPCHConfig struct {
	// LaptopSF is the functional dataset scale (defaults 0.002).
	LaptopSF float64
	// ScaleFactors are the modeled SFs (defaults PaperScaleFactors).
	ScaleFactors []float64
	// Queries restricts which query IDs run (nil = all 22).
	Queries []int
	Seed    int64
	// NoDict disables dictionary encoding of low-cardinality string
	// columns in the generated dataset (tpchbench -no-dict). Answers
	// are identical either way; host time and modeled byte widths
	// change.
	NoDict bool
}

func (c TPCHConfig) withDefaults() TPCHConfig {
	if c.LaptopSF <= 0 {
		c.LaptopSF = 0.002
	}
	if len(c.ScaleFactors) == 0 {
		c.ScaleFactors = PaperScaleFactors
	}
	if len(c.Queries) == 0 {
		for _, q := range tpch.Queries {
			c.Queries = append(c.Queries, q.ID)
		}
	}
	return c
}

// TPCHPoint holds one system's measurements at one scale factor.
type TPCHPoint struct {
	SF         float64
	QueryTimes map[int]sim.Duration
	LoadTime   sim.Duration
	// HiveQ1MapPhase is the Q1 first-job map-phase time (Table 4).
	HiveQ1MapPhase sim.Duration
	// HiveQ22Breakdown maps Q22 sub-query (1–4) to time (Table 5).
	HiveQ22Breakdown map[int]sim.Duration
}

// TPCHResult holds the full two-system comparison.
type TPCHResult struct {
	Config TPCHConfig
	Hive   []TPCHPoint
	PDW    []TPCHPoint
}

// RunTPCH runs the Hive-vs-PDW comparison across all configured scale
// factors. Each (system, SF) pair gets a fresh simulator so timings are
// independent, as the paper's sequential runs were.
func RunTPCH(cfg TPCHConfig) TPCHResult {
	cfg = cfg.withDefaults()
	db := tpch.Generate(tpch.GenConfig{SF: cfg.LaptopSF, Seed: cfg.Seed, Random64: true, NoDict: cfg.NoDict})
	res := TPCHResult{Config: cfg}
	for _, sf := range cfg.ScaleFactors {
		res.Hive = append(res.Hive, runHivePoint(db, sf, cfg))
		res.PDW = append(res.PDW, runPDWPoint(db, sf, cfg))
	}
	return res
}

func runHivePoint(db *tpch.DB, sf float64, cfg TPCHConfig) TPCHPoint {
	pt := TPCHPoint{
		SF:               sf,
		QueryTimes:       make(map[int]sim.Duration),
		HiveQ22Breakdown: make(map[int]sim.Duration),
	}
	s := sim.New()
	cl := cluster.New(s, cluster.Default16())
	w := hive.New(s, cl, db, sf, hive.DefaultConfig())
	s.Spawn("hive-driver", func(p *sim.Proc) {
		pt.LoadTime = w.LoadTime(p)
		for _, id := range cfg.Queries {
			qs := w.RunQuery(p, id)
			pt.QueryTimes[id] = qs.Total
			if id == 1 {
				pt.HiveQ1MapPhase = qs.MapPhase(0)
			}
			if id == 22 {
				for sub, d := range q22Breakdown(qs) {
					pt.HiveQ22Breakdown[sub] = d
				}
			}
		}
	})
	s.Run()
	return pt
}

// q22Breakdown groups Q22's Hive jobs into the paper's four sub-queries
// by job name.
func q22Breakdown(qs hive.QueryStats) map[int]sim.Duration {
	out := map[int]sim.Duration{}
	for _, j := range qs.Jobs {
		var sub int
		switch {
		case strings.Contains(j.Name, "filter"):
			sub = 1
		case strings.Contains(j.Name, "agg") && !strings.Contains(j.Name, "global"):
			if _, ok := out[2]; !ok && out[1] > 0 {
				sub = 2
			} else {
				sub = 3
			}
		default:
			sub = 4
		}
		out[sub] += j.Stats.Total
	}
	return out
}

func runPDWPoint(db *tpch.DB, sf float64, cfg TPCHConfig) TPCHPoint {
	pt := TPCHPoint{SF: sf, QueryTimes: make(map[int]sim.Duration)}
	s := sim.New()
	cl := cluster.New(s, cluster.Default16())
	w := pdw.New(s, cl, db, sf, pdw.DefaultConfig())
	s.Spawn("pdw-driver", func(p *sim.Proc) {
		pt.LoadTime = w.LoadTime(p)
		for _, id := range cfg.Queries {
			qs := w.RunQuery(p, id)
			pt.QueryTimes[id] = qs.Total
		}
	})
	s.Run()
	return pt
}

// Means returns the arithmetic and geometric means of a point's query
// times in seconds, excluding the listed query IDs (the paper's AM-9 /
// GM-9 exclude Q9).
func (pt TPCHPoint) Means(exclude ...int) (am, gm float64) {
	skip := map[int]bool{}
	for _, id := range exclude {
		skip[id] = true
	}
	var xs []float64
	var ids []int
	for id := range pt.QueryTimes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if !skip[id] {
			xs = append(xs, pt.QueryTimes[id].Seconds())
		}
	}
	return metrics.ArithmeticMean(xs), metrics.GeometricMean(xs)
}

// WriteTable2 prints the load-time table.
func (r TPCHResult) WriteTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2. Load times for Hive and PDW (virtual minutes)")
	fmt.Fprintf(w, "%-8s", "")
	for _, sf := range r.Config.ScaleFactors {
		fmt.Fprintf(w, "%12.0fGB", sf)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "HIVE")
	for _, pt := range r.Hive {
		fmt.Fprintf(w, "%14.0f", pt.LoadTime.Seconds()/60)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "PDW")
	for _, pt := range r.PDW {
		fmt.Fprintf(w, "%14.0f", pt.LoadTime.Seconds()/60)
	}
	fmt.Fprintln(w)
}

// WriteTable3 prints per-query times, speedups, and scaling factors.
func (r TPCHResult) WriteTable3(w io.Writer) {
	fmt.Fprintln(w, "Table 3. Performance of Hive and PDW on TPC-H (virtual seconds)")
	fmt.Fprintf(w, "%-5s", "Query")
	for _, sf := range r.Config.ScaleFactors {
		fmt.Fprintf(w, " | %8s %8s %7s", fmt.Sprintf("HIVE@%g", sf), "PDW", "Speedup")
	}
	fmt.Fprintln(w)
	for _, id := range r.Config.Queries {
		fmt.Fprintf(w, "Q%-4d", id)
		for i := range r.Config.ScaleFactors {
			h := r.Hive[i].QueryTimes[id].Seconds()
			p := r.PDW[i].QueryTimes[id].Seconds()
			speedup := 0.0
			if p > 0 {
				speedup = h / p
			}
			fmt.Fprintf(w, " | %8.0f %8.0f %6.1fx", h, p, speedup)
		}
		fmt.Fprintln(w)
	}
	// Means row.
	fmt.Fprintf(w, "%-5s", "AM")
	for i := range r.Config.ScaleFactors {
		ha, _ := r.Hive[i].Means()
		pa, _ := r.PDW[i].Means()
		sp := 0.0
		if pa > 0 {
			sp = ha / pa
		}
		fmt.Fprintf(w, " | %8.0f %8.0f %6.1fx", ha, pa, sp)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-5s", "GM")
	for i := range r.Config.ScaleFactors {
		_, hg := r.Hive[i].Means()
		_, pg := r.PDW[i].Means()
		sp := 0.0
		if pg > 0 {
			sp = hg / pg
		}
		fmt.Fprintf(w, " | %8.0f %8.0f %6.1fx", hg, pg, sp)
	}
	fmt.Fprintln(w)
	// Scaling factors (time ratio per 4× data).
	fmt.Fprintln(w, "\nScaling factors (query time ratio per 4x data growth):")
	fmt.Fprintf(w, "%-5s", "Query")
	for i := 1; i < len(r.Config.ScaleFactors); i++ {
		fmt.Fprintf(w, " | HIVE %4.0f->%-5.0f PDW", r.Config.ScaleFactors[i-1], r.Config.ScaleFactors[i])
	}
	fmt.Fprintln(w)
	for _, id := range r.Config.Queries {
		fmt.Fprintf(w, "Q%-4d", id)
		for i := 1; i < len(r.Config.ScaleFactors); i++ {
			hr := ratio(r.Hive[i].QueryTimes[id], r.Hive[i-1].QueryTimes[id])
			pr := ratio(r.PDW[i].QueryTimes[id], r.PDW[i-1].QueryTimes[id])
			fmt.Fprintf(w, " | %8.1f %10.1f", hr, pr)
		}
		fmt.Fprintln(w)
	}
}

func ratio(a, b sim.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// WriteTable4 prints Q1's map-phase time per scale factor.
func (r TPCHResult) WriteTable4(w io.Writer) {
	fmt.Fprintln(w, "Table 4. Total time for the map phase for Query 1 (virtual seconds)")
	for i, sf := range r.Config.ScaleFactors {
		fmt.Fprintf(w, "SF=%-6g %8.0f secs\n", sf, r.Hive[i].HiveQ1MapPhase.Seconds())
	}
}

// WriteTable5 prints Q22's sub-query breakdown.
func (r TPCHResult) WriteTable5(w io.Writer) {
	fmt.Fprintln(w, "Table 5. Time breakdown for Query 22 (virtual seconds)")
	fmt.Fprintf(w, "%-12s", "")
	for _, sf := range r.Config.ScaleFactors {
		fmt.Fprintf(w, "%10.0fGB", sf)
	}
	fmt.Fprintln(w)
	for sub := 1; sub <= 4; sub++ {
		fmt.Fprintf(w, "Sub-query %d ", sub)
		for i := range r.Config.ScaleFactors {
			fmt.Fprintf(w, "%10.0f s", r.Hive[i].HiveQ22Breakdown[sub].Seconds())
		}
		fmt.Fprintln(w)
	}
}

// WriteFigure1 prints the normalized AM/GM series (normalized to PDW at
// the smallest SF, excluding Q9 as the paper's AM-9/GM-9 do).
func (r TPCHResult) WriteFigure1(w io.Writer) {
	fmt.Fprintln(w, "Figure 1. Normalized arithmetic and geometric means (PDW @ smallest SF = 1)")
	baseAM, baseGM := r.PDW[0].Means(9)
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s\n", "SF", "HIVE AM", "PDW AM", "HIVE GM", "PDW GM")
	for i, sf := range r.Config.ScaleFactors {
		ha, hg := r.Hive[i].Means(9)
		pa, pg := r.PDW[i].Means(9)
		fmt.Fprintf(w, "%-8g %12.0f %12.0f %12.0f %12.0f\n",
			sf, ha/baseAM, pa/baseAM, hg/baseGM, pg/baseGM)
	}
}
