package tpch

import (
	"fmt"
	"testing"

	"elephants/internal/rcfile"
)

// BenchmarkTPCHEncQuery measures the chunk-encoding win over
// RCF4-backed sources for the two scan-dominated queries, on both data
// layouts: unclustered (generation order; runs mostly in the
// low-cardinality flags) and clustered on l_shipdate (the paper's
// sorted-data layout, where the date columns collapse to gdict+rle and
// the run-aware Where/Aggregate kernels see long runs). enc=off writes
// the same data plain/gdict and pins the fallback cost.
func BenchmarkTPCHEncQuery(b *testing.B) {
	for _, clustered := range []bool{false, true} {
		cfg := GenConfig{SF: 0.01, Seed: 1, Random64: true}
		layout := "unclustered"
		if clustered {
			cfg.ClusterBy = "l_shipdate"
			layout = "clustered"
		}
		for _, enc := range []bool{true, false} {
			db := Generate(cfg)
			opts := rcfile.WriterOpts{NoRLE: !enc, NoDelta: !enc}
			for _, name := range TableNames {
				src, err := rcfile.NewSourceOpts(db.Table(name), 2048, opts)
				if err != nil {
					b.Fatal(err)
				}
				db.SetSource(name, src)
			}
			state := "on"
			if !enc {
				state = "off"
			}
			for _, id := range []int{1, 6} {
				b.Run(fmt.Sprintf("Q%d/%s/enc=%s", id, layout, state), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						out, _ := RunQueryWorkers(id, db, 1)
						if out == nil {
							b.Fatal("nil answer")
						}
					}
				})
			}
		}
	}
}
