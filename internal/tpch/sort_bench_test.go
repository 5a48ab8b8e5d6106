package tpch

import (
	"fmt"
	"testing"
)

// BenchmarkTPCHSortQuery times the three sort-tailed query shapes the
// parallel sort moves most — Q1 (wide aggregate then full sort), Q3
// (join-heavy top-10) and Q10 (aggregate-heavy top-20) — at pool size 1
// vs GOMAXPROCS. On a 1-core host the speedup is ≈1 by construction.
func BenchmarkTPCHSortQuery(b *testing.B) {
	db := Generate(GenConfig{SF: 0.01, Seed: 1, Random64: true})
	for _, id := range []int{1, 3, 10} {
		for _, pool := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=max", 0}} {
			b.Run(fmt.Sprintf("Q%d/%s", id, pool.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					RunQueryWorkers(id, db, pool.workers)
				}
			})
		}
	}
}
