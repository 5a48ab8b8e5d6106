package tpch

import (
	"fmt"
	"testing"

	"elephants/internal/rcfile"
)

// BenchmarkTPCHDictQuery measures the dictionary-encoding win over
// RCF3-backed sources, dict on vs off, for the three queries the
// encoding targets: Q1 (group-by keys become codes), Q6 (the date
// window becomes a code-range filter), Q3 (joins gather codes). The
// scan really decompresses chunks per query, so the dict=off runs pay
// the per-row string materialization the paper's RCFile burned CPU on,
// while dict=on decodes only dictionaries and packed codes.
func BenchmarkTPCHDictQuery(b *testing.B) {
	for _, dict := range []bool{true, false} {
		db := Generate(GenConfig{SF: 0.01, Seed: 1, Random64: true, NoDict: !dict})
		for _, name := range TableNames {
			src, err := rcfile.NewSource(db.Table(name), 2048)
			if err != nil {
				b.Fatal(err)
			}
			db.SetSource(name, src)
		}
		state := "on"
		if !dict {
			state = "off"
		}
		for _, id := range []int{1, 6, 3} {
			b.Run(fmt.Sprintf("Q%d/dict=%s", id, state), func(b *testing.B) {
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
