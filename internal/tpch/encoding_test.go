package tpch

import (
	"os"
	"testing"

	"elephants/internal/rcfile"
)

// attachRCFileOpts mirrors attachRCFile with explicit chunk-encoding
// toggles on the RCF4 writer.
func attachRCFileOpts(t testing.TB, db *DB, groupRows int, opts rcfile.WriterOpts) {
	t.Helper()
	for _, name := range TableNames {
		src, err := rcfile.NewSourceOpts(db.Table(name), groupRows, opts)
		if err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		db.SetSource(name, src)
	}
}

// TestEncodingGoldenOverRCFileParallel is the acceptance matrix for the
// chunk-encoding pipeline: all 22 query answers, scanned through RCF4
// files written with every encoding enabled and with RLE+delta forced
// off, must reproduce the committed golden snapshot byte-for-byte at
// several worker counts. The enabled run decodes real run-list vectors
// into the run-aware kernels; the disabled run pins the plain/gdict
// fallback to the same bytes.
func TestEncodingGoldenOverRCFileParallel(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	for _, tc := range []struct {
		name string
		opts rcfile.WriterOpts
	}{
		{"enc-on", rcfile.WriterOpts{}},
		{"enc-off", rcfile.WriterOpts{NoRLE: true, NoDelta: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true})
			attachRCFileOpts(t, db, 1024, tc.opts)
			for _, workers := range []int{1, 3} {
				diffGolden(t, goldenSnapshotOf(db, workers), string(want))
			}
		})
	}
}

// TestEncodingClusteredAnswersAgree runs the matrix where RLE actually
// fires: lineitem clustered on l_shipdate, where the cluster column's
// chunks all win gdict+rle and the int keys go delta. Clustering
// reorders base rows, so the committed golden no longer applies —
// instead the encodings-off snapshot is the reference, and the
// encodings-on snapshot must match it bit-for-bit at every worker
// count, proving the run-aware kernels invisible on the data shape
// they were built for.
func TestEncodingClusteredAnswersAgree(t *testing.T) {
	snap := func(opts rcfile.WriterOpts, workers int) string {
		db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true, ClusterBy: "l_shipdate"})
		attachRCFileOpts(t, db, 1024, opts)
		return goldenSnapshotOf(db, workers)
	}
	want := snap(rcfile.WriterOpts{NoRLE: true, NoDelta: true}, 1)
	for _, workers := range []int{1, 3} {
		diffGolden(t, snap(rcfile.WriterOpts{}, workers), want)
	}
}

// TestEncodingClusteredChunksUseRuns pins the writer's adaptive choice
// on clustered data: the cluster column must come out gdict+rle in
// every chunk, the sorted int keys delta, and turning the encodings off
// must leave only plain/gdict — otherwise the run-aware kernels are
// silently never exercised.
func TestEncodingClusteredChunksUseRuns(t *testing.T) {
	db := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true, ClusterBy: "l_shipdate"})
	li := db.Lineitem
	src, err := rcfile.NewSourceOpts(li, 2048, rcfile.WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	stats := src.EncodingStats()
	count := func(col, enc string) int {
		ci := li.Schema.Col(col)
		for e, name := range rcfile.EncNames {
			if name == enc {
				return stats[ci].Chunks[e]
			}
		}
		t.Fatalf("unknown encoding %q", enc)
		return 0
	}
	if n, tot := count("l_shipdate", "gdict+rle"), count("l_shipdate", "gdict+rle")+count("l_shipdate", "gdict")+count("l_shipdate", "plain"); n != tot || n == 0 {
		t.Errorf("clustered l_shipdate: %d of %d chunks gdict+rle", n, tot)
	}
	for _, col := range []string{"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"} {
		if count(col, "delta") == 0 {
			t.Errorf("sorted int key %s has no delta chunks", col)
		}
	}

	off, err := rcfile.NewSourceOpts(li, 2048, rcfile.WriterOpts{NoRLE: true, NoDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	for ci, st := range off.EncodingStats() {
		for e, n := range st.Chunks {
			if n > 0 && rcfile.EncNames[e] != "plain" && rcfile.EncNames[e] != "gdict" {
				t.Errorf("encodings off: column %s still has %d %s chunks",
					li.Schema[ci].Name, n, rcfile.EncNames[e])
			}
		}
	}
	if onB, offB := src.Bytes(), off.Bytes(); onB >= offB {
		t.Errorf("clustered RCF4 with encodings %d B, want < without %d B", onB, offB)
	} else {
		t.Logf("clustered lineitem: enc-off %d B, enc-on %d B (%.1f%%)",
			offB, onB, 100*float64(onB)/float64(offB))
	}
}
