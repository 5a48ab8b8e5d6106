package tpch

import (
	"os"
	"testing"

	"elephants/internal/rcfile"
	"elephants/internal/relal"
)

// TestDictColumnsAreEncoded: the generator dictionary-encodes the
// default low-cardinality columns, and -no-dict (GenConfig.NoDict)
// leaves them raw.
func TestDictColumnsAreEncoded(t *testing.T) {
	db := Generate(GenConfig{SF: 0.002, Seed: 1, Random64: true})
	for _, tc := range []struct{ tbl, col string }{
		{"lineitem", "l_returnflag"},
		{"lineitem", "l_shipdate"},
		{"orders", "o_orderpriority"},
		{"customer", "c_mktsegment"},
		{"part", "p_brand"},
	} {
		tab := db.Table(tc.tbl)
		if !tab.Cols[tab.Schema.Col(tc.col)].IsDict() {
			t.Errorf("%s.%s not dictionary-encoded", tc.tbl, tc.col)
		}
	}
	// High-cardinality columns stay raw.
	li := db.Lineitem
	if li.Cols[li.Schema.Col("l_comment")].IsDict() {
		t.Error("l_comment should stay raw")
	}
	off := Generate(GenConfig{SF: 0.002, Seed: 1, Random64: true, NoDict: true})
	ol := off.Lineitem
	if ol.Cols[ol.Schema.Col("l_returnflag")].IsDict() {
		t.Error("NoDict generation must leave columns raw")
	}
}

// TestDictOffMatchesGolden proves encoding transparency from the other
// side: with dictionary encoding disabled the snapshot is the same
// bytes, so the committed golden file pins both representations.
func TestDictOffMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true, NoDict: true})
	diffGolden(t, goldenSnapshotOf(db, 0), string(want))
}

// TestDictGoldenOverRCFileParallel is the acceptance matrix for the
// dict pipeline: dictionary-encoded generation, RCF3-encoded sources
// (dict chunks, group-local dictionaries, zone maps), and a
// multi-worker morsel pool must reproduce the golden snapshot
// byte-for-byte.
func TestDictGoldenOverRCFileParallel(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	db := rcfileDB(t, goldenSF, 1024)
	li := db.Lineitem
	if !li.Cols[li.Schema.Col("l_returnflag")].IsDict() {
		t.Fatal("precondition: dict generation should be on by default")
	}
	diffGolden(t, goldenSnapshotOf(db, 3), string(want))
}

// TestDictShrinksRCFileLineitem: the on-disk acceptance criterion —
// encoding the same generated lineitem with and without dictionaries,
// the dict file must be strictly smaller.
func TestDictShrinksRCFileLineitem(t *testing.T) {
	on := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true})
	off := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true, NoDict: true})
	onBytes := encodeBytes(t, on.Lineitem)
	offBytes := encodeBytes(t, off.Lineitem)
	if onBytes >= offBytes {
		t.Errorf("dict lineitem %d B, want < raw %d B", onBytes, offBytes)
	}
	t.Logf("RCFile lineitem: raw %d B, dict %d B (%.1f%%)",
		offBytes, onBytes, 100*float64(onBytes)/float64(offBytes))
}

func encodeBytes(t *testing.T, tab *relal.Table) int {
	t.Helper()
	src, err := rcfile.NewSource(tab, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return src.Bytes()
}

// TestDictShrinksScanAccounting: the cost models consume the scan byte
// accounting, so Q1's modeled lineitem bytes must drop under dict
// encoding the same way the file does.
func TestDictShrinksScanAccounting(t *testing.T) {
	run := func(noDict bool) int64 {
		db := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true, NoDict: noDict})
		_, log := RunQuery(1, db)
		read, skipped := lineitemScanStats(log)
		return read + skipped
	}
	on, off := run(false), run(true)
	if on >= off {
		t.Errorf("dict scan accounting %d B, want < raw %d B", on, off)
	}
}
