package relal

import (
	"reflect"
	"testing"
)

func concatSchema() Schema {
	return Schema{
		{Name: "k", Type: Int},
		{Name: "x", Type: Float},
		{Name: "s", Type: Str},
	}
}

func tableRows(t *Table) []Row { return RowsOf(t) }

// TestConcatBasic pins the core contract: rows of the parts in order,
// regardless of each part's physical encoding.
func TestConcatBasic(t *testing.T) {
	sch := concatSchema()
	a := NewTable("t", sch,
		IntsV([]int64{1, 2}),
		FloatsV([]float64{0.5, 1.5}),
		StrsV([]string{"x", "y"}),
	)
	b := NewTable("t", sch,
		IntsV([]int64{3}),
		FloatsV([]float64{2.5}),
		StrsV([]string{"z"}),
	)
	got := Concat("t", sch, a, b)
	want := []Row{{int64(1), 0.5, "x"}, {int64(2), 1.5, "y"}, {int64(3), 2.5, "z"}}
	if !reflect.DeepEqual(tableRows(got), want) {
		t.Errorf("rows = %v, want %v", tableRows(got), want)
	}
	if got.NumRows() != 3 {
		t.Errorf("NumRows = %d, want 3", got.NumRows())
	}
}

// TestConcatEmptyParts: empty parts vanish; a single surviving part is
// returned as-is (no copying).
func TestConcatEmptyParts(t *testing.T) {
	sch := concatSchema()
	empty := NewTable("t", sch, IntsV(nil), FloatsV(nil), StrsV(nil))
	a := NewTable("t", sch,
		IntsV([]int64{7}), FloatsV([]float64{7}), StrsV([]string{"q"}))
	got := Concat("t", sch, empty, a, empty)
	if got != a {
		t.Errorf("single non-empty part should be returned unchanged")
	}
	if allEmpty := Concat("t", sch, empty, empty); allEmpty.NumRows() != 0 {
		t.Errorf("all-empty concat has %d rows", allEmpty.NumRows())
	}
}

// TestConcatSameDict: parts sharing one dictionary concatenate codes
// without decoding, and the result stays dictionary-encoded.
func TestConcatSameDict(t *testing.T) {
	sch := Schema{{Name: "s", Type: Str}}
	vals := []string{"AIR", "RAIL", "SHIP"}
	a := NewTable("t", sch, DictV([]uint32{0, 2}, vals))
	b := NewTable("t", sch, DictV([]uint32{1, 1, 0}, vals))
	got := Concat("t", sch, a, b)
	v := got.Cols[0]
	if !v.IsDict() {
		t.Fatalf("same-dict concat lost dictionary encoding")
	}
	if &v.DictVals[0] != &vals[0] {
		t.Errorf("same-dict concat copied the dictionary")
	}
	want := []string{"AIR", "SHIP", "RAIL", "RAIL", "AIR"}
	if !reflect.DeepEqual(v.DecodeStrs(), want) {
		t.Errorf("values = %v, want %v", v.DecodeStrs(), want)
	}
}

// TestConcatMergedDicts: parts with different dictionaries merge into a
// sorted union with codes remapped — the converted-part next to
// base-part case in the HTAP view.
func TestConcatMergedDicts(t *testing.T) {
	sch := Schema{{Name: "s", Type: Str}}
	a := NewTable("t", sch, DictV([]uint32{0, 1}, []string{"AIR", "SHIP"}))
	b := NewTable("t", sch, DictV([]uint32{1, 0}, []string{"MAIL", "RAIL"}))
	got := Concat("t", sch, a, b)
	v := got.Cols[0]
	if !v.IsDict() {
		t.Fatalf("merged concat lost dictionary encoding")
	}
	wantDict := []string{"AIR", "MAIL", "RAIL", "SHIP"}
	if !reflect.DeepEqual(v.DictVals, wantDict) {
		t.Errorf("dict = %v, want %v", v.DictVals, wantDict)
	}
	want := []string{"AIR", "SHIP", "RAIL", "MAIL"}
	if !reflect.DeepEqual(v.DecodeStrs(), want) {
		t.Errorf("values = %v, want %v", v.DecodeStrs(), want)
	}
}

// TestConcatRawDegrade: any raw-string part degrades the column to raw
// strings with identical values (the out-of-dictionary delta tail case).
func TestConcatRawDegrade(t *testing.T) {
	sch := Schema{{Name: "s", Type: Str}}
	a := NewTable("t", sch, DictV([]uint32{1, 0}, []string{"AIR", "SHIP"}))
	b := NewTable("t", sch, StrsV([]string{"TRUCK"}))
	got := Concat("t", sch, a, b)
	v := got.Cols[0]
	if v.IsDict() {
		t.Errorf("raw part should degrade the concat to raw strings")
	}
	want := []string{"SHIP", "AIR", "TRUCK"}
	if !reflect.DeepEqual(v.DecodeStrs(), want) {
		t.Errorf("values = %v, want %v", v.DecodeStrs(), want)
	}
}

// TestConcatRuns: all-runs parts concatenate run lists with shifted
// ends instead of expanding.
func TestConcatRuns(t *testing.T) {
	sch := Schema{{Name: "k", Type: Int}}
	a := NewTable("t", sch, IntRunsV([]int64{5, 6}, []int32{2, 3}))
	b := NewTable("t", sch, IntRunsV([]int64{6}, []int32{2}))
	got := Concat("t", sch, a, b)
	v := got.Cols[0]
	if !v.IsRuns() {
		t.Fatalf("runs concat expanded to flat")
	}
	if v.NumRuns() != 3 {
		t.Errorf("NumRuns = %d, want 3", v.NumRuns())
	}
	want := []int64{5, 5, 6, 6, 6}
	if !reflect.DeepEqual(v.Flat().Ints, want) {
		t.Errorf("values = %v, want %v", v.Flat().Ints, want)
	}
	// Mixed runs + flat falls back to flat with the same values.
	c := NewTable("t", sch, IntsV([]int64{9}))
	mixed := Concat("t", sch, a, c)
	if mixed.Cols[0].IsRuns() {
		t.Errorf("mixed runs+flat concat should be flat")
	}
	if wantM := []int64{5, 5, 6, 9}; !reflect.DeepEqual(mixed.Cols[0].Ints, wantM) {
		t.Errorf("mixed values = %v, want %v", mixed.Cols[0].Ints, wantM)
	}
}

// TestConcatByNameSelection: parts whose schemas differ in column order
// and width (a full-schema in-memory part next to a subset-schema
// rcfile part) are matched by column name.
func TestConcatByNameSelection(t *testing.T) {
	full := Schema{{Name: "k", Type: Int}, {Name: "x", Type: Float}, {Name: "s", Type: Str}}
	sub := Schema{{Name: "s", Type: Str}, {Name: "k", Type: Int}}
	a := NewTable("t", full,
		IntsV([]int64{1}), FloatsV([]float64{0.5}), StrsV([]string{"x"}))
	b := NewTable("t", sub, StrsV([]string{"y"}), IntsV([]int64{2}))
	out := Schema{{Name: "k", Type: Int}, {Name: "s", Type: Str}}
	got := Concat("t", out, a, b)
	want := []Row{{int64(1), "x"}, {int64(2), "y"}}
	if !reflect.DeepEqual(tableRows(got), want) {
		t.Errorf("rows = %v, want %v", tableRows(got), want)
	}
}

// TestConcatCompactsViews: a filtered view part contributes only its
// selected rows.
func TestConcatCompactsViews(t *testing.T) {
	sch := Schema{{Name: "k", Type: Int}}
	base := NewTable("t", sch, IntsV([]int64{1, 2, 3, 4}))
	e := &Exec{}
	odd := e.Filter(base, func(i int) bool { return base.IntCol("k").Get(i)%2 == 1 })
	b := NewTable("t", sch, IntsV([]int64{9}))
	got := Concat("t", sch, odd, b)
	want := []int64{1, 3, 9}
	if !reflect.DeepEqual(got.Cols[0].Ints, want) {
		t.Errorf("values = %v, want %v", got.Cols[0].Ints, want)
	}
}

// TestHead pins the zero-copy prefix used to hold back write traffic.
func TestHead(t *testing.T) {
	sch := concatSchema()
	base := NewTable("t", sch,
		IntsV([]int64{1, 2, 3}),
		FloatsV([]float64{0.5, 1.5, 2.5}),
		EncodeDict([]string{"x", "y", "x"}),
	)
	h := Head(base, 2)
	if h.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", h.NumRows())
	}
	want := []Row{{int64(1), 0.5, "x"}, {int64(2), 1.5, "y"}}
	if !reflect.DeepEqual(tableRows(h), want) {
		t.Errorf("rows = %v, want %v", tableRows(h), want)
	}
	if !h.Cols[2].IsDict() {
		t.Errorf("Head lost dictionary encoding")
	}
	if full := Head(base, 3); full != base {
		t.Errorf("Head(t, NumRows) should return t unchanged")
	}
}

// TestTake pins the zero-copy reorder the coordinator's merge uses, on
// a dense table and on a view (whose selection it composes).
func TestTake(t *testing.T) {
	sch := Schema{{Name: "k", Type: Int}}
	base := NewTable("t", sch, IntsV([]int64{10, 20, 30, 40}))
	if got, want := Take(base, "t", []int32{3, 0, 2}).Compacted().Cols[0].Ints, []int64{40, 10, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("dense: %v, want %v", got, want)
	}
	odd := (&Exec{}).Filter(base, func(i int) bool { return i%2 == 1 }) // 20, 40
	if got, want := Take(odd, "t", []int32{1, 0}).Compacted().Cols[0].Ints, []int64{40, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("view: %v, want %v", got, want)
	}
}
