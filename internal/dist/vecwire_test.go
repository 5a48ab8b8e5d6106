package dist

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"

	"elephants/internal/relal"
)

// shapesTable holds one column of every vector shape the codec ships.
func shapesTable() *relal.Table {
	schema := relal.Schema{
		{Name: "i", Type: relal.Int}, {Name: "f", Type: relal.Float}, {Name: "s", Type: relal.Str},
		{Name: "d", Type: relal.Str}, {Name: "ir", Type: relal.Int}, {Name: "fr", Type: relal.Float},
		{Name: "dr", Type: relal.Str},
	}
	return relal.NewTable("shapes", schema,
		relal.IntsV([]int64{-3, 0, 7, 1 << 62, -1 << 63}),
		relal.FloatsV([]float64{0.5, -2, 1e300, 0, 3.25}),
		relal.StrsV([]string{"a", "", "héllo", "a", "zz"}),
		relal.DictV([]uint32{2, 0, 1, 1, 0}, []string{"AIR", "MAIL", "SHIP"}),
		relal.IntRunsV([]int64{4, -9}, []int32{3, 5}),
		relal.FloatRunsV([]float64{1.5, 2.5, 1.5}, []int32{1, 2, 5}),
		relal.DictRunsV([]uint32{1, 0}, []int32{4, 5}, []string{"N", "R"}),
	)
}

// emptyTable is a zero-row table of every shape, including an empty
// dictionary and empty run lists.
func emptyTable() *relal.Table {
	schema := relal.Schema{
		{Name: "i", Type: relal.Int}, {Name: "f", Type: relal.Float}, {Name: "s", Type: relal.Str},
		{Name: "d", Type: relal.Str}, {Name: "ir", Type: relal.Int}, {Name: "dr", Type: relal.Str},
	}
	return relal.NewTable("empty", schema,
		relal.IntsV([]int64{}), relal.FloatsV([]float64{}), relal.StrsV([]string{}),
		relal.DictV([]uint32{}, []string{}),
		relal.IntRunsV([]int64{}, []int32{}),
		relal.DictRunsV([]uint32{}, []int32{}, []string{}),
	)
}

func roundTrip(t *testing.T, in *relal.Table) (*relal.Table, Response) {
	t.Helper()
	payload, err := EncodeResponse(Response{Shard: 3, Stats: relal.ScanStats{GroupsRead: 2}}, in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Shard != 3 || resp.Stats.GroupsRead != 2 || resp.Rows != in.NumRows() {
		t.Fatalf("header did not round-trip: %+v", resp)
	}
	out, err := decodeTable(resp, in.Name)
	if err != nil {
		t.Fatal(err)
	}
	return out, resp
}

func TestVecWireRoundTrip(t *testing.T) {
	for _, in := range []*relal.Table{shapesTable(), emptyTable()} {
		out, resp := roundTrip(t, in)
		if len(resp.body) != vectorsSize(in) {
			t.Fatalf("%s: body %d bytes, sized %d", in.Name, len(resp.body), vectorsSize(in))
		}
		if !reflect.DeepEqual(out.Schema, in.Schema) {
			t.Fatalf("%s: schema %v, want %v", in.Name, out.Schema, in.Schema)
		}
		if got, want := relal.RowsOf(out), relal.RowsOf(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rows %v, want %v", in.Name, got, want)
		}
		for i, v := range out.Cols {
			if got, want := vecKind(v), vecKind(in.Cols[i]); got != want {
				t.Fatalf("%s: column %s arrived as kind %d, sent as %d", in.Name, in.Schema[i].Name, got, want)
			}
		}
	}
}

// TestVecWireView checks a view ships its selected rows, in order.
func TestVecWireView(t *testing.T) {
	in := relal.Take(shapesTable(), "view", []int32{4, 0, 2})
	out, _ := roundTrip(t, in)
	if got, want := relal.RowsOf(out), relal.RowsOf(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

func TestVecWireRejectsTruncation(t *testing.T) {
	in := shapesTable()
	body := appendVectors(nil, in)
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeVectors("t", in.Schema, in.NumRows(), body[:cut]); err == nil {
			t.Fatalf("body cut to %d of %d bytes accepted", cut, len(body))
		}
	}
	payload, err := EncodeResponse(Response{}, in)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		resp, err := DecodeResponse(payload[:cut])
		if err == nil {
			_, err = decodeTable(resp, "t")
		}
		if err == nil {
			t.Fatalf("payload cut to %d of %d bytes accepted", cut, len(payload))
		}
	}
}

func TestVecWireRejectsDamage(t *testing.T) {
	one := func(v *relal.Vector, typ relal.Type) (relal.Schema, []byte) {
		tbl := relal.NewTable("t", relal.Schema{{Name: "c", Type: typ}}, v)
		return tbl.Schema, appendVectors(nil, tbl)
	}
	cases := map[string]func() (relal.Schema, int, []byte){
		"trailing byte": func() (relal.Schema, int, []byte) {
			s, b := one(relal.IntsV([]int64{1, 2}), relal.Int)
			return s, 2, append(b, 0)
		},
		"code outside dict": func() (relal.Schema, int, []byte) {
			s, b := one(relal.DictV([]uint32{0, 1}, []string{"a", "b"}), relal.Str)
			b[len(b)-4] = 2
			return s, 2, b
		},
		"dict out of order": func() (relal.Schema, int, []byte) {
			s, b := one(relal.DictV([]uint32{0, 1}, []string{"b", "a"}), relal.Str)
			return s, 2, b
		},
		"dict duplicate": func() (relal.Schema, int, []byte) {
			s, b := one(relal.DictV([]uint32{0, 1}, []string{"a", "a"}), relal.Str)
			return s, 2, b
		},
		"runs end short": func() (relal.Schema, int, []byte) {
			s, b := one(relal.IntRunsV([]int64{1, 2}, []int32{2, 4}), relal.Int)
			return s, 5, b
		},
		"runs not increasing": func() (relal.Schema, int, []byte) {
			s, b := one(relal.IntRunsV([]int64{1, 2}, []int32{2, 4}), relal.Int)
			b[1+4+4] = 2 // second end := 2
			return s, 4, b
		},
		"kind against schema": func() (relal.Schema, int, []byte) {
			_, b := one(relal.FloatsV([]float64{1}), relal.Float)
			return relal.Schema{{Name: "c", Type: relal.Int}}, 1, b
		},
		"unknown kind": func() (relal.Schema, int, []byte) {
			s, b := one(relal.IntsV([]int64{1}), relal.Int)
			b[0] = 99
			return s, 1, b
		},
		"rows without columns": func() (relal.Schema, int, []byte) {
			return relal.Schema{}, 1, nil
		},
		"negative rows": func() (relal.Schema, int, []byte) {
			s, _ := one(relal.IntsV([]int64{}), relal.Int)
			return s, -1, []byte{vecInt}
		},
		"huge string count": func() (relal.Schema, int, []byte) {
			return relal.Schema{{Name: "c", Type: relal.Str}}, 1 << 40, []byte{vecStr, 1, 0, 0, 0}
		},
	}
	for name, mk := range cases {
		schema, rows, body := mk()
		if tbl, err := decodeVectors("t", schema, rows, body); err == nil {
			t.Errorf("%s: accepted as %v", name, relal.RowsOf(tbl))
		}
	}
}

func TestMergeByPos(t *testing.T) {
	part := func(pos ...int64) *relal.Table {
		return relal.NewTable("p", relal.Schema{{Name: PosCol, Type: relal.Int}}, relal.IntsV(pos))
	}
	order, err := mergeByPos([]*relal.Table{part(1, 4, 5), part(), part(0, 2, 3, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{3, 0, 4, 5, 1, 2, 6}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for name, parts := range map[string][]*relal.Table{
		"descending part": {part(0, 2), part(5, 3)},
		"shared position": {part(1, 2), part(2, 3)},
	} {
		_, err := mergeByPos(parts)
		var pe *PartialError
		if !errors.As(err, &pe) || pe.Shard != 1 {
			t.Fatalf("%s: %v, want a *PartialError for shard 1", name, err)
		}
	}
}

// TestDistDamagedBodyTyped serves frames whose CRC is valid but whose
// vector body is not, on both the scan and the fragment path: the
// coordinator must return an error wrapping ErrPartial, never rows.
func TestDistDamagedBodyTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload, err := EncodeResponse(Response{}, shapesTable())
	if err != nil {
		t.Fatal(err)
	}
	damaged := append(payload, 0)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := ReadFrame(conn); err == nil {
				WriteFrame(conn, damaged)
			}
			conn.Close()
		}
	}()
	for _, noFrag := range []bool{true, false} {
		c := NewCoordinator(goldenGen(), []string{ln.Addr().String()}, Options{ProbeEvery: -1, NoFragments: noFrag})
		out, err := c.RunQuery(12)
		c.Close()
		if !errors.Is(err, ErrPartial) {
			t.Fatalf("NoFragments=%v: got %v rows, err %v; want ErrPartial", noFrag, out != nil, err)
		}
	}
}

// FuzzDecodeVectors feeds arbitrary bodies to the decoder: each must
// come back as an error or as a table whose every column holds rows
// cells and re-encodes to exactly the input — never a panic.
func FuzzDecodeVectors(f *testing.F) {
	schema := relal.Schema{{Name: "i", Type: relal.Int}, {Name: "f", Type: relal.Float}, {Name: "s", Type: relal.Str}}
	seed := func(cols ...*relal.Vector) {
		tbl := relal.NewTable("seed", schema, cols...)
		f.Add(appendVectors(nil, tbl), tbl.NumRows())
	}
	seed(relal.IntsV([]int64{1, 2, 3}), relal.FloatsV([]float64{1, 2, 3}), relal.StrsV([]string{"x", "", "yz"}))
	seed(relal.IntRunsV([]int64{7}, []int32{3}), relal.FloatRunsV([]float64{1, 2}, []int32{1, 3}),
		relal.DictRunsV([]uint32{0, 1}, []int32{2, 3}, []string{"a", "b"}))
	seed(relal.IntsV([]int64{}), relal.FloatsV([]float64{}), relal.DictV([]uint32{}, []string{}))
	seed(relal.IntsV([]int64{5, 6}), relal.FloatsV([]float64{0, -1}), relal.DictV([]uint32{1, 0}, []string{"p", "q"}))
	f.Fuzz(func(t *testing.T, body []byte, rows int) {
		tbl, err := decodeVectors("fuzz", schema, rows, body)
		if err != nil {
			return
		}
		if tbl.NumRows() != rows {
			t.Fatalf("table has %d rows, header says %d", tbl.NumRows(), rows)
		}
		for i, v := range tbl.Cols {
			if v.Len() != rows {
				t.Fatalf("column %d has %d cells, want %d", i, v.Len(), rows)
			}
			for _, c := range v.Dict {
				if int(c) >= len(v.DictVals) {
					t.Fatalf("column %d: code %d outside a dict of %d", i, c, len(v.DictVals))
				}
			}
		}
		if again := appendVectors(nil, tbl); !bytes.Equal(again, body) {
			t.Fatalf("accepted body does not re-encode to itself")
		}
	})
}
