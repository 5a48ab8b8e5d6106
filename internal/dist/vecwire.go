package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"elephants/internal/relal"
)

// Result tables travel as raw little-endian column vectors, one column
// after another in schema order:
//
//	kind byte
//	run vectors:  u32 run count | i32 run ends
//	Int, Float:   8 bytes per value (one value per run for run vectors)
//	plain Str:    u32 length | bytes, per row
//	dict Str:     u32 dict size | (u32 length | bytes) per dict value |
//	              u32 code per row (per run for run vectors)
//
// Runs and dictionaries cross the wire as the shard holds them, so the
// coordinator rebuilds the same encodings without expanding anything.
// There is no per-column checksum: the frame CRC covers these bytes,
// which are built straight from the shard's vectors. The run kinds
// come last: a kind byte at or above vecIntRuns carries a run list.
const (
	vecInt byte = iota
	vecFloat
	vecStr
	vecDict
	vecIntRuns
	vecFloatRuns
	vecDictRuns
)

// vecKind returns the wire kind of a dense vector.
func vecKind(v *relal.Vector) byte {
	switch {
	case v.Kind == relal.Int && v.IsRuns():
		return vecIntRuns
	case v.Kind == relal.Int:
		return vecInt
	case v.Kind == relal.Float && v.IsRuns():
		return vecFloatRuns
	case v.Kind == relal.Float:
		return vecFloat
	case v.IsRuns():
		return vecDictRuns
	case v.IsDict():
		return vecDict
	}
	return vecStr
}

func strsSize(xs []string) int {
	n := 4 * len(xs)
	for _, s := range xs {
		n += len(s)
	}
	return n
}

// vectorsSize returns the exact encoded size of a dense table's columns.
func vectorsSize(t *relal.Table) int {
	n := 0
	for _, v := range t.Cols {
		n++
		if v.IsRuns() {
			n += 4 + 4*len(v.RunEnds)
		}
		switch vecKind(v) {
		case vecInt, vecIntRuns:
			n += 8 * len(v.Ints)
		case vecFloat, vecFloatRuns:
			n += 8 * len(v.Floats)
		case vecStr:
			n += strsSize(v.Strs)
		default:
			n += 4 + strsSize(v.DictVals) + 4*len(v.Dict)
		}
	}
	return n
}

func appendStrs(buf []byte, xs []string) []byte {
	for _, s := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// appendVectors appends a dense table's columns in the wire layout.
func appendVectors(buf []byte, t *relal.Table) []byte {
	for _, v := range t.Cols {
		kind := vecKind(v)
		buf = append(buf, kind)
		if v.IsRuns() {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.RunEnds)))
			for _, e := range v.RunEnds {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
			}
		}
		switch kind {
		case vecInt, vecIntRuns:
			for _, x := range v.Ints {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
			}
		case vecFloat, vecFloatRuns:
			for _, x := range v.Floats {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		case vecStr:
			buf = appendStrs(buf, v.Strs)
		default:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.DictVals)))
			buf = appendStrs(buf, v.DictVals)
			for _, c := range v.Dict {
				buf = binary.LittleEndian.AppendUint32(buf, c)
			}
		}
	}
	return buf
}

// vecReader walks an encoded body. The first violation sticks in err
// and every later read returns zero values, so decoders check err once
// per column.
type vecReader struct {
	b   []byte
	err error
}

func (r *vecReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// array takes n items of width bytes each, checking the length against
// the remaining bytes before multiplying.
func (r *vecReader) array(n, width int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)/width {
		r.fail("%d items of %d bytes overrun the %d bytes left", n, width, len(r.b))
		return nil
	}
	out := r.b[:n*width]
	r.b = r.b[n*width:]
	return out
}

func (r *vecReader) u8() byte {
	if b := r.array(1, 1); r.err == nil {
		return b[0]
	}
	return 0
}

func (r *vecReader) u32() int {
	if b := r.array(1, 4); r.err == nil {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

// runEnds reads a run list, which must be strictly increasing and end
// at rows.
func (r *vecReader) runEnds(rows int) []int32 {
	raw := r.array(r.u32(), 4)
	if r.err != nil {
		return nil
	}
	ends := make([]int32, len(raw)/4)
	prev := int32(0)
	for k := range ends {
		e := int32(binary.LittleEndian.Uint32(raw[4*k:]))
		if e <= prev {
			r.fail("run end %d after %d", e, prev)
			return nil
		}
		ends[k], prev = e, e
	}
	if int(prev) != rows {
		r.fail("runs end at row %d, want %d", prev, rows)
	}
	return ends
}

func (r *vecReader) ints(n int) []int64 {
	raw := r.array(n, 8)
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func (r *vecReader) floats(n int) []float64 {
	raw := r.array(n, 8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// strs reads n length-prefixed strings. They are cut from one string
// conversion of their bytes: one allocation per column, not per cell.
func (r *vecReader) strs(n int) []string {
	start := r.b
	for i := 0; i < n && r.err == nil; i++ {
		r.array(r.u32(), 1)
	}
	if r.err != nil {
		return nil
	}
	raw := start[:len(start)-len(r.b)]
	blob := string(raw)
	out := make([]string, n)
	off := 0
	for i := range out {
		l := int(binary.LittleEndian.Uint32(raw[off:]))
		out[i] = blob[off+4 : off+4+l]
		off += 4 + l
	}
	return out
}

// dict reads a dictionary, which must be strictly ascending (code
// order is value order), then n codes, each of which must index it.
func (r *vecReader) dict(n int) ([]uint32, []string) {
	vals := r.strs(r.u32())
	for i := 1; i < len(vals) && r.err == nil; i++ {
		if vals[i-1] >= vals[i] {
			r.fail("dict values %d and %d out of order", i-1, i)
		}
	}
	raw := r.array(n, 4)
	if r.err != nil {
		return nil, nil
	}
	codes := make([]uint32, n)
	for i := range codes {
		c := binary.LittleEndian.Uint32(raw[4*i:])
		if int(c) >= len(vals) {
			r.fail("code %d outside a dict of %d", c, len(vals))
			return nil, nil
		}
		codes[i] = c
	}
	return codes, vals
}

// column reads one column of the given schema type holding rows cells.
func (r *vecReader) column(typ relal.Type, rows int) *relal.Vector {
	kind := r.u8()
	var ends []int32
	n := rows
	if kind >= vecIntRuns {
		ends = r.runEnds(rows)
		n = len(ends)
	}
	if r.err != nil {
		return nil
	}
	var v *relal.Vector
	switch {
	case kind == vecInt && typ == relal.Int:
		v = relal.IntsV(r.ints(n))
	case kind == vecIntRuns && typ == relal.Int:
		v = &relal.Vector{Kind: relal.Int, Ints: r.ints(n), RunEnds: ends}
	case kind == vecFloat && typ == relal.Float:
		v = relal.FloatsV(r.floats(n))
	case kind == vecFloatRuns && typ == relal.Float:
		v = &relal.Vector{Kind: relal.Float, Floats: r.floats(n), RunEnds: ends}
	case kind == vecStr && typ == relal.Str:
		v = relal.StrsV(r.strs(n))
	case kind == vecDict && typ == relal.Str:
		v = relal.DictV(r.dict(n))
	case kind == vecDictRuns && typ == relal.Str:
		codes, vals := r.dict(n)
		v = &relal.Vector{Kind: relal.Str, Dict: codes, DictVals: vals, RunEnds: ends}
	default:
		r.fail("vector kind %d for a column of type %d", kind, typ)
	}
	return v
}

// decodeVectors rebuilds a result table from its wire body. Every
// length is checked against the bytes left, every code against its
// dictionary, every run list against rows, and the body must be used
// up exactly; any violation is an error, never a panic or a table with
// the wrong shape.
func decodeVectors(name string, schema relal.Schema, rows int, body []byte) (*relal.Table, error) {
	if rows < 0 || (len(schema) == 0 && rows != 0) {
		return nil, fmt.Errorf("%d rows for %d columns", rows, len(schema))
	}
	r := &vecReader{b: body}
	cols := make([]*relal.Vector, len(schema))
	for i, c := range schema {
		cols[i] = r.column(c.Type, rows)
		if r.err != nil {
			return nil, fmt.Errorf("column %q: %w", c.Name, r.err)
		}
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d columns", len(r.b), len(schema))
	}
	return relal.NewTable(name, schema, cols...), nil
}
