// Multi-part table concatenation: the HTAP scan path answers queries
// over a base part, zero or more converted delta parts, and the
// unconverted delta tail, stitched back together in row order. The
// stitching preserves encodings where the parts agree — same-dictionary
// codes concatenate without decoding, run lists concatenate with
// shifted ends — merges dictionaries when parts disagree (an RCF4 part
// carries its own file-global dictionary), and degrades a column to raw
// strings only when some part is raw, mirroring the per-column rules
// the RCF4 reader applies across row groups.
package relal

import "sort"

// Concat returns a table with the given name and schema whose rows are
// the parts' rows in order. Columns are selected from each part by
// name (parts may carry wider schemas or different column orders, e.g.
// an in-memory part returning every column next to an RCFile part
// returning the requested subset). Views are compacted first; the
// result's vectors may alias a single part's, so the table is marked
// shared.
func Concat(name string, schema Schema, parts ...*Table) *Table {
	dense := make([]*Table, 0, len(parts))
	for _, p := range parts {
		if p.NumRows() == 0 {
			continue
		}
		if p.sel != nil {
			p = p.Compacted()
		}
		dense = append(dense, p)
	}
	if len(dense) == 0 {
		return NewTable(name, schema)
	}
	if len(dense) == 1 && schemaMatches(dense[0].Schema, schema) {
		return dense[0]
	}
	cols := make([]*Vector, len(schema))
	for ci, c := range schema {
		vecs := make([]*Vector, len(dense))
		for pi, p := range dense {
			vecs[pi] = p.Cols[p.Schema.Col(c.Name)]
		}
		cols[ci] = concatVecs(c.Type, vecs)
	}
	return NewTable(name, schema, cols...)
}

func schemaMatches(got, want Schema) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			return false
		}
	}
	return true
}

// concatVecs concatenates non-empty column vectors of one type.
func concatVecs(typ Type, vecs []*Vector) *Vector {
	if len(vecs) == 1 {
		return vecs[0]
	}
	if typ == Str {
		return concatStrVecs(vecs)
	}
	if allRuns(vecs) {
		return concatRuns(typ, vecs)
	}
	total := 0
	for _, v := range vecs {
		total += v.Len()
	}
	if typ == Int {
		out := make([]int64, 0, total)
		for _, v := range vecs {
			out = append(out, v.Flat().Ints...)
		}
		return IntsV(out)
	}
	out := make([]float64, 0, total)
	for _, v := range vecs {
		out = append(out, v.Flat().Floats...)
	}
	return FloatsV(out)
}

func allRuns(vecs []*Vector) bool {
	for _, v := range vecs {
		if v.RunEnds == nil {
			return false
		}
	}
	return true
}

// concatRuns concatenates run-encoded vectors: run values concatenate
// and each part's ends shift by the rows before it. Adjacent equal
// values across a part boundary stay separate runs — harmless, the run
// contract only requires strictly increasing ends.
func concatRuns(typ Type, vecs []*Vector) *Vector {
	totalRuns := 0
	for _, v := range vecs {
		totalRuns += v.NumRuns()
	}
	ends := make([]int32, 0, totalRuns)
	base := int32(0)
	for _, v := range vecs {
		for _, e := range v.RunEnds {
			ends = append(ends, base+e)
		}
		base += int32(v.Len())
	}
	if typ == Int {
		xs := make([]int64, 0, totalRuns)
		for _, v := range vecs {
			xs = append(xs, v.Ints...)
		}
		return IntRunsV(xs, ends)
	}
	xs := make([]float64, 0, totalRuns)
	for _, v := range vecs {
		xs = append(xs, v.Floats...)
	}
	return FloatRunsV(xs, ends)
}

// concatStrVecs concatenates Str vectors. All parts dict-encoded over
// one dictionary: codes concatenate (run lists stay run lists). All
// dict but dictionaries differ: the dictionaries merge into one sorted
// union and each part's codes remap. Any raw part: the whole column
// degrades to raw strings — the same rule the RCF4 reader applies when
// any chunk of a column was written plain.
func concatStrVecs(vecs []*Vector) *Vector {
	allDict, oneDict := true, true
	for _, v := range vecs {
		if !v.IsDict() {
			allDict = false
			break
		}
		if !sameDict(v, vecs[0]) {
			oneDict = false
		}
	}
	if !allDict {
		total := 0
		for _, v := range vecs {
			total += v.Len()
		}
		out := make([]string, 0, total)
		for _, v := range vecs {
			out = append(out, v.DecodeStrs()...)
		}
		return StrsV(out)
	}
	if oneDict && allRuns(vecs) {
		totalRuns := 0
		for _, v := range vecs {
			totalRuns += v.NumRuns()
		}
		codes := make([]uint32, 0, totalRuns)
		ends := make([]int32, 0, totalRuns)
		base := int32(0)
		for _, v := range vecs {
			codes = append(codes, v.Dict...)
			for _, e := range v.RunEnds {
				ends = append(ends, base+e)
			}
			base += int32(v.Len())
		}
		return DictRunsV(codes, ends, vecs[0].DictVals)
	}
	total := 0
	for _, v := range vecs {
		total += v.Len()
	}
	if oneDict {
		codes := make([]uint32, 0, total)
		for _, v := range vecs {
			codes = append(codes, v.Flat().Dict...)
		}
		return DictV(codes, vecs[0].DictVals)
	}
	// Dictionaries differ: merge into one sorted union and remap.
	merged, remaps := mergeDicts(vecs)
	codes := make([]uint32, 0, total)
	for pi, v := range vecs {
		remap := remaps[pi]
		for _, c := range v.Flat().Dict {
			codes = append(codes, remap[c])
		}
	}
	return DictV(codes, merged)
}

// mergeDicts unions the parts' sorted dictionaries into one sorted,
// deduplicated dictionary and returns, per part, the old-code → new-code
// remap table.
func mergeDicts(vecs []*Vector) ([]string, [][]uint32) {
	var union []string
	for _, v := range vecs {
		union = append(union, v.DictVals...)
	}
	sort.Strings(union)
	merged := union[:0]
	for i, s := range union {
		if i == 0 || s != merged[len(merged)-1] {
			merged = append(merged, s)
		}
	}
	remaps := make([][]uint32, len(vecs))
	for pi, v := range vecs {
		remap := make([]uint32, len(v.DictVals))
		for code, s := range v.DictVals {
			remap[code] = uint32(sort.SearchStrings(merged, s))
		}
		remaps[pi] = remap
	}
	return merged, remaps
}

// Take returns a zero-copy view of t's rows at the given logical row
// indices, in order.
func Take(t *Table, name string, idx []int32) *Table {
	if t.sel != nil {
		idx = gatherSlice(t.sel, idx)
	}
	return view(t, name, idx)
}

// Head returns a zero-copy table over t's first n rows (t itself when n
// covers the table). t must be dense (no selection vector) with flat or
// dict vectors — the base-table shapes the generator emits. The HTAP
// store uses it to split a generated table into the base part that
// stays resident and the held-back suffix that replays through the
// write path.
func Head(t *Table, n int) *Table {
	if n >= t.NumRows() {
		return t
	}
	if t.sel != nil {
		panic("relal: Head of a view")
	}
	cols := make([]*Vector, len(t.Cols))
	for i, v := range t.Cols {
		v = v.Flat()
		switch {
		case v.Kind == Int:
			cols[i] = IntsV(v.Ints[:n])
		case v.Kind == Float:
			cols[i] = FloatsV(v.Floats[:n])
		case v.DictVals != nil:
			cols[i] = DictV(v.Dict[:n], v.DictVals)
		default:
			cols[i] = StrsV(v.Strs[:n])
		}
	}
	return NewTable(t.Name, t.Schema, cols...)
}
