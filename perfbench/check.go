package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// goldenPath is the committed 22-query snapshot at SF 0.005, seed 1.
const goldenPath = "internal/tpch/testdata/tpch_golden.txt"

// The golden snapshot's dataset.
const (
	goldenSF   = 0.005
	goldenSeed = 1
)

// expected maps a query id to its answer in tpch.FormatAnswer form.
type expected map[int]string

// oracle answers every query serially on an in-memory database with
// plain (undictionaried) columns: the simplest configuration the engine
// has, against which every measured configuration must agree byte for
// byte.
func oracle(sf float64, seed int64) expected {
	db := tpch.Generate(tpch.GenConfig{SF: sf, Seed: seed, Random64: true, NoDict: true})
	want := make(expected, len(tpch.Queries))
	for _, q := range tpch.Queries {
		t, _ := tpch.RunQueryWorkers(q.ID, db, 1)
		want[q.ID] = tpch.FormatAnswer(q.ID, t)
	}
	return want
}

// golden reads the committed snapshot, split per query.
func golden(root string) (expected, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("read golden answers: %w", err)
	}
	want := make(expected)
	id := 0
	var b strings.Builder
	flush := func() {
		if id != 0 {
			want[id] = b.String()
		}
		b.Reset()
	}
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "== Q"); ok {
			flush()
			n, _, _ := strings.Cut(rest, " ")
			if id, err = strconv.Atoi(n); err != nil {
				return nil, fmt.Errorf("golden answers: bad header %q", line)
			}
		}
		b.WriteString(line)
	}
	flush()
	if len(want) != len(tpch.Queries) {
		return nil, fmt.Errorf("golden answers: %d queries, want %d", len(want), len(tpch.Queries))
	}
	return want, nil
}

// answersFor returns the answers a run at (sf, seed) must produce: the
// golden snapshot on its own dataset, the oracle everywhere else.
func answersFor(root string, sf float64, seed int64) (expected, error) {
	if sf == goldenSF && seed == goldenSeed {
		return golden(root)
	}
	return oracle(sf, seed), nil
}

// verdict tallies checked operations.
type verdict struct {
	attempted, failed int64
	notes             []string // the first few failures
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.notes) < 5 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) merge(o verdict) {
	v.attempted += o.attempted
	for _, n := range o.notes {
		if len(v.notes) < 5 {
			v.notes = append(v.notes, n)
		}
	}
	v.failed += o.failed
}

// check compares one answer (or its error) with want; a nil want skips
// the comparison, for answers over a state no oracle describes.
func (v *verdict) check(what string, id int, t *relal.Table, err error, want expected) {
	v.attempted++
	switch {
	case err != nil:
		v.fail("%s Q%d: %v", what, id, err)
	case want != nil && tpch.FormatAnswer(id, t) != want[id]:
		v.fail("%s Q%d: wrong answer", what, id)
	}
}

// replay runs the 22 queries once through exec and checks each answer.
func replay(what string, exec execFn, want expected) verdict {
	var v verdict
	for _, q := range tpch.Queries {
		t, _, err := exec(q.ID)
		v.check(what, q.ID, t, err, want)
	}
	return v
}
