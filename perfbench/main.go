// Command perfbench is the repository's benchmark: it runs one named
// workload against the real engine, calling each layer's public
// functions directly, checks every answer, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones, measured untraced; with -trace 1
// the run records spans around every layer call and the metrics are the
// per-layer ones. Earlier lines carry a report with the host, the
// configuration and every figure behind the metrics.
//
//	go build -o perfbench . && ./perfbench -root .. -workload olap-rcf -seed 1 -seconds 10 -trace 0
//
// The workloads:
//
//   - olap-rcf: SF 0.05, every table RCF5-encoded behind one chunk
//     cache smaller than the working set, two closed-loop streams. Scan
//     decode, cache eviction, the kernels and the morsel scheduler all
//     do real work.
//   - htap-mixed: SF 0.01 on a durable store (directory FS, group
//     fsync). An open-loop generator sends held-back orders/lineitem
//     rows as BSON through the delta log while one closed-loop stream
//     replays the queries; then quiesce, convert, check, and reopen to
//     time recovery. The only workload on the write path.
//   - dist-scatter: SF 0.005 over two in-process durable shards and a
//     coordinator on loopback TCP, one closed-loop client. The only
//     workload where the wire protocol, shard re-encode and coordinator
//     merge run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload  string
	dataSeed  int64
	schedSeed int64
	seconds   float64
	trace     bool
	root      string
	scratch   string // durable stores and span files
	// Smaller sizes for the smoke tests; zero keeps the workload's own.
	sf      float64
	setups  int
	reopens int
}

// workDir holds this process's durable stores; it is removed at exit.
func (c config) workDir() string {
	return filepath.Join(c.scratch, "work", fmt.Sprintf("%s-%d", c.workload, os.Getpid()))
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workload runs one named workload and returns what it measured.
type workload func(cfg config, tr *tracer) (*measure, error)

var workloads = map[string]workload{
	"olap-rcf":     runOLAP,
	"htap-mixed":   runHTAP,
	"dist-scatter": runDist,
}

func main() {
	var cfg config
	var trace int
	seed := flag.Int64("seed", 1, "seed for the data and the write schedule")
	dataSeed := flag.Int64("data-seed", -1, "data generator seed (default: -seed)")
	schedSeed := flag.Int64("schedule-seed", -1, "write-schedule and retry-jitter seed (default: -seed)")
	flag.StringVar(&cfg.workload, "workload", "", "olap-rcf, htap-mixed or dist-scatter")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.scratch, "scratch", "", "directory for durable stores and span files (default .bench_build under -root)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}

	cfg.trace = trace == 1
	cfg.dataSeed, cfg.schedSeed = *seed, *seed
	if *dataSeed >= 0 {
		cfg.dataSeed = *dataSeed
	}
	if *schedSeed >= 0 {
		cfg.schedSeed = *schedSeed
	}
	res, report, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("report %s\n", out)
	if out, err = json.Marshal(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes cfg and returns the result line and the full report.
func run(cfg config) (result, map[string]any, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (want olap-rcf, htap-mixed or dist-scatter)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, nil, errors.New("-seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(cfg.root, goldenPath)); err != nil {
		return result{}, nil, fmt.Errorf("-root %q is not the repository root: %w", cfg.root, err)
	}
	if cfg.setups <= 0 {
		cfg.setups = 3
	}
	if cfg.reopens <= 0 {
		cfg.reopens = 3
	}
	if cfg.scratch == "" {
		cfg.scratch = filepath.Join(cfg.root, ".bench_build")
	}
	work := cfg.workDir()
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(work)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	m, err := wl(cfg, tr)
	if err != nil {
		return result{}, nil, err
	}

	e2e := endToEnd(m)
	list := e2e
	report := map[string]any{
		"workload": cfg.workload,
		"traced":   cfg.trace,
		"host":     hostInfo(cfg.root),
		"config": map[string]any{
			"data_seed":     cfg.dataSeed,
			"schedule_seed": cfg.schedSeed,
			"seconds":       cfg.seconds,
			"setups":        cfg.setups,
		},
		"workload_info":   m.info,
		"end_to_end":      named(e2e),
		"failed_frac":     ratio(float64(m.failed), float64(m.attempted)),
		"failures":        m.notes,
		"unmeasured_time": unmeasured,
	}
	if tr != nil {
		spans := tr.spans()
		out := filepath.Join(cfg.scratch, "traces", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.dataSeed))
		if err := tr.write(out); err != nil {
			return result{}, nil, fmt.Errorf("write spans: %w", err)
		}
		m.info["trace_file"] = out
		m.info["trace_spans"] = len(spans)
		list = perLayer(m, spans)
		report["per_layer"] = named(list)
	} else if m.writes > 0 {
		report["write_side"] = named(writeSide(m))
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: named(list)}
	for _, mv := range list {
		fmt.Fprintf(os.Stderr, "%-36s %14.6g %s\n", mv.name, mv.value, mv.unit)
	}
	if len(m.notes) > 0 {
		fmt.Fprintln(os.Stderr, "failures:", strings.Join(m.notes, "; "))
	}
	return res, report, nil
}

// unmeasured names where query and write wall time goes that the
// benchmark's own spans cannot see; spans inside the program are a
// later change.
var unmeasured = []string{
	"relal: morsel scheduler queue wait (submit to first morsel claimed) is inside relal.self_ms_per_query",
	"relal: per-operator kernel time beyond Sort/TopK is inside relal.self_ms_per_query",
	"delta: the group-commit window wait is the part of a write not covered by fault.append/fault.sync",
	"htap: converter encode time runs in the background and is not attributed to writes or queries",
	"dist: coordinator request encode and the shard's scan, re-encode and gzip are one span (dist.relay.service)",
}

func named(ms []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, mv := range ms {
		out[mv.name] = metricValue{Value: mv.value, Unit: mv.unit}
	}
	return out
}

// hostInfo records where and on what the run happened.
func hostInfo(root string) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"hostname":   host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     sourceHash(root),
	}
}
