package main

// The traced run's instrumentation. Every span is recorded by this
// benchmark around a call into a public function of one layer; nothing
// inside the program is instrumented. Spans live in memory and are
// written out as JSON lines when the run ends.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"elephants/internal/fault"
	"elephants/internal/relal"
)

// Span names.
const (
	spanQuery       = "query"
	spanRCFileScan  = "rcfile.scan"
	spanHTAPScan    = "htap.scan"
	spanDistScatter = "dist.scatter"
	spanRelayServe  = "dist.relay.service"
	spanRelayXfer   = "dist.relay.transfer"
	spanWrite       = "write"
	spanAppendBSON  = "htap.append_bson"
	spanFSAppend    = "fault.append"
	spanFSSync      = "fault.sync"
	spanFSRead      = "fault.read"
	spanQuiesce     = "htap.quiesce"
	spanConvertAll  = "htap.convert_all"
	spanOpen        = "htap.open"
)

// span is one timed call. Trace groups the spans of one query, write or
// maintenance call; Parent is the enclosing span (0 = a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, which is how
// the untraced run skips every wrapper's bookkeeping.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	buf  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// mark returns the tracer clock, or 0 for a nil tracer.
func (t *tracer) mark() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.buf = append(t.buf, s)
	t.mu.Unlock()
}

// spans returns a snapshot of everything recorded so far.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.buf...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// client tracks the operation one closed-loop client has in flight, so
// wrappers called on its behalf (scans, relay legs, file IO) can parent
// their spans without a context argument the layer APIs do not take.
type client struct {
	trace atomic.Uint64 // trace id of the operation in flight (0 = idle)
	op    atomic.Uint64 // its root span id
	inner atomic.Uint64 // innermost open wrapper span (a scan), if any
	start atomic.Int64  // when the operation's layer call started
}

// parent returns the span a new child should hang under.
func (c *client) parent() (trace, parent uint64) {
	if p := c.inner.Load(); p != 0 {
		return c.trace.Load(), p
	}
	return c.trace.Load(), c.op.Load()
}

// scanAcc accumulates what the wrapped sources returned.
type scanAcc struct {
	mu    sync.Mutex
	stats relal.ScanStats
	rows  int64
}

func (a *scanAcc) add(s relal.ScanStats, rows int) {
	a.mu.Lock()
	a.stats.Add(s)
	a.rows += int64(rows)
	a.mu.Unlock()
}

func (a *scanAcc) snapshot() (relal.ScanStats, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats, a.rows
}

// timedSource is a relal.Source that records a span around every scan
// of the source it wraps.
type timedSource struct {
	relal.Source
	span string
	tr   *tracer
	cl   *client
	acc  *scanAcc
}

func (s *timedSource) ScanTable(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats) {
	id := s.tr.id()
	trace, parent := s.cl.parent()
	s.cl.inner.Store(id)
	// A failed scatter panics out of ScanTable to Coordinator.RunQuery's
	// recover; the client must not stay parented to this span.
	defer s.cl.inner.Store(0)
	start := s.tr.now()
	t, stats := s.Source.ScanTable(cols, pred)
	end := s.tr.now()
	s.tr.add(span{ID: id, Parent: parent, Trace: trace, Name: s.span, Start: start, End: end, Note: s.SrcName()})
	s.acc.add(stats, t.NumRows())
	return t, stats
}

// tracedFS wraps the durable store's fault.FS and records a span, with
// its byte count, around every append, fsync and read. Delta-log IO
// during the write phase is parented to the write whose client is the
// group-commit leader, taken to be the write in flight that started
// first; IO during a maintenance call (open, quiesce, convert) is
// parented to that call.
type tracedFS struct {
	fault.FS
	tr      *tracer
	writers []*client
	maint   *client
}

func (f *tracedFS) parent(name string) (trace, parent uint64) {
	if f.maint.trace.Load() != 0 {
		return f.maint.parent()
	}
	if name != "delta.log" {
		return 0, 0 // background converter
	}
	var best *client
	for _, c := range f.writers {
		if c.trace.Load() != 0 && (best == nil || c.start.Load() < best.start.Load()) {
			best = c
		}
	}
	if best == nil {
		return 0, 0
	}
	return best.parent()
}

func (f *tracedFS) record(name, file string, start int64, bytes int64) {
	trace, parent := f.parent(file)
	f.tr.add(span{ID: f.tr.id(), Parent: parent, Trace: trace, Name: name, Start: start, End: f.tr.now(), Note: file, Bytes: bytes})
}

func (f *tracedFS) Open(name string) (fault.File, error) {
	fl, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: fl, name: name, fs: f}, nil
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	start := f.tr.now()
	data, err := f.FS.ReadFile(name)
	f.record(spanFSRead, name, start, int64(len(data)))
	return data, err
}

type tracedFile struct {
	fault.File
	name string
	fs   *tracedFS
}

func (g *tracedFile) Append(p []byte) (int, error) {
	start := g.fs.tr.now()
	n, err := g.File.Append(p)
	g.fs.record(spanFSAppend, g.name, start, int64(n))
	return n, err
}

func (g *tracedFile) Sync() error {
	start := g.fs.tr.now()
	err := g.File.Sync()
	g.fs.record(spanFSSync, g.name, start, 0)
	return err
}

func (g *tracedFile) ReadAll() ([]byte, error) {
	start := g.fs.tr.now()
	data, err := g.File.ReadAll()
	g.fs.record(spanFSRead, g.name, start, int64(len(data)))
	return data, err
}

// relay is a counting loopback TCP relay in front of one shard. The
// coordinator opens one connection per request and sends one frame
// (u32 length | payload | u32 CRC); the shard answers with one frame.
// The relay forwards both, counting bytes and timing the shard's
// service (request forwarded → first response byte) and the response
// transfer (first → last byte).
type relay struct {
	ln     net.Listener
	target string
	tr     *tracer
	cl     *client
	bytes  atomic.Int64
	wg     sync.WaitGroup
}

func startRelay(target string, tr *tracer, cl *client) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, tr: tr, cl: cl}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// close stops accepting and waits for every connection to finish.
func (r *relay) close() {
	r.ln.Close()
	r.wg.Wait()
}

func (r *relay) serve() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handle(c)
		}()
	}
}

func (r *relay) handle(c net.Conn) {
	defer c.Close()
	s, err := net.Dial("tcp", r.target)
	if err != nil {
		return
	}
	defer s.Close()
	deadline := time.Now().Add(30 * time.Second)
	c.SetDeadline(deadline)
	s.SetDeadline(deadline)
	trace, parent := r.cl.parent()

	reqBytes, err := copyFrame(s, c, nil)
	if err != nil {
		return
	}
	sent := r.tr.now()
	var first int64
	respBytes, err := copyFrame(c, s, func() { first = r.tr.now() })
	if err != nil {
		return
	}
	last := r.tr.now()
	r.bytes.Add(reqBytes + respBytes)
	r.tr.add(span{ID: r.tr.id(), Parent: parent, Trace: trace, Name: spanRelayServe, Start: sent, End: first, Note: r.target, Bytes: reqBytes})
	r.tr.add(span{ID: r.tr.id(), Parent: parent, Trace: trace, Name: spanRelayXfer, Start: first, End: last, Note: r.target, Bytes: respBytes})
}

// copyFrame streams one wire frame from src to dst and returns its
// size. onHeader, when set, runs once the frame's first bytes arrive.
func copyFrame(dst io.Writer, src io.Reader, onHeader func()) (int64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		return 0, err
	}
	if onHeader != nil {
		onHeader()
	}
	if _, err := dst.Write(hdr[:]); err != nil {
		return 0, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:])) + 4 // payload + CRC
	if _, err := io.CopyN(dst, src, n); err != nil {
		return 0, err
	}
	return 4 + n, nil
}
