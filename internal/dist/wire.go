// Package dist is the coordinator/shard execution layer: the paper's
// 16-node PDW and sharded-Mongo clusters shrunk to localhost processes.
// lineitem and orders are hash-partitioned by orderkey into per-process
// RCF5 shards (internal/shard routing, one internal/htap store each);
// the coordinator scatters scans and query fragments over TCP and
// merges the partials deterministically, so all 22 golden answers stay
// byte-identical at any shard count.
//
// Robustness is the contract, not a bolt-on: every fragment carries a
// deadline in the wire protocol, every call retries with exponential
// backoff and seeded jitter, per-shard circuit breakers fail fast while
// health probes watch for recovery, and a query against a dead shard
// either retries to success after the shard restarts (replaying its
// delta log via htap.Open) or returns a typed ErrPartial — never a
// silently wrong answer.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"elephants/internal/relal"
)

// Wire ops.
const (
	// OpScan returns the shard's partition of a base table, restricted
	// to the requested columns (plus the hidden _pos position column)
	// with zone-pruned row groups dropped.
	OpScan = iota
	// OpFragment runs a registered tpch.Fragment partial plan on the
	// shard and returns the grouped partial aggregate.
	OpFragment
	// OpHealth is the probe: cheap, no data plane, returns the shard's
	// delta-log positions so callers can assert recovery completeness.
	OpHealth
)

// Request is one coordinator→shard message.
type Request struct {
	Op    int
	Table string
	Cols  []string
	Pred  relal.ZonePredicate
	// FragID selects the tpch.Fragments entry for OpFragment.
	FragID int
	// DeadlineMS is the fragment's remaining time budget in
	// milliseconds; the shard arms its connection deadline with it so a
	// stalled peer can never wedge a shard goroutine past the budget.
	DeadlineMS int64
}

// Response is one shard→coordinator message. On the wire it is
// u32 header length | gob header | vector body: the gob header carries
// the fields below and the body carries the result table as raw column
// vectors (vecwire.go), kept out of gob so it is never copied.
type Response struct {
	// Err, when non-empty, is the shard-side failure; the payload
	// fields are meaningless.
	Err string
	// Shard echoes the responding shard's index.
	Shard int
	// Schema and Rows describe the result table the body encodes.
	Schema relal.Schema
	Rows   int
	// Stats is the shard-local scan accounting (OpScan only).
	Stats relal.ScanStats
	// NextPos maps held tables to their next delta-log position
	// (OpHealth only) — the recovery-completeness witness.
	NextPos map[string]int64

	// body is the encoded result table, a subslice of the payload
	// DecodeResponse was given (empty when no table was sent).
	body []byte
}

// maxFrame bounds a frame payload; anything larger is a protocol error,
// not a real message (a full SF-0.005 lineitem scan, every column plus
// _pos as raw vectors, is about 4.0 MB — 64× under the bound).
const maxFrame = 1 << 28

// WriteFrame writes one length-framed, CRC-trailed message:
// u32 payload length | payload | u32 CRC-32 (IEEE) of the payload —
// the delta log's framing, reused on the wire so a truncated or
// bit-flipped message is detected, never decoded.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(hdr[:])
	return err
}

// ReadFrame reads one frame, verifying length and checksum.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dist: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[:]); got != want {
		return nil, fmt.Errorf("dist: frame checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}

// EncodeRequest gob-encodes a request for framing.
func EncodeRequest(req Request) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRequest inverts EncodeRequest.
func DecodeRequest(data []byte) (Request, error) {
	var req Request
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req)
	return req, err
}

// EncodeResponse encodes resp, plus t as its vector body when t is
// non-nil (Schema and Rows are then taken from t). The payload is
// built in one buffer of exactly its final size.
func EncodeResponse(resp Response, t *relal.Table) ([]byte, error) {
	if t != nil {
		t = t.Compacted()
		resp.Schema, resp.Rows = t.Schema, t.NumRows()
	}
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(resp); err != nil {
		return nil, err
	}
	size := 4 + hdr.Len()
	if t != nil {
		size += vectorsSize(t)
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(hdr.Len()))
	out = append(out, hdr.Bytes()...)
	if t != nil {
		out = appendVectors(out, t)
	}
	return out, nil
}

// DecodeResponse inverts EncodeResponse. The body stays a subslice of
// data; decodeTable turns it into a table.
func DecodeResponse(data []byte) (Response, error) {
	var resp Response
	if len(data) < 4 {
		return resp, fmt.Errorf("dist: response of %d bytes has no header length", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-4) {
		return resp, fmt.Errorf("dist: response header of %d bytes overruns a %d-byte payload", n, len(data))
	}
	if err := gob.NewDecoder(bytes.NewReader(data[4 : 4+n])).Decode(&resp); err != nil {
		return resp, err
	}
	resp.body = data[4+n:]
	return resp, nil
}
