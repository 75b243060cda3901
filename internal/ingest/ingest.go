// Package ingest decodes NDJSON flex-offer streams with the decode work
// sharded across a worker pool: the ingestion substrate of the flexd
// service.
//
// The wire format is NDJSON: one JSON flex-offer per line (the format
// flexoffer.EncodeNDJSON writes). DecodeNDJSON reads the stream in
// bounded blocks, splits each block into runs of whole lines, and fans
// the runs out across an Executor — the Engine's persistent pool in the
// flexd service, per-call goroutine spin-up otherwise. Each line is
// decoded by a schema decoder written for the one FlexOffer schema: a
// single pass with no reflection that allocates the offer, its exactly
// sized slices and its strings. It accepts only lines encoding/json
// would decode to the same offer and hands every other line (escapes,
// case-folded or unknown keys, duplicate keys, null, non-integer or
// overlong numbers, trailing data) to encoding/json, so every decode
// error comes from encoding/json. Decoded offers land in per-record
// slots, so reassembly order is the input record order no matter which
// worker decoded what, and the output is the same for every worker
// count and block size (the equivalence tests pin both against a
// serial encoding/json decode).
//
// Failures are reported per record in the style of the aggregation
// pipeline's GroupError: a RecordError identifies the failing record by
// record index and physical line number, and ErrorMode selects
// first-error or collect-all reporting. Because the stream is consumed
// block by block, a service ingesting from a network connection gets
// natural backpressure: bytes are read only as fast as they are
// decoded.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/pool"
)

// ErrorMode selects first-error or collect-all failure reporting,
// mirroring (and aliasing) the aggregation pipeline's modes so one
// enum spans the whole offer path.
type ErrorMode = aggregate.ErrorMode

// ErrorMode values.
const (
	FirstError = aggregate.FirstError
	CollectAll = aggregate.CollectAll
)

// ErrTrailingData reports non-whitespace content after a record's JSON
// value on the same line — two objects on one line, or garbage after a
// valid object. All such failures wrap this sentinel.
var ErrTrailingData = errors.New("ingest: trailing data after record")

// Params controls the sharded decode. The zero value decodes with one
// goroutine per logical CPU, 1 MiB blocks and FirstError reporting.
type Params struct {
	// Workers is the number of concurrent decode shards; values below 1
	// mean runtime.GOMAXPROCS(0). When Pool is set, Workers instead caps
	// this call's share of the pool.
	Workers int
	// BlockBytes is the target number of bytes read and sharded per
	// round (the block always extends to the end of its last line, so a
	// record larger than the block still decodes). Values below 1 pick
	// 1 MiB. Smaller blocks bound memory and tighten backpressure;
	// larger blocks amortize the per-round fan-out.
	BlockBytes int
	// ErrorMode selects first-error or collect-all failure reporting.
	ErrorMode ErrorMode
	// Pool, when non-nil, submits the decode shards to a persistent
	// executor (the Engine's worker pool) instead of spawning Workers
	// goroutines per block.
	Pool pool.Executor
}

// RecordError reports the failure of one NDJSON record, carrying enough
// context to find it in a million-record stream: the 0-based record
// index (blank lines are not records) and the 1-based physical line
// number.
type RecordError struct {
	// Record is the 0-based index of the failing record.
	Record int
	// Line is the 1-based physical line number of the record.
	Line int
	// Err is the underlying decode or validation error.
	Err error
}

// Error identifies the record and preserves the underlying message.
func (e *RecordError) Error() string {
	return fmt.Sprintf("ingest: record %d (line %d): %v", e.Record, e.Line, e.Err)
}

// Unwrap exposes the underlying error to errors.Is and errors.As.
func (e *RecordError) Unwrap() error { return e.Err }

// RecordErrors is the CollectAll failure report: every failing record's
// error, sorted by record index.
type RecordErrors []*RecordError

// Error summarizes the failure count and lists the first few records.
func (es RecordErrors) Error() string {
	if len(es) == 1 {
		return es[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ingest: %d records failed:", len(es))
	for i, e := range es {
		if i == 4 {
			fmt.Fprintf(&b, " …(%d more)", len(es)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %v", e)
	}
	return b.String()
}

// Unwrap exposes the per-record errors to errors.Is and errors.As.
func (es RecordErrors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// span locates one record inside a block: the byte range of its line
// (CR/LF trimmed) and the physical line offset within the block.
type span struct {
	start, end int
	line       int
}

// DecodeNDJSON reads NDJSON flex-offers from r with the decode work
// sharded under p. The result holds the offers in record order and is
// the same for every worker count and block size. On failure it
// returns a *RecordError (FirstError: always the lowest-indexed
// failing record, regardless of scheduling) or RecordErrors sorted by
// record (CollectAll); a cancelled ctx is honored between blocks and
// between records.
func DecodeNDJSON(ctx context.Context, r io.Reader, p Params) ([]*flexoffer.FlexOffer, error) {
	ctx, sp := obs.Start(ctx, obs.StageIngestDecode)
	defer sp.End()
	blockBytes := p.BlockBytes
	if blockBytes < 1 {
		blockBytes = 1 << 20
	}
	// Reads of a block's chunks bypass the reader's buffer, so it only
	// serves the line extension and stays small.
	br := bufio.NewReaderSize(r, min(blockBytes, readerBytes))
	// One block buffer serves the whole stream: decodeBlock completes
	// before the next read, and everything that outlives a round
	// (offers, error messages) is copied out of it. readBlock grows it
	// to what the stream holds, up to one block, and the next call
	// starts from it.
	buf := blockBufs.Get()
	defer func() {
		if cap(buf) <= keptBlockBytes {
			blockBufs.Put(buf[:0])
		}
	}()
	var (
		out     []*flexoffer.FlexOffer
		all     RecordErrors
		recBase int
		lnBase  int
	)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, spans, nlines, rerr := readBlock(br, &buf, blockBytes)
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("ingest: reading block at record %d: %w", recBase, rerr)
		}
		if len(spans) > 0 {
			offers, errs := decodeBlock(ctx, data, spans, recBase, lnBase, p)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if len(errs) > 0 && p.ErrorMode == FirstError {
				return nil, errs[0]
			}
			all = append(all, errs...)
			if len(all) == 0 {
				out = append(out, offers...)
			}
		}
		recBase += len(spans)
		lnBase += nlines
		if rerr == io.EOF {
			break
		}
	}
	if len(all) > 0 {
		return nil, all
	}
	return out, nil
}

// readerBytes is the size of DecodeNDJSON's read buffer, startBytes
// the block buffer's first size, and keptBlockBytes the largest block
// buffer kept for the next call.
const (
	readerBytes    = 4 << 10
	startBytes     = 16 << 10
	keptBlockBytes = 256 << 10
)

// blockBufs keeps one block buffer between calls, so a steady stream
// of requests reuses one instead of growing a fresh one each. A larger
// buffer (a bulk load's 1 MiB blocks) is dropped rather than kept live.
var blockBufs = pool.NewFree(1, func() []byte { return nil })

// readBlock reads the next block into *buf: size bytes, extended
// through the end of the last line so every record is whole (the
// extension appends, so an oversized final line never clobbers buf for
// the caller's next round). *buf doubles from startBytes only as far
// as the stream fills it, so a short stream costs what it holds, not a
// whole block, and the grown storage serves the next block. It returns
// the block data, the record spans within it, the number of physical
// lines it covers, and io.EOF once the stream is exhausted. A buffer
// larger than size, kept from an earlier call, is filled only to size.
func readBlock(br *bufio.Reader, buf *[]byte, size int) (data []byte, spans []span, lines int, err error) {
	data = (*buf)[:0]
	var rerr error
	for rerr == nil && len(data) < size {
		if len(data) == cap(data) {
			grown := make([]byte, len(data), min(max(2*cap(data), startBytes), size))
			copy(grown, data)
			data = grown
		}
		var n int
		n, rerr = io.ReadFull(br, data[len(data):min(cap(data), size)])
		data = data[:len(data)+n]
	}
	*buf = data[:0]
	switch rerr {
	case nil:
		// Target filled mid-line: extend through the next newline so the
		// block ends on a record boundary. A single record larger than
		// the target grows the block as needed.
		if len(data) > 0 && data[len(data)-1] != '\n' {
			rest, lerr := br.ReadBytes('\n')
			data = append(data, rest...)
			if lerr == io.EOF {
				rerr = io.EOF
			} else if lerr != nil {
				return nil, nil, 0, lerr
			}
		}
	case io.EOF, io.ErrUnexpectedEOF:
		rerr = io.EOF
	default:
		return nil, nil, 0, rerr
	}
	spans, lines = scanLines(data)
	return data, spans, lines, rerr
}

// scanLines splits block data into record spans: one span per
// non-blank line, with trailing CR trimmed (CRLF input) and
// whitespace-only lines skipped (they are not records, matching what a
// stream of json.Encoder outputs plus blank separators decodes to).
func scanLines(data []byte) (spans []span, lines int) {
	spans = make([]span, 0, bytes.Count(data, []byte{'\n'})+1)
	for start := 0; start < len(data); {
		end := bytes.IndexByte(data[start:], '\n')
		var next int
		if end < 0 {
			end = len(data)
			next = end
		} else {
			end += start
			next = end + 1
		}
		lines++
		line := trimLine(data[start:end])
		if len(line) > 0 {
			// Relocate the trimmed line inside data: trimLine only cuts
			// from the ends, so offsets translate directly.
			off := start + leadingSpace(data[start:end])
			spans = append(spans, span{start: off, end: off + len(line), line: lines})
		}
		start = next
	}
	return spans, lines
}

// trimLine cuts JSON whitespace (space, tab, CR) from both ends of a
// line; a line that trims to nothing is not a record.
func trimLine(line []byte) []byte {
	return bytes.Trim(line, " \t\r\n")
}

// leadingSpace returns the number of leading JSON-whitespace bytes.
func leadingSpace(line []byte) int {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	return i
}

// decodeBlock fans the block's records out across the decode shards:
// each shard claims runs of consecutive records (the executor's
// batching) and decodes them with decodeRecord, landing each offer in
// its record's slot, so neither output order nor error attribution
// depends on scheduling. Every record of the block is attempted even
// after a failure — blocks are bounded, and draining the block is what
// makes the FirstError report deterministic: the lowest-indexed
// failure always wins, as a line-by-line decode would report it, no
// matter which shard failed first. (The aggregation pipeline's
// FirstError is scheduling-dependent by documented design; ingest can
// afford the stronger guarantee because a block, unlike an unbounded
// group batch, is at most one BlockBytes read.)
func decodeBlock(ctx context.Context, data []byte, spans []span, recBase, lnBase int, p Params) ([]*flexoffer.FlexOffer, RecordErrors) {
	n := len(spans)
	offers := make([]*flexoffer.FlexOffer, n)
	errSlots := make([]*RecordError, n)
	done := ctx.Done()
	fn := func(i int) {
		select {
		case <-done:
			return
		default:
		}
		f, err := decodeRecord(data[spans[i].start:spans[i].end])
		if err != nil {
			errSlots[i] = &RecordError{Record: recBase + i, Line: lnBase + spans[i].line, Err: err}
			return
		}
		offers[i] = f
	}
	if p.Pool != nil {
		p.Pool.ForEachCtx(ctx, n, p.Workers, 0, fn)
	} else {
		pool.Run(n, p.Workers, 0, fn)
	}
	var errs RecordErrors
	for _, e := range errSlots {
		if e != nil {
			errs = append(errs, e)
		}
	}
	return offers, errs
}

// decodeRecord decodes exactly one flex-offer from one line: unknown
// fields are rejected (matching the document codec), trailing content
// after the value fails with ErrTrailingData, and the offer is
// validated. The schema decoder (parseRecord) takes every line it can
// prove encoding/json decodes to the same offer; it declines the rest,
// which decodeJSON decodes, so every decode error, and every record
// index it is reported under, comes from encoding/json.
func decodeRecord(line []byte) (*flexoffer.FlexOffer, error) {
	f, ok := parseRecord(line)
	if !ok {
		return decodeJSON(line)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeJSON is decodeRecord through encoding/json alone: the fallback
// for the lines the schema decoder declines, and the oracle it is
// tested against. Slices is copied to its exact length when the
// decoder left spare capacity, as the schema decoder allocates it.
func decodeJSON(line []byte) (*flexoffer.FlexOffer, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var f flexoffer.FlexOffer
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if rest := trimLine(line[dec.InputOffset():]); len(rest) > 0 {
		return nil, fmt.Errorf("%w: %q", ErrTrailingData, truncate(rest, 32))
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if cap(f.Slices) > len(f.Slices) {
		f.Slices = append(make([]flexoffer.Slice, 0, len(f.Slices)), f.Slices...)
	}
	return &f, nil
}

// truncate shortens b for error messages.
func truncate(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return append(append([]byte{}, b[:n]...), "…"...)
}
