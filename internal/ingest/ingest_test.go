package ingest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	stdiotest "testing/iotest"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/pool"
	"flexmeasures/internal/workload"
)

// encodeNDJSON builds a reproducible NDJSON stream of n synthetic
// offers.
func encodeNDJSON(t *testing.T, seed int64, n int) ([]byte, []*flexoffer.FlexOffer) {
	t.Helper()
	offers, err := workload.Population(rand.New(rand.NewSource(seed)), n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, offers); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), offers
}

// DecodeNDJSONSerial is the one-goroutine reference decoder: a plain
// line-by-line loop with no blocks, no shards and no pool, decoding
// every record through encoding/json alone (decodeJSON). It is the
// oracle the sharded path and its schema decoder are tested against,
// and the baseline BenchmarkDecodeNDJSONSerial measures them against.
func DecodeNDJSONSerial(r io.Reader, mode ErrorMode) ([]*flexoffer.FlexOffer, error) {
	br := bufio.NewReader(r)
	var (
		out  []*flexoffer.FlexOffer
		errs RecordErrors
		rec  int
		ln   int
	)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("ingest: reading line %d: %w", ln+1, rerr)
		}
		if len(line) > 0 {
			ln++
			if trimmed := trimLine(line); len(trimmed) > 0 {
				f, err := decodeJSON(trimmed)
				if err != nil {
					re := &RecordError{Record: rec, Line: ln, Err: err}
					if mode == FirstError {
						return nil, re
					}
					errs = append(errs, re)
				} else if len(errs) == 0 {
					out = append(out, f)
				}
				rec++
			}
		}
		if rerr == io.EOF {
			break
		}
	}
	if len(errs) > 0 {
		return nil, errs
	}
	return out, nil
}

// TestShardedMatchesSerial is the tentpole equivalence property: for
// every worker count and block size, the sharded decode produces
// exactly the serial decode's offers — which in turn round-trip the
// encoded population.
func TestShardedMatchesSerial(t *testing.T) {
	data, offers := encodeNDJSON(t, 7, 500)
	want, err := DecodeNDJSONSerial(bytes.NewReader(data), FirstError)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(offers) {
		t.Fatalf("serial decoded %d of %d offers", len(want), len(offers))
	}
	for i := range offers {
		if !want[i].Equal(offers[i]) {
			t.Fatalf("serial offer %d does not round-trip", i)
		}
	}
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, block := range []int{1, 64, 257, 4 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("workers=%d block=%d", workers, block), func(t *testing.T) {
				got, err := DecodeNDJSON(context.Background(), bytes.NewReader(data),
					Params{Workers: workers, BlockBytes: block})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sharded decode diverged from serial (%d vs %d offers)", len(got), len(want))
				}
			})
		}
	}
}

// TestShardedOnPersistentPool proves the engine-pool execution model
// decodes identically to per-call spin-up.
func TestShardedOnPersistentPool(t *testing.T) {
	data, _ := encodeNDJSON(t, 11, 300)
	want, err := DecodeNDJSONSerial(bytes.NewReader(data), FirstError)
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(4)
	defer p.Close()
	got, err := DecodeNDJSON(context.Background(), bytes.NewReader(data),
		Params{Workers: 4, BlockBytes: 2048, Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pool-backed decode diverged from serial")
	}
}

// corrupt returns the stream with record rec's line replaced.
func corrupt(t *testing.T, data []byte, rec int, line string) []byte {
	t.Helper()
	lines := strings.Split(string(data), "\n")
	n := 0
	for i, l := range lines {
		if strings.TrimSpace(l) == "" {
			continue
		}
		if n == rec {
			lines[i] = line
			return []byte(strings.Join(lines, "\n"))
		}
		n++
	}
	t.Fatalf("stream has no record %d", rec)
	return nil
}

// TestMalformedRecordFirstError pins per-record error reporting: the
// sharded decode fails with a *RecordError naming the same record and
// line as the serial oracle, for every worker count.
func TestMalformedRecordFirstError(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"syntax", `{"earliestStart":`},
		{"unknown field", `{"earliestStart":0,"latestStart":1,"slices":[{"min":0,"max":1}],"totalMin":0,"totalMax":1,"bogus":9}`},
		{"invalid offer", `{"earliestStart":3,"latestStart":1,"slices":[{"min":0,"max":1}],"totalMin":0,"totalMax":1}`},
		{"trailing data", `{"earliestStart":0,"latestStart":1,"slices":[{"min":0,"max":1}],"totalMin":0,"totalMax":1} {"x":1}`},
	}
	data, _ := encodeNDJSON(t, 3, 120)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := corrupt(t, data, 57, c.line)
			_, serr := DecodeNDJSONSerial(bytes.NewReader(bad), FirstError)
			var want *RecordError
			if !errors.As(serr, &want) {
				t.Fatalf("serial error is %T, want *RecordError", serr)
			}
			if want.Record != 57 {
				t.Fatalf("serial failure at record %d, want 57", want.Record)
			}
			for _, workers := range []int{1, 3, 8} {
				_, err := DecodeNDJSON(context.Background(), bytes.NewReader(bad),
					Params{Workers: workers, BlockBytes: 512})
				var got *RecordError
				if !errors.As(err, &got) {
					t.Fatalf("workers=%d: error is %T (%v), want *RecordError", workers, err, err)
				}
				if got.Record != want.Record || got.Line != want.Line {
					t.Errorf("workers=%d: failure at record %d line %d, serial says record %d line %d",
						workers, got.Record, got.Line, want.Record, want.Line)
				}
			}
		})
	}
}

// TestFirstErrorDeterministicWithManyFailures pins the stronger
// FirstError guarantee: even with several malformed records in the
// same block, the reported failure is always the lowest-indexed one —
// the same record the serial decoder stops at — for every worker
// count, regardless of which shard happened to fail first.
func TestFirstErrorDeterministicWithManyFailures(t *testing.T) {
	data, _ := encodeNDJSON(t, 19, 150)
	bad := corrupt(t, data, 9, "nonsense")
	bad = corrupt(t, bad, 11, "]")
	bad = corrupt(t, bad, 140, "{")
	_, serr := DecodeNDJSONSerial(bytes.NewReader(bad), FirstError)
	var want *RecordError
	if !errors.As(serr, &want) {
		t.Fatalf("serial error is %T", serr)
	}
	if want.Record != 9 {
		t.Fatalf("serial failure at record %d, want 9", want.Record)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for round := 0; round < 20; round++ {
			_, err := DecodeNDJSON(context.Background(), bytes.NewReader(bad),
				Params{Workers: workers, BlockBytes: 1 << 20})
			var got *RecordError
			if !errors.As(err, &got) {
				t.Fatalf("workers=%d: error is %T", workers, err)
			}
			if got.Record != want.Record || got.Line != want.Line {
				t.Fatalf("workers=%d round=%d: reported record %d line %d, serial says record %d line %d",
					workers, round, got.Record, got.Line, want.Record, want.Line)
			}
		}
	}
}

// TestMalformedRecordsCollectAll pins the collect-all report: every
// failing record appears, sorted, identical to the serial oracle for
// every worker count and block size — including the failure spread
// across multiple blocks.
func TestMalformedRecordsCollectAll(t *testing.T) {
	data, _ := encodeNDJSON(t, 5, 200)
	bad := corrupt(t, data, 10, "nonsense")
	bad = corrupt(t, bad, 100, `{"earliestStart":5,"latestStart":2,"slices":[{"min":0,"max":1}],"totalMin":0,"totalMax":1}`)
	bad = corrupt(t, bad, 199, `[1,2`)
	_, serr := DecodeNDJSONSerial(bytes.NewReader(bad), CollectAll)
	var want RecordErrors
	if !errors.As(serr, &want) {
		t.Fatalf("serial error is %T, want RecordErrors", serr)
	}
	if len(want) != 3 {
		t.Fatalf("serial collected %d failures, want 3", len(want))
	}
	for _, workers := range []int{1, 2, 5} {
		for _, block := range []int{128, 1 << 20} {
			_, err := DecodeNDJSON(context.Background(), bytes.NewReader(bad),
				Params{Workers: workers, BlockBytes: block, ErrorMode: CollectAll})
			var got RecordErrors
			if !errors.As(err, &got) {
				t.Fatalf("workers=%d block=%d: error is %T, want RecordErrors", workers, block, err)
			}
			if !reflect.DeepEqual(errorKeys(got), errorKeys(want)) {
				t.Errorf("workers=%d block=%d: failures %v, serial says %v",
					workers, block, errorKeys(got), errorKeys(want))
			}
		}
	}
}

func errorKeys(es RecordErrors) [][2]int {
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.Record, e.Line}
	}
	return out
}

// TestBlankLinesAndCRLF: records separated by blank lines and CRLF
// decode identically on both paths, and line numbers count the blanks.
func TestBlankLinesAndCRLF(t *testing.T) {
	good := `{"earliestStart":0,"latestStart":2,"slices":[{"min":1,"max":3}],"totalMin":1,"totalMax":3}`
	stream := good + "\r\n\r\n  \r\n" + good + "\r\n\r\nbroken\r\n"
	_, serr := DecodeNDJSONSerial(strings.NewReader(stream), FirstError)
	var want *RecordError
	if !errors.As(serr, &want) {
		t.Fatalf("serial error is %T", serr)
	}
	if want.Record != 2 || want.Line != 6 {
		t.Fatalf("serial failure at record %d line %d, want record 2 line 6", want.Record, want.Line)
	}
	_, err := DecodeNDJSON(context.Background(), strings.NewReader(stream),
		Params{Workers: 3, BlockBytes: 16})
	var got *RecordError
	if !errors.As(err, &got) {
		t.Fatalf("sharded error is %T", err)
	}
	if got.Record != want.Record || got.Line != want.Line {
		t.Errorf("sharded failure at record %d line %d, serial says record %d line %d",
			got.Record, got.Line, want.Record, want.Line)
	}

	ok, err := DecodeNDJSON(context.Background(), strings.NewReader(good+"\r\n\r\n"+good+"\n"),
		Params{Workers: 2, BlockBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 2 {
		t.Fatalf("decoded %d records, want 2", len(ok))
	}
}

// TestRecordLargerThanBlock: a single record bigger than the block
// still decodes whole.
func TestRecordLargerThanBlock(t *testing.T) {
	slices := make([]flexoffer.Slice, 400)
	for i := range slices {
		slices[i] = flexoffer.Slice{Min: int64(i), Max: int64(i + 3)}
	}
	big := flexoffer.MustNew(0, 4, slices...)
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, []*flexoffer.FlexOffer{big, big}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNDJSON(context.Background(), bytes.NewReader(buf.Bytes()),
		Params{Workers: 2, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(big) || !got[1].Equal(big) {
		t.Fatal("oversized records did not round-trip")
	}
}

// fullBlocks is the block split readBlock must keep: each block one
// io.ReadFull of size bytes, extended through the end of its last
// line.
func fullBlocks(t *testing.T, r io.Reader, size int) []string {
	t.Helper()
	br := bufio.NewReader(r)
	var blocks []string
	for {
		buf := make([]byte, size)
		n, err := io.ReadFull(br, buf)
		data := buf[:n]
		if err == nil && data[n-1] != '\n' {
			rest, lerr := br.ReadBytes('\n')
			data = append(data, rest...)
			err = lerr
		}
		if len(data) > 0 {
			blocks = append(blocks, string(data))
		}
		if err != nil {
			return blocks
		}
	}
}

// TestReadBlockSplitsAsFullReads: the growing block buffer splits a
// stream into the same blocks as one full-size read per block, for
// block sizes below, at and past the buffer's first size, whether the
// reader returns whole chunks or one byte at a time.
func TestReadBlockSplitsAsFullReads(t *testing.T) {
	data, _ := encodeNDJSON(t, 11, 300)
	for _, size := range []int{1, 64, startBytes - 1, startBytes, startBytes + 1, 3*startBytes + 7, 1 << 20} {
		want := fullBlocks(t, bytes.NewReader(data), size)
		for name, r := range map[string]io.Reader{
			"chunks":   bytes.NewReader(data),
			"one-byte": stdiotest.OneByteReader(bytes.NewReader(data)),
		} {
			br := bufio.NewReaderSize(r, min(size, readerBytes))
			var buf []byte
			var got []string
			for {
				block, _, _, err := readBlock(br, &buf, size)
				if err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if len(block) > 0 {
					got = append(got, string(block))
				}
				if cap(buf) > size {
					t.Fatalf("size %d %s: buffer grew to %d", size, name, cap(buf))
				}
				if err == io.EOF {
					break
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d %s: %d blocks, want %d as full reads split them", size, name, len(got), len(want))
			}
		}
	}
}

// TestReadBlockKeptBufferSplitsAsFullReads: a buffer kept from an
// earlier call, larger than the block size, still splits the stream
// into blocks of the requested size.
func TestReadBlockKeptBufferSplitsAsFullReads(t *testing.T) {
	data, _ := encodeNDJSON(t, 11, 300)
	for _, size := range []int{64, startBytes + 1, 3*startBytes + 7} {
		want := fullBlocks(t, bytes.NewReader(data), size)
		br := bufio.NewReaderSize(bytes.NewReader(data), min(size, readerBytes))
		buf := make([]byte, 0, keptBlockBytes)
		var got []string
		for {
			block, _, _, err := readBlock(br, &buf, size)
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if len(block) > 0 {
				got = append(got, string(block))
			}
			if err == io.EOF {
				break
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: %d blocks, want %d as full reads split them", size, len(got), len(want))
		}
	}
}

// TestDecodeAllocatesForTheBody: a 25-offer body costs allocations on
// the scale of the body, not of the 1 MiB default block.
func TestDecodeAllocatesForTheBody(t *testing.T) {
	data, _ := encodeNDJSON(t, 13, 25)
	decode := func() {
		if _, err := DecodeNDJSON(context.Background(), bytes.NewReader(data), Params{}); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 128<<10 {
		t.Fatalf("decoding a %d-byte body allocates %d bytes per call, want < 128 KiB", len(data), per)
	}
}

// TestEmptyStream: no records is success, not an error.
func TestEmptyStream(t *testing.T) {
	for _, in := range []string{"", "\n", "\r\n  \n\n"} {
		got, err := DecodeNDJSON(context.Background(), strings.NewReader(in), Params{Workers: 2})
		if err != nil {
			t.Fatalf("input %q: %v", in, err)
		}
		if len(got) != 0 {
			t.Fatalf("input %q: decoded %d records", in, len(got))
		}
	}
}

// cancelReader cancels a context after delivering n bytes, then keeps
// serving the stream — the decode must notice and abort.
type cancelReader struct {
	r      io.Reader
	cancel context.CancelFunc
	after  int
	read   int
}

func (c *cancelReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	if c.read >= c.after && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

// TestMidStreamCancel: cancellation during decode returns ctx.Err()
// promptly rather than decoding the remainder of the stream.
func TestMidStreamCancel(t *testing.T) {
	data, _ := encodeNDJSON(t, 13, 400)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr := &cancelReader{r: bytes.NewReader(data), cancel: cancel, after: len(data) / 4}
	_, err := DecodeNDJSON(ctx, cr, Params{Workers: 3, BlockBytes: 1024})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestPreCancelled: an already-cancelled context never touches the
// reader.
func TestPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DecodeNDJSON(ctx, iotest{}, Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

type iotest struct{}

func (iotest) Read([]byte) (int, error) {
	panic("reader must not be touched after cancellation")
}

// TestReaderErrorPropagates: a mid-stream transport error surfaces as
// an error, not a truncated success.
func TestReaderErrorPropagates(t *testing.T) {
	data, _ := encodeNDJSON(t, 17, 50)
	broken := io.MultiReader(bytes.NewReader(data[:len(data)/2]), errReader{})
	_, err := DecodeNDJSON(context.Background(), broken, Params{Workers: 2, BlockBytes: 1 << 20})
	if err == nil || errors.As(err, new(*RecordError)) {
		t.Fatalf("got %v, want a transport error", err)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// benchData is the shared encoded population for the decode
// benchmarks.
func benchData(b *testing.B) []byte {
	b.Helper()
	offers, err := workload.Population(rand.New(rand.NewSource(99)), 2000, 3, workload.DefaultMix())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, offers); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkDecodeNDJSONSerial(b *testing.B) {
	data := benchData(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeNDJSONSerial(bytes.NewReader(data), FirstError); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeNDJSONSharded(b *testing.B) {
	data := benchData(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeNDJSON(context.Background(), bytes.NewReader(data), Params{}); err != nil {
			b.Fatal(err)
		}
	}
}
