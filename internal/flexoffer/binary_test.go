package flexoffer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	offers := []*FlexOffer{
		paperF(t),
		MustNew(0, 2, Slice{-1, 2}, Slice{-4, -1}, Slice{-3, 1}),
	}
	offers[0].ID = "figure-1"
	tight, err := NewWithTotals(3, 9, []Slice{{0, 10}, {0, 10}}, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	offers = append(offers, tight)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, offers); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(offers) {
		t.Fatalf("decoded %d offers, want %d", len(got), len(offers))
	}
	for i := range offers {
		if !got[i].Equal(offers[i]) {
			t.Errorf("offer %d mismatch:\n got %v\nwant %v", i, got[i], offers[i])
		}
	}
}

func TestBinaryZonedRoundTrip(t *testing.T) {
	offers := []*FlexOffer{
		paperF(t),
		MustNew(0, 2, Slice{-1, 2}, Slice{-4, -1}, Slice{-3, 1}),
		MustNew(5, 8, Slice{1, 3}),
	}
	offers[0].ID, offers[0].Zone = "figure-1", "z03"
	offers[2].Zone = "dk1-west" // zoned but anonymous
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, offers); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("FXO2")) {
		t.Fatalf("zoned stream should carry the FXO2 magic, got %q", buf.Bytes()[:4])
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(offers) {
		t.Fatalf("decoded %d offers, want %d", len(got), len(offers))
	}
	for i := range offers {
		if !got[i].Equal(offers[i]) {
			t.Errorf("offer %d mismatch:\n got %v\nwant %v", i, got[i], offers[i])
		}
	}
}

func TestBinaryZonelessKeepsV1Bytes(t *testing.T) {
	offers := []*FlexOffer{paperF(t), MustNew(1, 4, Slice{0, 2}, Slice{1, 3})}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, offers); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("FXO1")) {
		t.Fatalf("zone-less stream must stay FXO1, got %q", buf.Bytes()[:4])
	}
}

func TestBinaryIsSmallerThanJSON(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	offers := make([]*FlexOffer, 200)
	for i := range offers {
		offers[i] = randomOffer(r)
	}
	var jsonBuf, binBuf bytes.Buffer
	if err := Encode(&jsonBuf, offers); err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(&binBuf, offers); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len()*4 > jsonBuf.Len() {
		t.Errorf("binary %dB not <25%% of JSON %dB", binBuf.Len(), jsonBuf.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad magic":   "NOPE",
		"truncated":   "FXO1\x05",
		"only header": "FXO1",
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeBinary(strings.NewReader(data)); err == nil {
				t.Error("garbage accepted")
			}
		})
	}
}

func TestBinaryRejectsCorruptOffer(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, []*FlexOffer{paperF(t)}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncate mid-offer.
	if _, err := DecodeBinary(bytes.NewReader(data[:len(data)-3])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated offer = %v, want ErrCorrupt", err)
	}
}

func TestBinaryEncodeValidates(t *testing.T) {
	bad := &FlexOffer{EarliestStart: 2, LatestStart: 1, Slices: []Slice{{0, 1}}}
	if err := EncodeBinary(&bytes.Buffer{}, []*FlexOffer{bad}); err == nil {
		t.Fatal("invalid offer must be rejected")
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %d offers, %v", len(got), err)
	}
}

func TestPropertyBinaryRoundTrips(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		offers := make([]*FlexOffer, 1+r.Intn(10))
		for i := range offers {
			offers[i] = randomOffer(r)
			if r.Intn(2) == 0 {
				offers[i].ID = "id-with-ünïcode"
			}
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, offers); err != nil {
			return false
		}
		got, err := DecodeBinary(&buf)
		if err != nil || len(got) != len(offers) {
			return false
		}
		for i := range offers {
			if !got[i].Equal(offers[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBinaryDecodeNeverPanicsOnCorruption(t *testing.T) {
	// Flip, truncate and splice random bytes: DecodeBinary must always
	// return (possibly an error), never panic, and never produce an
	// invalid offer.
	base := func() []byte {
		var buf bytes.Buffer
		offers := []*FlexOffer{
			MustNew(1, 6, Slice{1, 3}, Slice{2, 4}, Slice{0, 5}, Slice{0, 3}),
			MustNew(0, 2, Slice{-1, 2}, Slice{-4, -1}, Slice{-3, 1}),
		}
		if err := EncodeBinary(&buf, offers); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := append([]byte(nil), base...)
		switch r.Intn(3) {
		case 0: // flip a byte
			data[r.Intn(len(data))] ^= byte(1 + r.Intn(255))
		case 1: // truncate
			data = data[:r.Intn(len(data))]
		case 2: // splice garbage
			at := r.Intn(len(data))
			data = append(data[:at:at], byte(r.Intn(256)))
		}
		offers, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return true
		}
		for _, f := range offers {
			if f.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestJSONDecodeNeverPanicsOnCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, []*FlexOffer{MustNew(0, 2, Slice{1, 3})}); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := append([]byte(nil), base...)
		data[r.Intn(len(data))] ^= byte(1 + r.Intn(255))
		offers, err := Decode(bytes.NewReader(data))
		if err != nil {
			return true
		}
		for _, f := range offers {
			if f.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBinaryHostileHeadersBoundAllocation feeds tiny inputs whose size
// headers claim huge counts. Decoding must fail, and must not allocate
// memory in proportion to the claimed count or length: every length is
// checked against the bytes that remain before anything is allocated
// for it, so the allocation stays bounded by the input.
func TestBinaryHostileHeadersBoundAllocation(t *testing.T) {
	uvarint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name   string
		input  []byte
		decode func([]byte) error
	}{
		{
			// FXO1 | count 2^26, then nothing: 8 bytes.
			name:  "stream count",
			input: cat([]byte("FXO1"), uvarint(uint64(maxBinOffers))),
			decode: func(b []byte) error {
				_, err := DecodeBinary(bytes.NewReader(b))
				return err
			},
		},
		{
			// One WAL-style record: FXO1 | count 1 | idLen 0 | tes 0 |
			// tf 0 | 2^20 slices, then nothing: 11 bytes.
			name:  "record slice count",
			input: cat([]byte("FXO1"), uvarint(1), uvarint(0), uvarint(0), uvarint(0), uvarint(uint64(maxBinLen))),
			decode: func(b []byte) error {
				var f FlexOffer
				return f.UnmarshalBinary(b)
			},
		},
		{
			// FXO1 | count 1 | idLen 2^20, then nothing: 8 bytes.
			name:  "record id length",
			input: cat([]byte("FXO1"), uvarint(1), uvarint(uint64(maxBinLen))),
			decode: func(b []byte) error {
				var f FlexOffer
				return f.UnmarshalBinary(b)
			},
		},
		{
			// FXO2 | count 1 | idLen 0 | zoneLen 2^20, then nothing:
			// 9 bytes.
			name:  "record zone length",
			input: cat([]byte("FXO2"), uvarint(1), uvarint(0), uvarint(uint64(maxBinLen))),
			decode: func(b []byte) error {
				var f FlexOffer
				return f.UnmarshalBinary(b)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(tc.input)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%d-byte input: got %v, want ErrCorrupt", len(tc.input), err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Fatalf("%d-byte input allocated %d bytes, want under 1 MiB", len(tc.input), d)
			}
		})
	}
}

// TestUnmarshalBinaryFailureLeavesReceiver pins that a failed decode
// does not half-overwrite the receiver.
func TestUnmarshalBinaryFailureLeavesReceiver(t *testing.T) {
	src := MustNew(2, 6, Slice{1, 3}, Slice{0, 4})
	src.ID, src.Zone = "kept", "z01"
	enc, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	other := MustNew(0, 1, Slice{5, 9})
	other.ID = "other"
	for cut := 0; cut < len(enc); cut++ {
		f := *src
		if err := f.UnmarshalBinary(append(enc[:cut:cut], 0xff)); err == nil {
			t.Fatalf("cut %d: corrupt record accepted", cut)
		}
		if !reflect.DeepEqual(&f, src) {
			t.Fatalf("cut %d: failed decode changed the receiver to %+v", cut, f)
		}
	}
	f := *other
	if err := f.UnmarshalBinary(enc); err != nil || !reflect.DeepEqual(&f, src) {
		t.Fatalf("decode into a used receiver gave %+v, %v", f, err)
	}
}

// TestAppendBinaryAppends pins the encoding.BinaryAppender contract:
// the record lands after the existing bytes, which stay untouched.
func TestAppendBinaryAppends(t *testing.T) {
	f := MustNew(1, 4, Slice{-2, 3}, Slice{0, 1})
	f.ID = "appended"
	want, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := f.AppendBinary(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("AppendBinary = %q, want %q + %q", got, prefix, want)
	}
	bad := &FlexOffer{EarliestStart: 3, LatestStart: 1, Slices: []Slice{{0, 1}}}
	if out, err := bad.AppendBinary(prefix); err == nil || !bytes.Equal(out, prefix) {
		t.Fatalf("invalid offer: AppendBinary = %q, %v; want the input back and an error", out, err)
	}
}
