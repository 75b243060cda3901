package ingest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flexmeasures/internal/flexoffer"
)

// canonical is a record in the form flexoffer.EncodeNDJSON writes.
const canonical = `{"id":"p-00001","zone":"z1","earliestStart":3,"latestStart":9,"slices":[{"min":0,"max":5},{"min":1,"max":2}],"totalMin":1,"totalMax":7}`

// TestSchemaDecoderTakesEncodedLines: the schema decoder accepts every
// line flexoffer.EncodeNDJSON writes, so the encoding/json fallback
// serves only hand-written or hostile input.
func TestSchemaDecoderTakesEncodedLines(t *testing.T) {
	data, offers := encodeNDJSON(t, 23, 400)
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != len(offers) {
		t.Fatalf("%d lines for %d offers", len(lines), len(offers))
	}
	for i, line := range lines {
		f, ok := parseRecord(line)
		if !ok {
			t.Fatalf("line %d declined: %s", i, line)
		}
		if !reflect.DeepEqual(f, offers[i]) || cap(f.Slices) != len(f.Slices) {
			t.Fatalf("line %d decoded to %+v, want %+v", i, f, offers[i])
		}
	}
	// More slices than the decoder's scratch array holds.
	many := `{"slices":[` + strings.Repeat(`{"min":0,"max":1},`, 3*maxStackSlices) + `{}]}`
	for _, line := range []string{
		canonical,
		" \t{ \"earliestStart\" : 0 ,\r\"latestStart\":1, \"slices\" : [ { \"max\" : 2 , \"min\" : -1 } ] } \r\n",
		`{"id":"zoné","totalMax":999999999999999999,"slices":[],"earliestStart":0}`,
		`{}`,
		many,
	} {
		f, ok := parseRecord([]byte(line))
		if !ok {
			t.Errorf("declined %q", line)
			continue
		}
		want, err := decodeJSON([]byte(line))
		if err != nil {
			want = new(flexoffer.FlexOffer) // invalid offers: compare the decode alone
			if jerr := json.Unmarshal([]byte(line), want); jerr != nil {
				t.Fatal(jerr)
			}
		}
		if !reflect.DeepEqual(f, want) || cap(f.Slices) != len(f.Slices) {
			t.Errorf("%q decoded to %+v (cap %d), encoding/json %+v", line, f, cap(f.Slices), want)
		}
	}
}

// TestSchemaDecoderDeclines pins the soundness rule: each of these
// lines goes to encoding/json, whether it then decodes or fails.
func TestSchemaDecoderDeclines(t *testing.T) {
	for _, line := range []string{
		`{"id":"a\"b"}`,
		"{\"id\":\"a\tb\"}",
		"{\"id\":\"\xff\"}",
		`{"id":null}`,
		`{"slices":null}`,
		`{"slices":[null]}`,
		`null`,
		`{"id":"a","id":"b"}`,
		`{"slices":[{"min":1,"min":2}]}`,
		`{"ID":"a"}`,
		`{"Slices":[]}`,
		`{"slices":[{"MIN":1}]}`,
		`{"bogus":1}`,
		`{"earliestStart":1.0}`,
		`{"earliestStart":1e3}`,
		`{"earliestStart":1E3}`,
		`{"earliestStart":-0}`,
		`{"earliestStart":01}`,
		`{"totalMin":1234567890123456789}`,
		`{"totalMin":12345678901234567890}`,
		`{"earliestStart":-}`,
		`{"earliestStart":+1}`,
		`{"earliestStart":"1"}`,
		`{"slices":[{"min":1},]}`,
		`{"slices":[{"min":1,}]}`,
		`{"earliestStart":1,}`,
		`{"earliestStart":1} {"x":1}`,
		`{"earliestStart":1}x`,
		`{"earliestStart":1`,
		`[]`,
		``,
	} {
		if f, ok := parseRecord([]byte(line)); ok {
			t.Errorf("accepted %q as %+v", line, f)
		}
	}
}

// FuzzDecodeRecord is the differential between the record decoder and
// encoding/json: on every line both return deep-equal offers with
// exactly sized slices, or errors with the same text.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(canonical))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gerr := decodeRecord(line)
		want, werr := decodeJSON(line)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: decodeRecord error %v, encoding/json error %v", line, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("%q: decodeRecord error %q, encoding/json error %q", line, gerr, werr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeRecord %+v, encoding/json %+v", line, got, want)
		}
		if cap(got.Slices) != len(got.Slices) || cap(want.Slices) != len(want.Slices) {
			t.Fatalf("%q: slices cap %d/%d for len %d", line, cap(got.Slices), cap(want.Slices), len(got.Slices))
		}
	})
}
