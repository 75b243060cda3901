package flexoffer

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// errClass maps a codec error to its sentinel, so the slice codec and
// the oracle can be compared by failure kind rather than message text.
func errClass(err error) error {
	for _, class := range []error{ErrBadMagic, ErrTooLarge, ErrCorrupt} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// FuzzUnmarshalBinary runs the slice codec differentially against the
// reader-based oracle (binary_oracle_test.go) on arbitrary bytes: both
// must accept the same inputs, fail with the same error class and
// decode deeply equal offers, and a decoded offer must survive a
// MarshalBinary round trip. The whole-stream decoders are held to the
// same contract on the same bytes. The seed corpus lives in
// testdata/fuzz/FuzzUnmarshalBinary.
func FuzzUnmarshalBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := oracleUnmarshalBinary(data)
		var got FlexOffer
		gerr := got.UnmarshalBinary(data)
		if errClass(gerr) != errClass(werr) {
			t.Fatalf("UnmarshalBinary(%q) = %v, oracle %v", data, gerr, werr)
		}
		if werr == nil {
			if !reflect.DeepEqual(&got, want) {
				t.Fatalf("UnmarshalBinary(%q) decoded %+v, oracle %+v", data, got, *want)
			}
			enc, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("re-encoding a decoded offer: %v", err)
			}
			var back FlexOffer
			if err := back.UnmarshalBinary(enc); err != nil || !reflect.DeepEqual(back, got) {
				t.Fatalf("round trip of %+v gave %+v, %v", got, back, err)
			}
		}

		wantAll, werr := oracleDecodeBinary(bytes.NewReader(data))
		gotAll, gerr := DecodeBinary(bytes.NewReader(data))
		if errClass(gerr) != errClass(werr) {
			t.Fatalf("DecodeBinary(%q) = %v, oracle %v", data, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(gotAll, wantAll) {
			t.Fatalf("DecodeBinary(%q) decoded %v, oracle %v", data, gotAll, wantAll)
		}
	})
}
