package flexoffer_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/workload"
)

// TestEncodeBinaryMatchesOracle pins the append-style encoder to the
// bytes of the bufio encoder it replaced (the oracle in
// binary_oracle_test.go) over workload fleets, zone-less (FXO1) and
// zoned (FXO2): the whole stream, and every offer's one-offer record
// as the WAL frames it.
func TestEncodeBinaryMatchesOracle(t *testing.T) {
	for _, zones := range []int{0, 6} {
		t.Run(fmt.Sprintf("zones=%d", zones), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(11 + zones)))
			offers, err := workload.Population(r, 3000, 3, workload.DefaultMix())
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range offers {
				if i%5 != 0 { // some anonymous offers
					f.ID = fmt.Sprintf("w%d-%05d", zones, i)
				}
			}
			if zones > 0 {
				workload.StampZones(r, offers, zones)
				offers[1].Zone = "" // one zone-less offer inside an FXO2 stream
			}
			var got, want bytes.Buffer
			if err := flexoffer.EncodeBinary(&got, offers); err != nil {
				t.Fatal(err)
			}
			if err := flexoffer.OracleEncodeBinary(&want, offers); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("EncodeBinary: %d bytes differ from the oracle's %d", got.Len(), want.Len())
			}
			for i, f := range offers {
				rec, err := f.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var one bytes.Buffer
				if err := flexoffer.OracleEncodeBinary(&one, []*flexoffer.FlexOffer{f}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rec, one.Bytes()) {
					t.Fatalf("offer %d: MarshalBinary %x, oracle %x", i, rec, one.Bytes())
				}
			}
		})
	}
}
