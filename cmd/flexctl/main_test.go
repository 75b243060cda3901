package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexmeasures/internal/flexoffer"
)

// writeFixture writes a small document with the paper's Figure 1 offer
// and the mixed f6, returning its path.
func writeFixture(t *testing.T) string {
	t.Helper()
	fig1, err := flexoffer.New(1, 6,
		flexoffer.Slice{Min: 1, Max: 3}, flexoffer.Slice{Min: 2, Max: 4},
		flexoffer.Slice{Min: 0, Max: 5}, flexoffer.Slice{Min: 0, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	fig1.ID = "figure-1"
	f6, err := flexoffer.New(0, 2,
		flexoffer.Slice{Min: -1, Max: 2}, flexoffer.Slice{Min: -4, Max: -1},
		flexoffer.Slice{Min: -3, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	f6.ID = "f6"
	path := filepath.Join(t.TempDir(), "offers.json")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := flexoffer.Encode(out, []*flexoffer.FlexOffer{fig1, f6}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"validate", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 valid flex-offers") ||
		!strings.Contains(buf.String(), "1 mixed") {
		t.Errorf("unexpected output: %q", buf.String())
	}
}

func TestMeasureSubcommandAllMeasures(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"measure", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Figure 1's product flexibility is 60; f6's area measures are n/a
	// only in the sense of mixed support, but still computable.
	if !strings.Contains(out, "figure-1") || !strings.Contains(out, "60") {
		t.Errorf("missing figure-1 row:\n%s", out)
	}
	if !strings.Contains(out, "SET") {
		t.Errorf("missing set row:\n%s", out)
	}
}

func TestMeasureSubcommandSingleMeasure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"measure", "-m", "assignments", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "240") { // f6's count
		t.Errorf("assignments column missing:\n%s", buf.String())
	}
	if err := run([]string{"measure", "-m", "bogus", writeFixture(t)}, &bytes.Buffer{}); err == nil {
		t.Error("unknown measure must fail")
	}
}

func TestRenderSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"render", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "░") {
		t.Errorf("no profile rendering:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"render", "-area", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "|⋃area|=24 cells") {
		t.Errorf("f6 area missing:\n%s", buf.String())
	}
}

func TestEnumerateSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"enumerate", "-limit", "10", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "truncated at 10") {
		t.Errorf("limit not applied:\n%s", out)
	}
	if !strings.Contains(out, "240 assignments") {
		t.Errorf("Definition 8 count missing:\n%s", out)
	}
}

func TestAggregateSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"aggregate", "-est", "24", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 offers → 1 aggregates") {
		t.Errorf("aggregation summary wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"aggregate", "-balance", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aggregates") {
		t.Errorf("balance aggregation output wrong:\n%s", buf.String())
	}
}

// TestAggregateSubcommandParallel checks that -workers changes nothing
// about the output: the parallel pipeline is byte-identical to serial.
func TestAggregateSubcommandParallel(t *testing.T) {
	path := writeFixture(t)
	var serial, parallel bytes.Buffer
	if err := run([]string{"aggregate", "-est", "24", "-workers", "1", path}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"aggregate", "-est", "24", "-workers", "4", path}, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallel output differs from serial:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
	parallel.Reset()
	if err := run([]string{"aggregate", "-balance", "-workers", "4", path}, &parallel); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(parallel.String(), "aggregates") {
		t.Errorf("balance aggregation with workers wrong:\n%s", parallel.String())
	}
}

func TestScheduleSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"schedule", "-horizon", "12", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "imbalance (L1)") {
		t.Errorf("schedule output wrong:\n%s", buf.String())
	}
}

func TestScheduleSubcommandPipeline(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"schedule", "-pipeline", "-workers", "2", "-horizon", "12", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "prosumer assignments") || !strings.Contains(out, "imbalance (L1)") {
		t.Errorf("pipeline schedule output wrong:\n%s", out)
	}
	// Both offers must come out the other end of disaggregation.
	if !strings.Contains(out, "2 prosumer assignments") {
		t.Errorf("expected 2 prosumer assignments:\n%s", out)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Error("no args must fail with usage")
	}
	if err := run([]string{"bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown subcommand must fail")
	}
	if err := run([]string{"validate", "does-not-exist.json"}, &bytes.Buffer{}); err == nil {
		t.Error("missing file must fail")
	}
	if err := run([]string{"validate"}, &bytes.Buffer{}); err == nil {
		t.Error("missing operand must fail")
	}
}

func TestRefineSubcommand(t *testing.T) {
	var buf bytes.Buffer
	// Figure 1 amounts are not divisible by 2, so refine must fail…
	if err := run([]string{"refine", "-k", "2", writeFixture(t)}, &buf); err == nil {
		t.Fatal("odd amounts must fail to refine")
	}
	// …while k=1 passes through unchanged.
	buf.Reset()
	if err := run([]string{"refine", "-k", "1", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	offers, err := flexoffer.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("refine emitted %d offers", len(offers))
	}
}

func TestTightenSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"tighten", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bits lost") {
		t.Errorf("report missing:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"tighten", "-json", writeFixture(t)}, &buf); err != nil {
		t.Fatal(err)
	}
	offers, err := flexoffer.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range offers {
		if f.SumMin() != f.TotalMin || f.SumMax() != f.TotalMax {
			t.Errorf("offer %s not slice-bounded after tighten", f.ID)
		}
	}
}

func TestTable1Subcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Captures Mixed flex-offers") ||
		!strings.Contains(out, "all behavioural cells verified by probing") {
		t.Errorf("table1 output wrong:\n%s", out)
	}
	buf.Reset()
	if err := run([]string{"table1", "-extensions"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "entropy") || !strings.Contains(buf.String(), "displacement") {
		t.Errorf("extension columns missing:\n%s", buf.String())
	}
}
