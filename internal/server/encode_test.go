package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	flex "flexmeasures"
)

// reflectEncode is the reference encoding of a wire value: plain
// json.Marshal, which renders every measures cell through
// JSONFloat.MarshalJSON.
func reflectEncode(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestMeasuresEncodingMatchesReflect pins EncodeResponse's append-based
// measures path byte for byte to json.Marshal, over the float edge
// cases (non-finite values, signed zeros, both sides of the 'e'-format
// thresholds, subnormals, MaxFloat64), empty and nil rows and columns,
// names that need escaping, and a real table.
func TestMeasuresEncodingMatchesReflect(t *testing.T) {
	edge := []JSONFloat{
		JSONFloat(math.NaN()), JSONFloat(math.Inf(1)), JSONFloat(math.Inf(-1)),
		0, JSONFloat(math.Copysign(0, -1)), 1e-7, -3e-9, 1e-6, 9.99e-7,
		1e21, -1e21, 9.99e20, 1e20, 5e-324, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 1.5, 123456789, 1e-300, 1.7976931348623157e308 / 3,
	}
	rng := rand.New(rand.NewSource(3))
	random := make([]JSONFloat, 64)
	for i := range random {
		random[i] = JSONFloat(math.Float64frombits(rng.Uint64()))
	}
	names := []string{"time", "energy", "<&>", "quote\"d", "ü"}

	offers, _ := testFleet(t, 120)
	eng := flex.New(flex.WithWorkers(2))
	defer eng.Close()
	tab, err := eng.Measures(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]*MeasuresResponse{
		"edge cells":  {Names: names, Values: [][]JSONFloat{edge, edge[3:], random}, Set: edge},
		"zero rows":   {Names: names, Values: [][]JSONFloat{}, Set: edge[:2]},
		"nil values":  {Names: names, Set: random},
		"nil set":     {Names: names, Values: [][]JSONFloat{edge}},
		"nil row":     {Names: names, Values: [][]JSONFloat{nil, {}, edge[:1]}, Set: []JSONFloat{}},
		"nil names":   {Values: [][]JSONFloat{random}, Set: edge},
		"empty":       {},
		"fleet table": BuildMeasuresResponse(tab),
	}
	for name, resp := range cases {
		var got bytes.Buffer
		if err := EncodeResponse(&got, resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := reflectEncode(t, resp); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: fast path\n%s\ndiffers from json.Marshal\n%s", name, got.Bytes(), want)
		}
	}
	// A nil response is the reflective encoder's "null".
	var got bytes.Buffer
	if err := EncodeResponse(&got, (*MeasuresResponse)(nil)); err != nil {
		t.Fatal(err)
	}
	if got.String() != "null\n" {
		t.Errorf("nil response encoded as %q", got.String())
	}
}

// FuzzAppendJSONFloat checks appendJSONFloat against encoding/json over
// arbitrary float64 bit patterns: json.Marshal's bytes for finite
// values, null otherwise. Raw bit patterns almost never land on small
// integers, so every input also checks an integral value derived from
// it — the bits read as an int64, shifted right by bits%64 — which
// covers the integer fast path at every magnitude up to 2^63.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, x := range []float64{0, 1, -1, 1e-7, 1e21, 5e-324, math.MaxFloat64, math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	check := func(t *testing.T, x float64) {
		want := []byte("null")
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			var err error
			if want, err = json.Marshal(x); err != nil {
				t.Fatal(err)
			}
		}
		if got := appendJSONFloat(nil, x); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v, bits %#x) = %s, want %s", x, math.Float64bits(x), got, want)
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		check(t, math.Float64frombits(bits))
		check(t, float64(int64(bits)>>(bits%64)))
	})
}
