package dpg

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/workloads"
)

// wireInputs produces Results across the codec's interesting shapes: plain
// runs, a run with a recorded Graph fragment, a run with paths disabled
// (nil GenPoints), and a merged aggregate.
func wireInputs(t *testing.T) map[string]*Result {
	t.Helper()
	out := make(map[string]*Result)
	for _, name := range []string{"fig1", "gcc"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		tr, err := w.TraceRounds(max(2, w.Rounds/60), 1)
		if err != nil {
			t.Fatal(err)
		}
		for cfgName, cfg := range map[string]Config{
			"plain":    {Predictor: predictor.KindStride.Factory(), PredictorName: "stride"},
			"graph":    {Predictor: predictor.KindLast.Factory(), PredictorName: "last-value", GraphLimit: 24},
			"no-paths": {Predictor: predictor.KindContext.Factory(), PredictorName: "context", DisablePaths: true},
		} {
			r, err := RunWith(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[name+"/"+cfgName] = r
		}
	}
	merged, err := MergeResults(out["fig1/plain"], out["gcc/plain"])
	if err != nil {
		t.Fatal(err)
	}
	out["merged"] = merged
	return out
}

// TestResultWireRoundTrip is the codec's core contract: decode(encode(r))
// reproduces r exactly, the model version rides through, and encoding is
// deterministic byte for byte.
func TestResultWireRoundTrip(t *testing.T) {
	for name, r := range wireInputs(t) {
		data, err := EncodeResult(r, "model-x")
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		again, err := EncodeResult(r, "model-x")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: encoding is not deterministic", name)
		}
		got, model, err := DecodeResult(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if model != "model-x" {
			t.Fatalf("%s: model version %q rode through as %q", name, "model-x", model)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: decode(encode(r)) != r", name)
		}
		checkInvariants(t, got)
		// The nil/empty GenPoints distinction must survive.
		if (got.GenPoints == nil) != (r.GenPoints == nil) {
			t.Fatalf("%s: GenPoints nil-ness changed: %v -> %v", name, r.GenPoints == nil, got.GenPoints == nil)
		}
	}
}

// TestResultWireMergeOverWire is the gather-and-merge shape in miniature:
// partials that crossed the wire merge to the same aggregate as the
// originals.
func TestResultWireMergeOverWire(t *testing.T) {
	in := wireInputs(t)
	a, b := in["fig1/plain"], in["gcc/plain"]
	want, err := MergeResults(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var over []*Result
	for _, r := range []*Result{a, b} {
		data, err := EncodeResult(r, "m")
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := DecodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, dec)
		over = append(over, dec)
	}
	got, err := MergeResults(over...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merge over wire-round-tripped partials differs from direct merge")
	}
	checkInvariants(t, got)
}

// TestResultWireRejects pins the decode taxonomy: every malformed shape is
// a typed ErrWire failure, never a panic, never a silent zero Result.
func TestResultWireRejects(t *testing.T) {
	r := wireInputs(t)["fig1/plain"]
	good, err := EncodeResult(r, "m")
	if err != nil {
		t.Fatal(err)
	}

	flip := func(mut func(env *wireEnvelope)) []byte {
		var env wireEnvelope
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		mut(&env)
		out, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := map[string][]byte{
		"empty":        nil,
		"not-json":     []byte("BLKC not a wire payload"),
		"wrong-type":   []byte(`[1,2,3]`),
		"trailing":     append(append([]byte{}, good...), []byte(` {"x":1}`)...),
		"bad-version":  flip(func(e *wireEnvelope) { e.Wire = WireVersion + 1 }),
		"no-body":      flip(func(e *wireEnvelope) { e.Result = nil }),
		"bad-digest":   flip(func(e *wireEnvelope) { e.Digest = strings.Repeat("0", 64) }),
		"tampered":     bytes.Replace(good, []byte(`"nodes":`), []byte(`"nodes": `), 1),
		"unknown-f":    flip(func(e *wireEnvelope) { e.Result = []byte(`{"name":"x","bogus":1}`) }),
		"neg-count":    flip(func(e *wireEnvelope) { e.Result = []byte(`{"name":"x","nodes":-1}`) }),
		"unsorted-gps": flip(func(e *wireEnvelope) { e.Result = nil }),
	}
	// Rebuild the two body-replacement cases with matching digests so they
	// reach the body-validation layer instead of failing the digest check.
	rebody := func(body string) []byte {
		env := wireEnvelope{Wire: WireVersion, Model: "m", Result: []byte(body)}
		env.Digest = digestOf(env.Result)
		out, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases["unknown-f"] = rebody(`{"name":"x","bogus":1}`)
	cases["neg-count"] = rebody(`{"name":"x","nodes":-1}`)
	cases["unsorted-gps"] = rebody(`{"gen_points":[{"pc":9,"gens":1,"tree_size":1},{"pc":3,"gens":1,"tree_size":1}]}`)

	for name, data := range cases {
		res, _, err := DecodeResult(data)
		if !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", name, err)
		}
		if res != nil {
			t.Errorf("%s: non-nil Result alongside an error", name)
		}
	}

	if _, err := EncodeResult(nil, "m"); !errors.Is(err, ErrConfig) {
		t.Errorf("EncodeResult(nil): err = %v, want ErrConfig", err)
	}
}

// digestOf mirrors the codec's body digest for hand-built test payloads.
func digestOf(body []byte) string { return wireDigest(body) }

// TestResultWireGenPointsCanonical pins the canonical ordering: GenPoints
// always encode PC-ascending regardless of map iteration order, and a
// strictly-ordered hand payload decodes into the equivalent map.
func TestResultWireGenPointsCanonical(t *testing.T) {
	r := &Result{GenPoints: map[uint32]*GenPoint{
		7: {PC: 7, Gens: 1, TreeSize: 2},
		3: {PC: 3, Gens: 4, TreeSize: 5},
		9: {PC: 9, Gens: 6, TreeSize: 7},
	}}
	data, err := EncodeResult(r, "m")
	if err != nil {
		t.Fatal(err)
	}
	var env wireEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	body := string(env.Result)
	i3 := strings.Index(body, `"pc":3`)
	i7 := strings.Index(body, `"pc":7`)
	i9 := strings.Index(body, `"pc":9`)
	if i3 < 0 || i7 < 0 || i9 < 0 || !(i3 < i7 && i7 < i9) {
		t.Fatalf("gen points not PC-ascending in body: %s", body)
	}
	got, _, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatal("canonical gen-point round trip differs")
	}
}

// FuzzResultWire fuzzes both codec directions: DecodeResult must never
// panic on arbitrary bytes, and any payload it accepts must re-encode to
// the identical canonical bytes (decode∘encode is the identity on the
// codec's image).
func FuzzResultWire(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"wire":1,"model":"m","digest":"","result":{}}`))
	r := &Result{Name: "seed", Predictor: "stride", Nodes: 3, Arcs: 2,
		GenPoints: map[uint32]*GenPoint{1: {PC: 1, Gens: 2, TreeSize: 3}}}
	if seed, err := EncodeResult(r, "seed-model"); err == nil {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, model, err := DecodeResult(data)
		if err != nil {
			if res != nil {
				t.Fatal("Result returned alongside an error")
			}
			return
		}
		out, err := EncodeResult(res, model)
		if err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted payload is not canonical:\n in: %s\nout: %s", data, out)
		}
	})
}
