package dpg

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/predictor"
	"repro/internal/workloads"
)

// mergeInputs produces Results of several independent traces under one
// config, the raw material for merge tests.
func mergeInputs(t *testing.T, cfg Config) []*Result {
	t.Helper()
	var out []*Result
	for _, name := range []string{"fig1", "gcc", "com"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		tr, err := w.TraceRounds(max(2, w.Rounds/60), 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunWith(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// sumInto is the reflection oracle: it adds every unsigned-integer leaf of
// src into dst, recursing through structs, arrays, and the GenPoints map.
// MergeResults must agree with this mechanical definition on every field.
func sumInto(t *testing.T, dst, src reflect.Value) {
	t.Helper()
	switch dst.Kind() {
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			sumInto(t, dst.Field(i), src.Field(i))
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			sumInto(t, dst.Index(i), src.Index(i))
		}
	default:
		t.Fatalf("reflectSum: unhandled kind %s", dst.Kind())
	}
}

// expectedMerge computes the merge by brute reflection, mirroring the
// documented contract for the non-summable fields.
func expectedMerge(t *testing.T, results []*Result) *Result {
	t.Helper()
	out := &Result{Name: results[0].Name, Predictor: results[0].Predictor}
	for _, r := range results {
		if r.Name != out.Name {
			out.Name = ""
		}
		rv, ov := reflect.ValueOf(r).Elem(), reflect.ValueOf(out).Elem()
		for i := 0; i < rv.NumField(); i++ {
			switch rv.Type().Field(i).Name {
			case "Name", "Predictor", "GenPoints", "Graph":
				continue
			}
			sumInto(t, ov.Field(i), rv.Field(i))
		}
		for pc, gp := range r.GenPoints {
			if out.GenPoints == nil {
				out.GenPoints = map[uint32]*GenPoint{}
			}
			if out.GenPoints[pc] == nil {
				out.GenPoints[pc] = &GenPoint{PC: pc}
			}
			out.GenPoints[pc].Gens += gp.Gens
			out.GenPoints[pc].TreeSize += gp.TreeSize
		}
		if out.Graph == nil {
			out.Graph = r.Graph
		}
	}
	return out
}

// TestMergeResultsDifferential checks MergeResults against the reflection
// oracle across predictor kinds, so a Result field added later cannot be
// silently dropped from the merge, and checks the merged Result keeps the
// accounting invariants every single run satisfies.
func TestMergeResultsDifferential(t *testing.T) {
	for _, kind := range []predictor.Kind{predictor.KindLast, predictor.KindContext} {
		cfg := Config{Predictor: kind.Factory(), PredictorName: kind.String()}
		inputs := mergeInputs(t, cfg)
		got, err := MergeResults(inputs...)
		if err != nil {
			t.Fatal(err)
		}
		want := expectedMerge(t, inputs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MergeResults disagrees with the reflection oracle", kind)
		}
		checkInvariants(t, got)
		if got.Name != "" {
			t.Fatalf("distinct trace names merged to %q, want empty", got.Name)
		}
		if got.Predictor != kind.String() {
			t.Fatalf("merged predictor %q", got.Predictor)
		}
	}
}

// TestMergeResultsAlgebra checks the grouping laws the directory coordinator
// relies on: associativity, order-independence of every summed figure, and
// the single-input merge being a faithful copy.
func TestMergeResultsAlgebra(t *testing.T) {
	cfg := Config{Predictor: predictor.KindStride.Factory(), PredictorName: "stride"}
	in := mergeInputs(t, cfg)

	solo, err := MergeResults(in[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo, in[0]) {
		t.Fatal("single-input merge is not a faithful copy")
	}
	if solo == in[0] {
		t.Fatal("single-input merge returned the input itself")
	}

	flat, err := MergeResults(in...)
	if err != nil {
		t.Fatal(err)
	}
	left, err := MergeResults(in[0], in[1])
	if err != nil {
		t.Fatal(err)
	}
	nested, err := MergeResults(left, in[2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat, nested) {
		t.Fatal("merge is not associative")
	}
	rev, err := MergeResults(in[2], in[1], in[0])
	if err != nil {
		t.Fatal(err)
	}
	// Graph adoption is first-touch, so compare the summed figures only.
	rev.Graph, flat.Graph = nil, nil
	if !reflect.DeepEqual(flat, rev) {
		t.Fatal("summed figures depend on merge order")
	}
}

// TestMergeResultsIsolation checks the merge shares no mutable state with
// its inputs: growing the merged GenPoints must not touch the sources.
func TestMergeResultsIsolation(t *testing.T) {
	cfg := Config{Predictor: predictor.KindLast.Factory(), PredictorName: "last-value"}
	in := mergeInputs(t, cfg)
	var snapshot []Result
	for _, r := range in {
		snapshot = append(snapshot, *r)
	}
	merged, err := MergeResults(in...)
	if err != nil {
		t.Fatal(err)
	}
	for pc, gp := range merged.GenPoints {
		gp.Gens += 1000
		merged.GenPoints[pc] = gp
	}
	merged.Nodes = 0
	for i, r := range in {
		if !reflect.DeepEqual(*r, snapshot[i]) {
			t.Fatalf("input %d mutated by merge or by edits to the merge", i)
		}
	}
}

// TestMergeResultsErrors pins the error contract: no inputs, nil input,
// and predictor mismatch all reject with ErrConfig.
func TestMergeResultsErrors(t *testing.T) {
	if _, err := MergeResults(); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty merge: err = %v, want ErrConfig", err)
	}
	a := &Result{Predictor: "last-value"}
	if _, err := MergeResults(a, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil input: err = %v, want ErrConfig", err)
	}
	b := &Result{Predictor: "stride"}
	if _, err := MergeResults(a, b); !errors.Is(err, ErrConfig) {
		t.Fatalf("predictor mismatch: err = %v, want ErrConfig", err)
	}
}

// TestMergeResultsGraphAndName pins the non-summed fields: Graph adopts the
// first non-nil fragment; Name survives only unanimous inputs.
func TestMergeResultsGraphAndName(t *testing.T) {
	g1, g2 := &Fragment{}, &Fragment{}
	a := &Result{Name: "t", Predictor: "p"}
	b := &Result{Name: "t", Predictor: "p", Graph: g1}
	c := &Result{Name: "t", Predictor: "p", Graph: g2}
	m, err := MergeResults(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Graph != g1 {
		t.Fatal("merge did not adopt the first non-nil Graph")
	}
	if m.Name != "t" {
		t.Fatalf("unanimous name lost: %q", m.Name)
	}
}
