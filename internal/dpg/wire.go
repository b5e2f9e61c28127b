package dpg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// WireVersion identifies the Result wire layout. A coordinator only merges
// partials whose wire version it understands; bumping this constant is how
// a layout change refuses to silently mis-merge across mixed builds.
const WireVersion = 1

// wireEnvelope frames one encoded Result for transport between processes.
// Result holds the canonical body bytes: a fixed-field-order JSON object
// with GenPoints flattened to a PC-sorted array, so encoding the same
// Result always produces the same bytes and Digest is meaningful.
type wireEnvelope struct {
	Wire   int             `json:"wire"`
	Model  string          `json:"model"`
	Digest string          `json:"digest"`
	Result json.RawMessage `json:"result"`
}

// wireGenPoint is one GenPoints entry in canonical (PC-ascending) order.
type wireGenPoint struct {
	PC       uint32 `json:"pc"`
	Gens     uint64 `json:"gens"`
	TreeSize uint64 `json:"tree_size"`
}

// wireResult mirrors Result field for field. The struct exists so the wire
// layout is explicit and stable: adding a Result field without extending
// the codec fails the round-trip tests instead of silently dropping data,
// and decoding rejects unknown fields instead of ignoring version skew.
type wireResult struct {
	Name      string `json:"name"`
	Predictor string `json:"predictor"`

	Nodes        uint64 `json:"nodes"`
	Arcs         uint64 `json:"arcs"`
	DNodes       uint64 `json:"d_nodes"`
	DArcs        uint64 `json:"d_arcs"`
	NeutralNodes uint64 `json:"neutral_nodes"`

	NodeCount   [numNodeClass]uint64              `json:"node_count"`
	NodeByGroup [NumOpGroups][numNodeClass]uint64 `json:"node_by_group"`
	ArcCount    [numArcUse][numArcLabel]uint64    `json:"arc_count"`

	Path struct {
		ClassElems [NumGenClass]uint64        `json:"class_elems"`
		ComboElems [1 << NumGenClass]uint64   `json:"combo_elems"`
		NumGenHist [MaxTrackedGens + 2]uint64 `json:"num_gen_hist"`
		DistHist   [HistBuckets]uint64        `json:"dist_hist"`
		Elems      uint64                     `json:"elems"`
	} `json:"path"`
	Trees struct {
		GensByDepth [HistBuckets]uint64 `json:"gens_by_depth"`
		SizeByDepth [HistBuckets]uint64 `json:"size_by_depth"`
		ClassGens   [NumGenClass]uint64 `json:"class_gens"`
		Gens        uint64              `json:"gens"`
		Size        uint64              `json:"size"`
	} `json:"trees"`
	Seq struct {
		InstrByLen        [HistBuckets]uint64 `json:"instr_by_len"`
		RunsByLen         [HistBuckets]uint64 `json:"runs_by_len"`
		PredictableInstrs uint64              `json:"predictable_instrs"`
	} `json:"seq"`
	Branch struct {
		Count    [numNodeClass]uint64 `json:"count"`
		Branches uint64               `json:"branches"`
		Correct  uint64               `json:"correct"`
	} `json:"branch"`
	Addr struct {
		Count  [2][2]uint64 `json:"count"`
		Loads  uint64       `json:"loads"`
		Stores uint64       `json:"stores"`
	} `json:"addr"`

	// GenPoints is null for a run without path analysis, [] for a run that
	// tracked paths but attributed nothing — the distinction survives the
	// round trip (nil vs empty non-nil map).
	GenPoints []wireGenPoint `json:"gen_points"`
	Graph     *Fragment      `json:"graph"`
}

// EncodeResult serialises r into the versioned wire form dpgd's POST
// /result returns, so partials computed on different hosts can be decoded
// and merged: a JSON envelope carrying the wire version, the producer's
// model version, and a SHA-256 digest of the canonical body.
// Encoding is deterministic — the same Result and model version always
// yield the same bytes — and DecodeResult(EncodeResult(r)) reproduces r
// exactly (reflect.DeepEqual), Graph included.
func EncodeResult(r *Result, modelVersion string) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("%w: EncodeResult on nil Result", ErrConfig)
	}
	var w wireResult
	w.Name, w.Predictor = r.Name, r.Predictor
	w.Nodes, w.Arcs, w.DNodes, w.DArcs, w.NeutralNodes =
		r.Nodes, r.Arcs, r.DNodes, r.DArcs, r.NeutralNodes
	w.NodeCount, w.NodeByGroup, w.ArcCount = r.NodeCount, r.NodeByGroup, r.ArcCount
	w.Path.ClassElems, w.Path.ComboElems = r.Path.ClassElems, r.Path.ComboElems
	w.Path.NumGenHist, w.Path.DistHist, w.Path.Elems = r.Path.NumGenHist, r.Path.DistHist, r.Path.Elems
	w.Trees.GensByDepth, w.Trees.SizeByDepth = r.Trees.GensByDepth, r.Trees.SizeByDepth
	w.Trees.ClassGens, w.Trees.Gens, w.Trees.Size = r.Trees.ClassGens, r.Trees.Gens, r.Trees.Size
	w.Seq.InstrByLen, w.Seq.RunsByLen = r.Seq.InstrByLen, r.Seq.RunsByLen
	w.Seq.PredictableInstrs = r.Seq.PredictableInstrs
	w.Branch.Count, w.Branch.Branches, w.Branch.Correct = r.Branch.Count, r.Branch.Branches, r.Branch.Correct
	w.Addr.Count, w.Addr.Loads, w.Addr.Stores = r.Addr.Count, r.Addr.Loads, r.Addr.Stores
	w.Graph = r.Graph

	if r.GenPoints != nil {
		w.GenPoints = make([]wireGenPoint, 0, len(r.GenPoints))
		for pc, gp := range r.GenPoints {
			w.GenPoints = append(w.GenPoints, wireGenPoint{PC: pc, Gens: gp.Gens, TreeSize: gp.TreeSize})
		}
		sortGenPoints(w.GenPoints)
	}

	body, err := json.Marshal(&w)
	if err != nil {
		return nil, fmt.Errorf("dpg: encoding Result: %w", err)
	}
	return json.Marshal(&wireEnvelope{
		Wire:   WireVersion,
		Model:  modelVersion,
		Digest: wireDigest(body),
		Result: body,
	})
}

// wireDigest is the envelope digest: SHA-256 over the canonical body bytes.
func wireDigest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// sortGenPoints orders entries by ascending PC (insertion sort: the slice
// comes from a map, and gen-point sets are small relative to the trace).
func sortGenPoints(gps []wireGenPoint) {
	for i := 1; i < len(gps); i++ {
		for j := i; j > 0 && gps[j].PC < gps[j-1].PC; j-- {
			gps[j], gps[j-1] = gps[j-1], gps[j]
		}
	}
}

// DecodeResult parses and validates one wire envelope, returning the
// Result and the producer's model version. It never panics, whatever the
// input: every malformed shape — bad JSON, an unknown wire version, a
// digest that does not match the body, a non-canonical body, unknown or
// out-of-range fields, unsorted or duplicate gen points — is an error
// matching ErrWire. The digest is recomputed over the received body bytes,
// so transport corruption and hand-edited payloads are both rejected.
func DecodeResult(data []byte) (*Result, string, error) {
	var env wireEnvelope
	if err := strictUnmarshal(data, &env); err != nil {
		return nil, "", fmt.Errorf("%w: envelope: %v", ErrWire, err)
	}
	if env.Wire != WireVersion {
		return nil, "", fmt.Errorf("%w: wire version %d, this build speaks %d", ErrWire, env.Wire, WireVersion)
	}
	if len(env.Result) == 0 {
		return nil, "", fmt.Errorf("%w: envelope has no result body", ErrWire)
	}
	if got := wireDigest(env.Result); got != env.Digest {
		return nil, "", fmt.Errorf("%w: body digest %.12s does not match envelope digest %.12s", ErrWire, got, env.Digest)
	}
	var w wireResult
	if err := strictUnmarshal(env.Result, &w); err != nil {
		return nil, "", fmt.Errorf("%w: body: %v", ErrWire, err)
	}

	r := &Result{
		Name:         w.Name,
		Predictor:    w.Predictor,
		Nodes:        w.Nodes,
		Arcs:         w.Arcs,
		DNodes:       w.DNodes,
		DArcs:        w.DArcs,
		NeutralNodes: w.NeutralNodes,
		NodeCount:    w.NodeCount,
		NodeByGroup:  w.NodeByGroup,
		ArcCount:     w.ArcCount,
		Path: PathStats{
			ClassElems: w.Path.ClassElems,
			ComboElems: w.Path.ComboElems,
			NumGenHist: w.Path.NumGenHist,
			DistHist:   w.Path.DistHist,
			Elems:      w.Path.Elems,
		},
		Trees: TreeStats{
			GensByDepth: w.Trees.GensByDepth,
			SizeByDepth: w.Trees.SizeByDepth,
			ClassGens:   w.Trees.ClassGens,
			Gens:        w.Trees.Gens,
			Size:        w.Trees.Size,
		},
		Seq: SeqStats{
			InstrByLen:        w.Seq.InstrByLen,
			RunsByLen:         w.Seq.RunsByLen,
			PredictableInstrs: w.Seq.PredictableInstrs,
		},
		Branch: BranchStats{
			Count:    w.Branch.Count,
			Branches: w.Branch.Branches,
			Correct:  w.Branch.Correct,
		},
		Addr: AddrStats{
			Count:  w.Addr.Count,
			Loads:  w.Addr.Loads,
			Stores: w.Addr.Stores,
		},
		Graph: w.Graph,
	}
	if w.GenPoints != nil {
		r.GenPoints = make(map[uint32]*GenPoint, len(w.GenPoints))
		for i, gp := range w.GenPoints {
			if i > 0 && gp.PC <= w.GenPoints[i-1].PC {
				return nil, "", fmt.Errorf("%w: gen_points not in strict PC order at index %d", ErrWire, i)
			}
			r.GenPoints[gp.PC] = &GenPoint{PC: gp.PC, Gens: gp.Gens, TreeSize: gp.TreeSize}
		}
	}

	// Canonical-form enforcement: re-encoding the reconstructed Result must
	// reproduce the received bytes exactly. This subsumes envelope
	// formatting, body field order, and gen-point ordering in one check, and
	// gives the codec a clean algebra — decode only accepts EncodeResult's
	// image, so encode∘decode is the identity both ways.
	canon, err := EncodeResult(r, env.Model)
	if err != nil {
		return nil, "", fmt.Errorf("%w: re-encoding decoded body: %v", ErrWire, err)
	}
	if !bytes.Equal(canon, data) {
		return nil, "", fmt.Errorf("%w: payload is not in canonical form", ErrWire)
	}
	return r, env.Model, nil
}

// strictUnmarshal is json.Unmarshal with unknown fields rejected and
// trailing non-whitespace data refused — the decoding half of the canonical
// wire contract.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
