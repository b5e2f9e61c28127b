package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
)

// postResult uploads body to /result and returns the status, response
// bytes, and headers.
func postResult(t *testing.T, url, query string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/result"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// TestResultEndpointParity is the wire contract end to end: the bytes
// /result returns are exactly dpg.EncodeResult of the local AnalyzeFile
// Result under the server's model version — byte-identical, not just
// semantically equal — and an identical repeat is served from cache with
// the same bytes. Partials gathered from /result for two traces merge to
// the same bytes as core.AnalyzeDir over the directory holding both.
func TestResultEndpointParity(t *testing.T) {
	_, ts := testServer(t, nil)
	data := traceBytes(t, "gcc", 40)

	dir := t.TempDir()
	tmp := filepath.Join(dir, "gcc.dpg")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeFile(tmp, core.WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	want, err := dpg.EncodeResult(res, ModelVersion)
	if err != nil {
		t.Fatal(err)
	}

	status, got, hdr := postResult(t, ts.URL, "?predictor=stride", data)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if hdr.Get("X-Dpgd-Cached") != "" {
		t.Error("first upload claims cached")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("/result bytes differ from local EncodeResult(AnalyzeFile)")
	}

	dec, model, err := dpg.DecodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if model != ModelVersion {
		t.Fatalf("model version %q, want %q", model, ModelVersion)
	}
	if !reflect.DeepEqual(dec, res) {
		t.Fatal("decoded partial differs from local Result")
	}

	status, again, hdr := postResult(t, ts.URL, "?predictor=stride", data)
	if status != http.StatusOK || hdr.Get("X-Dpgd-Cached") != "1" {
		t.Fatalf("repeat: status %d cached=%q, want 200 from cache", status, hdr.Get("X-Dpgd-Cached"))
	}
	if !bytes.Equal(again, want) {
		t.Fatal("cached /result bytes differ")
	}

	// Gather: a second trace's partial, decoded and merged with the first
	// in sorted path order (bfs.dpg < gcc.dpg), must encode to the same
	// bytes as the in-process directory merge.
	bfs := traceBytes(t, "bfs", 2)
	if err := os.WriteFile(filepath.Join(dir, "bfs.dpg"), bfs, 0o644); err != nil {
		t.Fatal(err)
	}
	status, got, _ = postResult(t, ts.URL, "?predictor=stride", bfs)
	if status != http.StatusOK {
		t.Fatalf("bfs: status %d: %s", status, got)
	}
	bfsDec, _, err := dpg.DecodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := dpg.MergeResults(bfsDec, dec)
	if err != nil {
		t.Fatal(err)
	}
	merged.Name = filepath.Base(dir) // distinct workload names merge to the dir name
	local, _, err := core.AnalyzeDir(dir, 2, core.WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	gathered, err := dpg.EncodeResult(merged, ModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	wantDir, err := dpg.EncodeResult(local, ModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gathered, wantDir) {
		t.Fatal("merged /result partials differ from EncodeResult(AnalyzeDir)")
	}
}

// TestResultEndpointRejects pins the /result request taxonomy: wrong
// method, experiments (which belong to /analyze), and corrupt uploads.
func TestResultEndpointRejects(t *testing.T) {
	_, ts := testServer(t, nil)

	resp, err := http.Get(ts.URL + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /result: status %d, want 405", resp.StatusCode)
	}

	status, body, _ := postResult(t, ts.URL, "?experiments=reuse", traceBytes(t, "fig1", 4))
	if status != http.StatusBadRequest {
		t.Fatalf("experiments on /result: status %d (%s), want 400", status, body)
	}

	status, _, _ = postResult(t, ts.URL, "", []byte("not a trace"))
	if status != 422 {
		t.Fatalf("corrupt upload: status %d, want 422", status)
	}
}

// TestResultEndpointKeysSeparately checks the cache isolation between the
// two response encodings of one model run: an /analyze hit must not leak
// into /result or vice versa.
func TestResultEndpointKeysSeparately(t *testing.T) {
	s, ts := testServer(t, nil)
	data := traceBytes(t, "fig1", 6)

	if code, out, _ := upload(t, ts, "?predictor=last", bytes.NewReader(data)); code != http.StatusOK || out.Cached {
		t.Fatalf("/analyze: code %d cached %v", code, out.Cached)
	}
	status, body, hdr := postResult(t, ts.URL, "?predictor=last", data)
	if status != http.StatusOK {
		t.Fatalf("/result after /analyze: status %d", status)
	}
	if hdr.Get("X-Dpgd-Cached") == "1" {
		t.Error("/result served from the /analyze cache entry")
	}
	if _, _, err := dpg.DecodeResult(body); err != nil {
		t.Fatalf("wire payload: %v", err)
	}
	// Both entries live side by side now; both hit.
	if _, out, _ := upload(t, ts, "?predictor=last", bytes.NewReader(data)); !out.Cached {
		t.Error("/analyze repeat not cached")
	}
	if _, _, hdr := postResult(t, ts.URL, "?predictor=last", data); hdr.Get("X-Dpgd-Cached") != "1" {
		t.Error("/result repeat not cached")
	}
	if n := s.Metrics().CacheHits(); n < 2 {
		t.Errorf("cache hits %d, want >= 2", n)
	}
}
