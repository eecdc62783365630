package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"microrec"
)

// The /predict bodies TestServeHostileInput sends, which also seed
// FuzzPredictRequest's corpus.
const (
	malformedPredictBody = "{bad"
	truncatedPredictBody = `{"indices":[[0],`
	emptyPredictBody     = `{"indices":[]}`
)

// oversizedPredictBody is well-formed JSON just past maxPredictBody.
func oversizedPredictBody() string {
	return `{"indices":[[` + strings.Repeat("0,", maxPredictBody/2+512) + `0]]}`
}

// FuzzPredictRequest posts arbitrary bodies to /predict on a small engine.
// Whatever the body, the handler must answer without panicking, with 200,
// 400 or 413 and never 500, and every 200 must carry a CTR in [0, 1].
func FuzzPredictRequest(f *testing.F) {
	mux, _ := testMux(f, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 4}})
	gen, err := microrec.NewGenerator(microrec.SmallProductionModel(), microrec.Uniform, 3)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(predictRequest{Indices: gen.Next()})
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{string(valid), malformedPredictBody, truncatedPredictBody, emptyPredictBody, oversizedPredictBody()} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp predictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable reply %q: %v", rec.Body.Bytes(), err)
			}
			if !(resp.CTR >= 0 && resp.CTR <= 1) {
				t.Fatalf("200 with CTR %v outside [0, 1]", resp.CTR)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}
