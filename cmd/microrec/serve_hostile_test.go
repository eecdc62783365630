package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"microrec"
)

// TestServeHostileInput drives the listening server — the http.Server the
// serve command builds, not just its mux — with the inputs a bare
// http.ListenAndServe let through: a body far larger than any query, a
// client that never finishes its request header, and one that sends its
// header and then stalls the body. Each must be answered or cut off within
// the read timeouts, and a well-formed /predict must still be served after.
func TestServeHostileInput(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 4}})
	hs := newHTTPServer("", mux)
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatal("serve's http.Server sets no ReadHeaderTimeout")
	}
	// The production value would make each slow case wait 5 s; /predict
	// gives the body the same timeout. It must still cover reading the
	// oversized body, ≈ 0.1 s under the race detector.
	hs.ReadHeaderTimeout = time.Second
	const cutOff = 3 * time.Second // the timeout plus generous scheduling slack
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	oversized := oversizedPredictBody()
	cases := []struct {
		name    string
		request string
		// want is the response status, or 0 for a connection the server
		// closes without answering.
		want int
	}{
		{"oversized body", fmt.Sprintf("POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(oversized), oversized), http.StatusRequestEntityTooLarge},
		{"malformed body under the limit", "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\n" + malformedPredictBody, http.StatusBadRequest},
		{"slow header", "POST /predict HTTP/1.1\r\nHost: t\r\n", 0},
		{"stalled body", "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n" + truncatedPredictBody, http.StatusRequestTimeout},
		{"stalled after a complete value", "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n" + emptyPredictBody, http.StatusRequestTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			defer func() {
				if took := time.Since(start); took > cutOff {
					t.Errorf("answered or cut off after %v, want within %v", took, cutOff)
				}
			}()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			// The server may answer and close before it has read all of an
			// oversized body, so the write runs beside the read and its own
			// error says nothing.
			wrote := make(chan struct{})
			go func() {
				defer close(wrote)
				io.WriteString(conn, tc.request)
			}()
			defer func() {
				conn.Close()
				<-wrote
			}()
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if tc.want == 0 {
				if err == nil {
					t.Fatalf("unfinished header answered with %d, want the connection closed", resp.StatusCode)
				}
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatalf("connection still open after the header timeout: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	gen, err := microrec.NewGenerator(microrec.SmallProductionModel(), microrec.Uniform, 3)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(predictRequest{Indices: gen.Next()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+ln.Addr().String()+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("well-formed /predict after the hostile clients = %d: %s", resp.StatusCode, msg)
	}
}
