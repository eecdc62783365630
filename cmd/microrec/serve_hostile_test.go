package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"microrec"
)

// TestServeHostileInput drives the listening server — the http.Server the
// serve command builds, not just its mux — with the two inputs a bare
// http.ListenAndServe let through: a body far larger than any query, and a
// client that never finishes its request header.
func TestServeHostileInput(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 4}})
	hs := newHTTPServer("", mux)
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatal("serve's http.Server sets no ReadHeaderTimeout")
	}
	// The production value would make the slow-header case wait seconds.
	hs.ReadHeaderTimeout = 100 * time.Millisecond
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

	oversized := `{"indices":[[` + strings.Repeat("0,", maxPredictBody/2+512) + `0]]}`
	cases := []struct {
		name    string
		request string
		// want is the response status, or 0 for a connection the server
		// closes without answering.
		want int
	}{
		{"oversized body", fmt.Sprintf("POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(oversized), oversized), http.StatusRequestEntityTooLarge},
		{"malformed body under the limit", "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\n{bad", http.StatusBadRequest},
		{"slow header", "POST /predict HTTP/1.1\r\nHost: t\r\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
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
}
