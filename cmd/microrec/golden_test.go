package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := f()
	os.Stdout = stdout
	w.Close()
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got
}

// TestExpQuantGolden pins `microrec exp quant` at seed 1 byte for byte. The
// ablation builds both widths' engines over its parameters and measures each
// against the float reference, so its table moves if a single table value,
// its quantization, or a row regenerated for the reference moves. The golden
// file was printed by the build before embedding tables were stored at the
// datapath's width.
func TestExpQuantGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "exp_quant_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error { return run([]string{"exp", "quant", "-seed", "1"}) })
	if !bytes.Equal(got, want) {
		t.Errorf("exp quant -seed 1 printed\n%s\nwant (testdata/exp_quant_seed1.golden)\n%s", got, want)
	}
}
