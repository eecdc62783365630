package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s:\n%s\nwant\n%s", name, got, want)
	}
}

// The goldens below pin what the accelerator model prints — the experiments,
// the placement plans, infer's predictions and timing report, and the
// simulated pipeline trace — so moving the model between packages cannot
// change a byte of it.

// TestExpAllGolden pins `microrec exp all`, and pins EXPERIMENTS.md's record
// of it: the file's fenced block must be the same bytes.
func TestExpAllGolden(t *testing.T) {
	got := captureStdout(t, func() error { return run([]string{"exp", "all"}) })
	checkGolden(t, "exp_all.golden", got)
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	const open = "```text\n"
	i, j := bytes.Index(doc, []byte(open)), bytes.LastIndex(doc, []byte("```"))
	if i < 0 || j < i+len(open) {
		t.Fatal("EXPERIMENTS.md has no fenced text block")
	}
	if block := doc[i+len(open) : j]; !bytes.Equal(block, got) {
		t.Errorf("EXPERIMENTS.md's block is not the output of `microrec exp all`; replace it with:\n%s", got)
	}
}

func TestPlanGolden(t *testing.T) {
	for _, m := range []string{"small", "large"} {
		got := captureStdout(t, func() error { return run([]string{"plan", "-model", m}) })
		checkGolden(t, "plan_"+m+".golden", got)
	}
}

func TestInferGolden(t *testing.T) {
	got := captureStdout(t, func() error { return run([]string{"infer"}) })
	checkGolden(t, "infer.golden", got)
}

// TestTraceGolden pins the simulated trace's report line (with the output
// directory cut from the path it names) and the trace JSON it writes.
func TestTraceGolden(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	got := captureStdout(t, func() error { return run([]string{"trace", "-o", out}) })
	checkGolden(t, "trace_report.golden", []byte(strings.ReplaceAll(string(got), dir+string(filepath.Separator), "")))
	trace, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.json.golden", trace)
}
