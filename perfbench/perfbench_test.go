package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// The self-test runs every workload at tiny scale against a matchd built
// from this checkout, untraced and traced, and checks the output contract.

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func buildMatchd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "matchd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/matchd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build matchd: %v\n%s", err, out)
	}
	return bin
}

func tinyEnv(t *testing.T, bin string, out *bytes.Buffer) *env {
	return &env{bin: bin, dir: t.TempDir(), seed: 7, seconds: 1, procs: 2, tiny: true, out: out}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	bin := buildMatchd(t)
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(tinyEnv(t, bin, &out), w.Name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d\n%s", w.Name, traced, res.Correct, res.Attempted, out.String())
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %q", w.Name, traced, m.Name, got, ok, m.Unit)
				}
				if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s`).Match(out.Bytes()) {
					t.Errorf("%s traced=%v: no line for %s", w.Name, traced, m.Name)
				}
			}
		}
	}
}

func TestTamperedAnswerCountsAsFailed(t *testing.T) {
	bin := buildMatchd(t)
	for _, w := range []string{"match-small", "codec"} {
		var out bytes.Buffer
		e := tinyEnv(t, bin, &out)
		e.tamper = 5
		res, err := run(e, w, false)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w, err, out.String())
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: tampered answers not caught: correct=%v failed=%d of %d\n%s", w, res.Correct, res.Failed, res.Attempted, out.String())
		}
		m := regexp.MustCompile(`(?m)^fail_ratio\s+(\S+)`).FindSubmatch(out.Bytes())
		if m == nil {
			t.Fatalf("%s: no fail_ratio line\n%s", w, out.String())
		}
		if v, err := strconv.ParseFloat(string(m[1]), 64); err != nil || v <= 0 {
			t.Errorf("%s: fail_ratio %s, want > 0", w, m[1])
		}
	}
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range []string{"match-small", "match-bulk", "codec", "dict-churn"} {
		e := &env{seed: 3, seconds: 1, procs: 2, tiny: true}
		a, err := newBench(e, w)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newBench(e, w)
		e2 := *e
		e2.seed = 4
		c, _ := newBench(&e2, w)
		if a.hash() != b.hash() || a.hash() == c.hash() {
			t.Errorf("%s: stream hashes %s %s (seed 3) and %s (seed 4)", w, a.hash(), b.hash(), c.hash())
		}
	}
}
