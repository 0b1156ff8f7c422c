// Command perfbench is the repository's end-to-end benchmark of matchd.
//
// It starts matchd (built from the same checkout) as separate processes,
// drives one of four workloads over loopback HTTP from this single process
// with at most nproc connections, checks every answer, and prints each
// metric by name with its unit and sample count. The last line of standard
// output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also prices each layer from outside (trace.go) and reports per-layer
// metrics instead. README.md maps metrics to layers and workloads.
//
// Usage (run.sh builds both binaries first):
//
//	perfbench -matchd BIN -workdir DIR -workload match-small -seed 1 -seconds 12 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is one run's configuration.
type env struct {
	bin     string  // matchd binary
	dir     string  // scratch directory for logs, cache dirs and traces
	seed    uint64  // input seed
	seconds float64 // measured time
	procs   int     // load-generator connections = nproc
	tiny    bool    // self-test scale: small inputs, short phases
	tamper  int     // corrupt every tamper-th checked answer (self-test); 0 = off
	out     io.Writer

	unmeasuredWrong int // wrong answers in warm-up and ladder phases
}

// discard drops a phase that defines no metric (warm-up, a ladder step),
// keeping its wrong answers: they still make the run incorrect.
func (e *env) discard(p *phase) {
	for _, err := range p.wrong {
		fmt.Fprintln(e.out, "wrong answer (unmeasured phase):", err)
	}
	e.unmeasuredWrong += len(p.wrong)
}

// bench is one workload.
type bench interface {
	// nodes is the number of matchd processes; flags are node i's extra
	// flags, with dir a fresh directory for this start.
	nodes() int
	flags(i int, dir string) []string
	// hash is the request-stream digest; the same seed gives the same hash.
	hash() string
	// setup creates the initial dictionaries and waits until they are
	// dense-ready.
	setup(c *http.Client, nodes []*node) error
	// measure runs the timed phases (warm-up included) and returns the
	// phase whose requests define the end-to-end metrics.
	measure(c *http.Client, nodes []*node) (*phase, map[string]metric)
	// replay runs the traced in-process replay (trace.go).
	replay(t *tracer) error
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, for the human-readable lines
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var e env
	workload := flag.String("workload", "", "match-small | match-bulk | codec | dict-churn")
	flag.Uint64Var(&e.seed, "seed", 1, "input seed")
	flag.Float64Var(&e.seconds, "seconds", 12, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&e.bin, "matchd", "", "matchd binary")
	flag.StringVar(&e.dir, "workdir", "", "scratch directory")
	flag.Parse()
	e.procs = runtime.NumCPU()
	// Told to stop: take the matchd processes down with the benchmark.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		killLive()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		os.Exit(1)
	}()
	e.out = os.Stdout
	res, err := run(&e, *workload, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func newBench(e *env, name string) (bench, error) {
	switch name {
	case "match-small":
		return newMatchSmall(e), nil
	case "match-bulk":
		return newMatchBulk(e), nil
	case "codec":
		return newCodec(e), nil
	case "dict-churn":
		return newDictChurn(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupReps is how many times an untraced run sets up from scratch; setup_s
// is their median.
const setupReps = 11

// run executes one workload and assembles its result.
func run(e *env, name string, traced bool) (*result, error) {
	if e.bin == "" || e.dir == "" {
		return nil, fmt.Errorf("-matchd and -workdir are required")
	}
	if _, err := os.Stat(e.bin); err != nil {
		return nil, fmt.Errorf("matchd binary: %w", err)
	}
	e.dir = filepath.Join(e.dir, fmt.Sprintf("%s-%d-%d", name, e.seed, time.Now().UnixNano()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer removeCaches(e.dir)
	b, err := newBench(e, name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.out, "workload %s seed %d stream_sha256 %s\n", name, e.seed, b.hash())

	c := newClient(e.procs)
	defer c.CloseIdleConnections()
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	var nodes []*node
	defer func() { stopAll(nodes) }()
	for r := 0; r < reps; r++ {
		stopAll(nodes)
		nodes = nil
		c.CloseIdleConnections()
		dir := filepath.Join(e.dir, fmt.Sprintf("setup%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		ns, err := startCluster(e.bin, dir, b.nodes(), func(i int) []string { return b.flags(i, dir) })
		if err != nil {
			return nil, err
		}
		nodes = ns
		if err := b.setup(c, nodes); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	before, err := readMetrics(c, nodes)
	if err != nil {
		return nil, err
	}
	p, m := b.measure(c, nodes)
	after, err := readMetrics(c, nodes)
	if err != nil {
		return nil, err
	}
	rss, nodeCount := 0.0, len(nodes)
	for _, nd := range nodes {
		v, err := nd.peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("peak RSS of %s: %w", nd.name, err)
		}
		rss += v
	}
	stopAll(nodes)
	nodes = nil

	st := p.stats()
	printKinds(e.out, p)
	for _, err := range p.wrong {
		fmt.Fprintln(e.out, "wrong answer:", err)
	}
	res := &result{Correct: st.wrong == 0 && e.unmeasuredWrong == 0, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}
	failRatio := metric{float64(st.failed) / float64(max(st.attempted, 1)), "1", st.attempted}
	if !traced {
		m["setup_s"] = metric{median(setups), "s", len(setups)}
		m["rss_peak_MB"] = metric{rss, "MB", nodeCount}
		m["fail_ratio"] = failRatio
		printMetrics(e.out, m)
		delete(m, "fail_ratio") // reported in the JSON line as failed/attempted
		res.Metrics = m
		return res, nil
	}

	lm := map[string]metric{"fail_ratio": failRatio}
	counterLayers(p, before, after, lm)
	tr := newTracer(e)
	if err := b.replay(tr); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := tr.finish(lm); err != nil {
		return nil, err
	}
	printMetrics(e.out, lm)
	res.Metrics = lm
	return res, nil
}

// printKinds prints each request kind's count, failures and latency
// quartiles, to show which kind a pooled percentile falls in.
func printKinds(w io.Writer, p *phase) {
	byKind := map[string]*phase{}
	var kinds []string
	for _, x := range p.samples {
		k, ok := byKind[x.kind]
		if !ok {
			k = &phase{}
			byKind[x.kind] = k
			kinds = append(kinds, x.kind)
		}
		k.samples = append(k.samples, x)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		st := byKind[kind].stats()
		fmt.Fprintf(w, "kind %-8s n=%d failed=%d latency ms p25 %.3f p50 %.3f p75 %.3f max %.3f\n", kind, st.attempted, st.failed,
			quantile(st.lats, 0.25), quantile(st.lats, 0.5), quantile(st.lats, 0.75), quantile(st.lats, 1))
	}
}

// removeCaches deletes the snapshot directories a run leaves, keeping the
// matchd logs and the trace.
func removeCaches(dir string) {
	for _, pattern := range []string{"setup*/cache-*", "trace-store"} {
		paths, _ := filepath.Glob(filepath.Join(dir, pattern)) // the patterns are well formed
		for _, p := range paths {
			if err := os.RemoveAll(p); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-34s %14.6g %-10s n=%d\n", k, m[k].Value, m[k].Unit, m[k].n)
	}
}
