package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/ahocorasick"
)

// match-small: open loop, Poisson arrivals, 64 B–4 KiB texts against four
// resident k=256 dictionaries. Per-request fixed costs dominate here.
type matchSmall struct {
	e      *env
	dicts  [][][]byte
	reqs   []matchReq
	ids    []string
	sched  []time.Duration // the fixed-rate phase's due times
	stream string
}

// matchReq is one pre-built match request and its expected hit list.
type matchReq struct {
	dict int
	text []byte
	body []byte
	want []byte
}

const (
	smallRung     = 40    // the fixed open-loop rate is ladder rung 40, 566 req/s
	smallLimitMs  = 10.0  // capacity ladder: p99 limit
	smallLateMs   = 2.5   // capacity ladder: generator-lag p99 limit
	ladderBase    = 100.0 // ladder rung k is ladderBase·2^(k/ladderPerOct) req/s
	ladderPerOct  = 16
	ladderSamples = 1200 // requests per ladder step
)

// rung is the rate of ladder rung k.
func rung(k int) float64 { return ladderBase * math.Pow(2, float64(k)/ladderPerOct) }

func newMatchSmall(e *env) *matchSmall {
	b := &matchSmall{e: e}
	r := newRNG(e.seed, "match-small/dicts")
	for d := 0; d < 4; d++ {
		b.dicts = append(b.dicts, r.dictionary(256, 4, 24, 26, 'a'))
	}
	acs := make([]*ahocorasick.Automaton, len(b.dicts))
	for d, p := range b.dicts {
		acs[d] = ahocorasick.New(p)
	}
	pool := max(64, int(rung(smallRung)*b.phaseDur().Seconds())) // each text once per phase
	tr := newRNG(e.seed, "match-small/texts")
	corpus := tr.markov(1<<20, 26)
	h := newStreamHash()
	// Text lengths are log-uniform over 64 B–4 KiB, stratified: one draw
	// from each of pool equal-probability bands, shuffled, so the mean
	// length barely moves between seeds.
	sizes := make([]int, pool)
	for i := range sizes {
		sizes[i] = int(math.Exp(math.Log(64) + (float64(i)+tr.Float64())/float64(pool)*math.Log(4096.0/64)))
	}
	tr.Shuffle(pool, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for i := 0; i < pool; i++ {
		d := tr.IntN(len(b.dicts))
		n := sizes[i]
		off := tr.IntN(len(corpus) - n)
		text := append([]byte(nil), corpus[off:off+n]...)
		tr.plant(text, b.dicts[d], 64)
		q := matchReq{dict: d, text: text, body: textBody(text), want: expectedHits(acs[d], text)}
		b.reqs = append(b.reqs, q)
	}
	b.sched = arrivals(e.seed, "match-small/schedule", int(rung(smallRung)*b.phaseDur().Seconds()), b.phaseDur())
	for i, due := range b.sched {
		q := b.reqs[i%len(b.reqs)]
		h.add(fmt.Sprintf("match/%d", q.dict), q.body, int64(due))
	}
	b.stream = h.sum()
	return b
}

// phaseDur is the fixed-rate phase's length; the capacity ladder gets the
// rest of the run's seconds.
func (b *matchSmall) phaseDur() time.Duration {
	return time.Duration(0.4 * b.e.seconds * float64(time.Second))
}

func (b *matchSmall) nodes() int                 { return 1 }
func (b *matchSmall) flags(int, string) []string { return nil }
func (b *matchSmall) hash() string               { return b.stream }
func (b *matchSmall) setup(c *http.Client, nodes []*node) error {
	ids, err := createAll(c, nodes[0].url, b.dicts)
	if err != nil {
		return err
	}
	b.ids = ids
	return waitDenseReady(c, nodes, ids, time.Minute)
}

// send issues request i of the pool.
func (b *matchSmall) send(ctx context.Context, w *worker, base string, i int, due time.Time) {
	q := b.reqs[i%len(b.reqs)]
	w.do(ctx, "match", base+"/v1/dicts/"+b.ids[q.dict]+"/match", q.body, len(q.text), due,
		hitsChecker(q.want, len(q.text)))
}

func (b *matchSmall) measure(c *http.Client, nodes []*node) (*phase, map[string]metric) {
	base := nodes[0].url
	// Warm-up: a short burst at the fixed rate, discarded.
	wdur := b.phaseDur() / 8
	warm := arrivals(b.e.seed, "match-small/warmup", int(rung(smallRung)*wdur.Seconds()), wdur)
	b.e.discard(openLoop(c, b.e.procs, 0, warm, wdur, func(ctx context.Context, w *worker, i int, due time.Time) {
		b.send(ctx, w, base, i+len(b.reqs)/2, due)
	}))

	p := openLoop(c, b.e.procs, b.e.tamper, b.sched, b.phaseDur(), func(ctx context.Context, w *worker, i int, due time.Time) {
		b.send(ctx, w, base, i, due)
	})
	m := stdMetrics(p, openBlock)
	capacity, steps := b.ladder(c, base, b.meets(p, b.sched, b.phaseDur(), rung(smallRung)))
	m["capacity_rps"] = metric{capacity, "req/s", steps}
	return p, m
}

// ladder estimates the highest rate of the fixed geometric rate ladder
// that meets the limit: p99 ≤ smallLimitMs, no failed request, generator
// lag p99 ≤ smallLateMs, and no backlog left growing at the step's end. The
// fixed-rate phase, whose verdict is fixedOK, is the first step. The search
// is a staircase: up after a step that meets the limit, down after one that
// fails, a quarter octave at a time, halving the stride at each reversal
// down to one rung, until the ladder's time budget is spent. The result is
// the median rung of the one-rung steps, the rate that meets the limit half
// the time; before any, the highest rung that met it. On a shared machine a
// single step's verdict can turn on a burst of contention from outside; the
// median over many steps does not turn on any one of them.
func (b *matchSmall) ladder(c *http.Client, base string, fixedOK bool) (float64, int) {
	budget := time.Duration((b.e.seconds - b.phaseDur().Seconds()) * float64(time.Second))
	start := time.Now()
	k, ok, stride := smallRung, fixedOK, ladderPerOct/4
	best := -1         // highest rung that met the limit
	var fine []float64 // rungs of the one-rung steps
	for steps := 1; ; steps++ {
		fmt.Fprintf(b.e.out, "ladder step %d: %.0f req/s %s\n", steps, rung(k), map[bool]string{true: "meets limit", false: "fails limit"}[ok])
		if stride == 1 {
			fine = append(fine, float64(k))
		}
		if ok {
			best = max(best, k)
		}
		next := k + stride
		if !ok {
			next = k - stride
		}
		if next < 0 || time.Since(start) >= budget {
			switch {
			case len(fine) > 0:
				return ladderBase * math.Pow(2, median(fine)/ladderPerOct), steps
			case best >= 0:
				return rung(best), steps
			}
			return 0, steps
		}
		k = next
		was := ok
		ok = b.step(c, base, rung(k), steps+1)
		if ok != was {
			stride = max(stride/2, 1)
		}
	}
}

// step runs one ladder rung and reports whether it met the limit.
func (b *matchSmall) step(c *http.Client, base string, rate float64, n int) bool {
	count := ladderSamples
	if b.e.tiny {
		count = 40
	}
	dur := time.Duration(float64(count) / rate * float64(time.Second))
	due := arrivals(b.e.seed+uint64(n), "match-small/ladder", count, dur)
	p := openLoop(c, b.e.procs, 0, due, dur, func(ctx context.Context, w *worker, i int, at time.Time) {
		b.send(ctx, w, base, i*7, at)
	})
	b.e.discard(p)
	return b.meets(p, due, dur, rate)
}

// meets applies the capacity limit to one open-loop phase and prints the
// verdict's inputs.
func (b *matchSmall) meets(p *phase, due []time.Duration, dur time.Duration, rate float64) bool {
	failed, p99, late, backlog := p.stats().failed, p.latency(0.99, openBlock), p.lateP99(), backlogAt(due, p, dur)
	fmt.Fprintf(b.e.out, "  %.0f req/s: failed %d, p99 %.2f ms, generator lag p99 %.2f ms, backlog at end %d\n", rate, failed, p99, late, backlog)
	return failed == 0 && p99 <= smallLimitMs && late <= smallLateMs && float64(backlog) <= rate*smallLimitMs/1000
}

func (b *matchSmall) replay(t *tracer) error {
	var reqs []replayReq
	for i := 0; i < len(b.reqs) && i < 256; i++ {
		q := b.reqs[i]
		reqs = append(reqs, replayReq{kind: "match", dict: q.dict, text: q.text, body: q.body})
	}
	return t.replayMatch(b.dicts, reqs)
}

// createAll registers each pattern set in order and returns their ids.
func createAll(c *http.Client, base string, dicts [][][]byte) ([]string, error) {
	ids := make([]string, len(dicts))
	for i, d := range dicts {
		id, err := createDict(c, base, dictBody(d))
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}
