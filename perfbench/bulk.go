package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ahocorasick"
)

// match-bulk: closed loop, nproc clients, 1 MiB texts. Three requests in
// four go to a k=1024 σ=64 dictionary over uniform σ=64 text (few hits),
// the fourth to a k=64 dictionary over DNA (dense hits). The scan, halo
// sharding, base64 and hit encoding dominate; batching is bypassed.
type matchBulk struct {
	e      *env
	dicts  [][][]byte
	reqs   []matchReq // the stream cycles over these
	ids    []string
	stream string
}

func newMatchBulk(e *env) *matchBulk {
	b := &matchBulk{e: e}
	r := newRNG(e.seed, "match-bulk/dicts")
	b.dicts = [][][]byte{
		r.dictionary(1024, 4, 24, 64, 0),
		r.dictionary(64, 4, 12, 4, 0),
	}
	for i, p := range b.dicts[1] { // σ=4 patterns over ACGT, like the text
		for j, c := range p {
			b.dicts[1][i][j] = "ACGT"[c]
		}
	}
	acs := []*ahocorasick.Automaton{ahocorasick.New(b.dicts[0]), ahocorasick.New(b.dicts[1])}
	n := 1 << 20
	if e.tiny {
		n = 64 << 10
	}
	tr := newRNG(e.seed, "match-bulk/texts")
	h := newStreamHash()
	// Eight distinct texts in stream order: σ=64, σ=64, σ=64, DNA, twice.
	for i := 0; i < 8; i++ {
		q := matchReq{}
		if i%4 == 3 {
			q.dict, q.text = 1, tr.dna(n)
		} else {
			q.dict, q.text = 0, tr.uniform(n, 64, 0)
		}
		q.body, q.want = textBody(q.text), expectedHits(acs[q.dict], q.text)
		b.reqs = append(b.reqs, q)
		h.add(fmt.Sprintf("match/%d", q.dict), q.body, 0)
	}
	b.stream = h.sum()
	return b
}

func (b *matchBulk) nodes() int                 { return 1 }
func (b *matchBulk) flags(int, string) []string { return nil }
func (b *matchBulk) hash() string               { return b.stream }
func (b *matchBulk) setup(c *http.Client, nodes []*node) error {
	ids, err := createAll(c, nodes[0].url, b.dicts)
	if err != nil {
		return err
	}
	b.ids = ids
	return waitDenseReady(c, nodes, ids, time.Minute)
}

func (b *matchBulk) op(base string) func(ctx context.Context, w *worker, i int) {
	return func(ctx context.Context, w *worker, i int) {
		q := b.reqs[i%len(b.reqs)]
		w.do(ctx, "match", base+"/v1/dicts/"+b.ids[q.dict]+"/match", q.body, len(q.text), time.Time{},
			hitsChecker(q.want, len(q.text)))
	}
}

func (b *matchBulk) measure(c *http.Client, nodes []*node) (*phase, map[string]metric) {
	op := b.op(nodes[0].url)
	b.e.discard(closedLoop(c, b.e.procs, 0, warmup(b.e), op))
	p := closedLoop(c, b.e.procs, b.e.tamper, seconds(b.e), op)
	return p, stdMetrics(p, latBlock)
}

func (b *matchBulk) replay(t *tracer) error {
	var reqs []replayReq
	for _, q := range b.reqs {
		reqs = append(reqs, replayReq{kind: "match", dict: q.dict, text: q.text, body: q.body})
	}
	return t.replayMatch(b.dicts, reqs)
}

// seconds is the measured phase's length.
func seconds(e *env) time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// warmup is the discarded closed-loop warm-up before the measured phase.
func warmup(e *env) time.Duration { return seconds(e) / 16 }
