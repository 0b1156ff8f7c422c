package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ahocorasick"
)

// dict-churn: a two-node cluster (-replicas 1, -max-dicts 8, a cache
// directory each); all traffic to node 1, closed loop, nproc clients. One
// operation in ten creates a never-seen k=128 dictionary; the rest match a
// 4 KiB text against a dictionary drawn Zipf-wise (newest first) from those
// already created.
type dictChurn struct {
	e      *env
	corpus []byte

	mu    sync.Mutex
	dicts map[int]*churnDict // by dictionary number
	acs   map[int]*ahocorasick.Automaton

	stream string
}

// churnDict is one dictionary of the stream and its create's outcome.
type churnDict struct {
	done chan struct{} // closed once the create answered
	id   string        // valid after done; "" when the create failed
}

const (
	churnInitial = 8  // dictionaries created during setup
	churnEvery   = 10 // one operation in churnEvery creates
	churnHashOps = 4096
)

func newDictChurn(e *env) *dictChurn {
	b := &dictChurn{e: e, dicts: map[int]*churnDict{}, acs: map[int]*ahocorasick.Automaton{}}
	b.corpus = newRNG(e.seed, "dict-churn/corpus").markov(1<<20, 26)
	h := newStreamHash()
	for i := 0; i < churnHashOps; i++ {
		if c, create := b.createOf(i); create {
			h.add("create", dictBody(b.patterns(c)), 0)
			continue
		}
		c, text := b.matchOf(i)
		h.add(fmt.Sprintf("match/%d", c), textBody(text), 0)
	}
	b.stream = h.sum()
	return b
}

// createOf reports whether operation i is a create, and of which number.
func (b *dictChurn) createOf(i int) (int, bool) {
	return churnInitial + i/churnEvery, i%churnEvery == churnEvery-1
}

// patterns generates dictionary number c.
func (b *dictChurn) patterns(c int) [][]byte {
	return newRNG(b.e.seed, fmt.Sprintf("dict-churn/dict/%d", c)).dictionary(128, 4, 24, 26, 'a')
}

// matchOf generates match operation i: its dictionary number and text.
func (b *dictChurn) matchOf(i int) (int, []byte) {
	r := newRNG(b.e.seed, fmt.Sprintf("dict-churn/op/%d", i))
	created := churnInitial + i/churnEvery // dictionaries created by earlier operations
	c := created - 1 - r.zipfRank(created)
	n := 4 << 10
	off := r.IntN(len(b.corpus) - n)
	text := append([]byte(nil), b.corpus[off:off+n]...)
	r.plant(text, b.patterns(c), 256)
	return c, text
}

// dict returns the stream's record of dictionary c, creating it.
func (b *dictChurn) dict(c int) *churnDict {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.dicts[c]
	if !ok {
		d = &churnDict{done: make(chan struct{})}
		b.dicts[c] = d
	}
	return d
}

func (b *dictChurn) nodes() int { return 2 }
func (b *dictChurn) flags(i int, dir string) []string {
	return []string{"-replicas", "1", "-max-dicts", "8", "-cache-dir", filepath.Join(dir, fmt.Sprintf("cache-n%d", i+1))}
}
func (b *dictChurn) hash() string { return b.stream }

func (b *dictChurn) setup(c *http.Client, nodes []*node) error {
	b.mu.Lock()
	b.dicts = map[int]*churnDict{}
	b.mu.Unlock()
	var ids []string
	for k := 0; k < churnInitial; k++ {
		id, err := createDict(c, nodes[0].url, dictBody(b.patterns(k)))
		if err != nil {
			return err
		}
		d := b.dict(k)
		d.id = id
		close(d.done)
		ids = append(ids, id)
	}
	return waitDenseReady(c, nodes, ids, time.Minute)
}

func (b *dictChurn) op(base string) func(ctx context.Context, w *worker, i int) {
	return func(ctx context.Context, w *worker, i int) {
		if c, create := b.createOf(i); create {
			d := b.dict(c)
			body := dictBody(b.patterns(c))
			st, resp := w.do(ctx, "create", base+"/v1/dicts", body, 0, time.Time{}, checker{})
			if st == http.StatusCreated {
				d.id = idField(resp)
			}
			close(d.done)
			return
		}
		c, text := b.matchOf(i)
		d := b.dict(c)
		<-d.done // an earlier operation, already taken by a worker
		if d.id == "" {
			w.skip("match") // its create failed
			return
		}
		w.do(ctx, "match", base+"/v1/dicts/"+d.id+"/match", textBody(text), len(text), time.Time{},
			checker{full: func(body []byte) error { return hitsSlow(body, b.want(c, text), len(text)) }})
	}
}

// want is the expected hit list; it runs in deferred checks only.
func (b *dictChurn) want(c int, text []byte) []byte {
	ac, ok := b.acs[c]
	if !ok {
		ac = ahocorasick.New(b.patterns(c))
		b.acs[c] = ac
	}
	return expectedHits(ac, text)
}

func (b *dictChurn) measure(c *http.Client, nodes []*node) (*phase, map[string]metric) {
	op := b.op(nodes[0].url)
	// The warm-up and the measured phase continue one stream, so every
	// create is of a never-seen dictionary.
	var next int
	b.e.discard(closedLoopFrom(c, b.e.procs, 0, 0, warmup(b.e), op, &next))
	p := closedLoopFrom(c, b.e.procs, b.e.tamper, next, seconds(b.e), op, &next)
	return p, stdMetrics(p, latBlock)
}

func (b *dictChurn) replay(t *tracer) error {
	var dicts [][][]byte
	var reqs []replayReq
	for c := 0; c < 24; c++ {
		dicts = append(dicts, b.patterns(c))
	}
	for i := 0; len(reqs) < 128; i++ {
		if _, create := b.createOf(i); create {
			continue
		}
		c, text := b.matchOf(i)
		if c < len(dicts) {
			reqs = append(reqs, replayReq{kind: "match", dict: c, text: text, body: textBody(text)})
		}
	}
	return t.replayMatch(dicts, reqs)
}

// idField reads the "id" of a create answer.
func idField(body []byte) string {
	var r struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &r) != nil {
		return ""
	}
	return r.ID
}
