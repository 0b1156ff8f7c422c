package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ahocorasick"
)

// codec: closed loop, nproc clients; each iteration compresses a 32 KiB
// repetitive document (§4), searches the returned container in the
// compressed domain (czsearch), and parses a 16 KiB σ=4 text against a
// prefix-closed dictionary (§5).
type codec struct {
	e       *env
	czDict  [][]byte
	docs    [][]byte
	docBody [][]byte
	docWant [][]byte
	pDict   [][]byte
	ptexts  [][]byte
	pBody   [][]byte
	pOpt    []int
	oracle  *parseOracle
	ids     []string // czsearch dictionary, parse dictionary
	stream  string
}

const codecPool = 32 // distinct documents and parse texts per seed

func newCodec(e *env) *codec {
	b := &codec{e: e}
	docLen, parseLen := 32<<10, 16<<10
	if e.tiny {
		docLen, parseLen = 8<<10, 2<<10
	}
	r := newRNG(e.seed, "codec/docs")
	seen := map[string]bool{}
	for i := 0; i < codecPool; i++ {
		doc := r.repetitive(docLen, 4<<10, 26, 0.01)
		b.docs = append(b.docs, doc)
		// Four patterns from each document, so searches find hits.
		for len(b.czDict) < 4*(i+1) {
			n := 4 + r.IntN(13)
			off := r.IntN(len(doc) - n)
			if p := doc[off : off+n]; !seen[string(p)] {
				seen[string(p)] = true
				b.czDict = append(b.czDict, append([]byte(nil), p...))
			}
		}
	}
	ac := ahocorasick.New(b.czDict)
	for _, doc := range b.docs {
		b.docBody = append(b.docBody, textBody(doc))
		b.docWant = append(b.docWant, expectedHits(ac, doc))
	}
	pr := newRNG(e.seed, "codec/parse")
	b.pDict = pr.prefixClosed(64, 12, 4, 'a')
	b.oracle = newParseOracle(b.pDict)
	h := newStreamHash()
	for i := 0; i < codecPool; i++ {
		t := pr.uniform(parseLen, 4, 'a')
		opt, err := b.oracle.optimum(t)
		if err != nil {
			panic(fmt.Sprintf("generated parse text has no parse: %v", err)) // the dictionary holds every letter
		}
		b.ptexts, b.pBody, b.pOpt = append(b.ptexts, t), append(b.pBody, textBody(t)), append(b.pOpt, opt)
		h.add("compress", b.docBody[i], 0)
		h.add("parse/1", b.pBody[i], 0)
	}
	b.stream = h.sum()
	return b
}

func (b *codec) nodes() int                 { return 1 }
func (b *codec) flags(int, string) []string { return nil }
func (b *codec) hash() string               { return b.stream }
func (b *codec) setup(c *http.Client, nodes []*node) error {
	ids, err := createAll(c, nodes[0].url, [][][]byte{b.czDict, b.pDict})
	if err != nil {
		return err
	}
	b.ids = ids
	return waitDenseReady(c, nodes, ids, time.Minute)
}

// op runs iteration i: compress, compressed search on the returned
// container, parse.
func (b *codec) op(base string) func(ctx context.Context, w *worker, i int) {
	return func(ctx context.Context, w *worker, i int) {
		k := i % codecPool
		doc := b.docs[k]
		st, resp := w.do(ctx, "compress", base+"/v1/compress", b.docBody[k], len(doc), time.Time{},
			checker{full: func(body []byte) error { return checkCompress(body, doc) }})
		if st == http.StatusOK {
			var cr struct {
				DataB64 string `json:"dataB64"`
			}
			if json.Unmarshal(resp, &cr) == nil {
				body, _ := json.Marshal(map[string]string{"dataB64": cr.DataB64})
				want := b.docWant[k]
				w.do(ctx, "czmatch", base+"/v1/dicts/"+b.ids[0]+"/match/compressed/buffered", body, len(doc), time.Time{},
					hitsChecker(want, len(doc)))
			}
		}
		text, opt := b.ptexts[k], b.pOpt[k]
		w.do(ctx, "parse", base+"/v1/dicts/"+b.ids[1]+"/parse", b.pBody[k], len(text), time.Time{},
			checker{full: func(body []byte) error { return b.oracle.check(body, text, opt) }})
	}
}

func (b *codec) measure(c *http.Client, nodes []*node) (*phase, map[string]metric) {
	op := b.op(nodes[0].url)
	b.e.discard(closedLoop(c, b.e.procs, 0, warmup(b.e), op))
	p := closedLoop(c, b.e.procs, b.e.tamper, seconds(b.e), op)
	return p, stdMetrics(p, latBlock)
}

func (b *codec) replay(t *tracer) error {
	return t.replayCodec(b)
}
