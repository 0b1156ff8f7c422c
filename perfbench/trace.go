package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/czsearch"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/persist"
	"repro/internal/pram"
	"repro/internal/server"
)

// The traced run prices each layer from outside the program. It replays a
// fixed sample of the workload's requests against an in-process server.New
// configured like matchd's defaults, and times calls into each module's
// public entry points on the same inputs. Every timed call is a span kept
// in memory (name, start, end, parent, request id) and written out at the
// end with each layer's self time. No span is recorded inside the program.

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a request's root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Bytes  int    `json:"bytes,omitempty"` // input bytes the call processed
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span prices: the part of its name before the dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// parentHeader carries the client span's id to the server-side wrapper.
const parentHeader = "X-Perfbench-Span"

type tracer struct {
	e  *env
	t0 time.Time

	mu    sync.Mutex
	on    bool // record spans; off for the untraced pass of the overhead pair
	spans []span
	next  int

	vals     map[string]float64 // metrics the replay computes directly
	overhead []float64          // traced/untraced wall-time ratios − 1
}

func newTracer(e *env) *tracer {
	return &tracer{e: e, t0: time.Now(), on: true, vals: map[string]float64{}}
}

// run times f as a span named name under parent; it returns the span id.
func (t *tracer) run(name string, req, parent, nbytes int, f func()) int {
	start := time.Now()
	f()
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Bytes: nbytes})
	return t.next
}

// reserve allocates a span id now, for a span whose children finish before
// it does; record fills it in.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// replayReq is one sampled request.
type replayReq struct {
	kind string // "match" or "parse"
	dict int
	text []byte
	body []byte
}

// inproc is an in-process server.New with matchd's default settings,
// reachable both through Handler() and over a loopback socket whose
// handler records a server-side span.
type inproc struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	c    *http.Client
	done chan struct{}
}

func (t *tracer) startInproc() (*inproc, error) {
	srv, err := server.New(server.Config{
		DenseMode: server.DenseAuto,
		BatchMode: server.BatchAuto, // matchd's -batch default
		Log:       log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(parentHeader))
		req, _ := strconv.Atoi(r.Header.Get(parentHeader + "-Req"))
		t.run("server.handler", req, parent, 0, func() { h.ServeHTTP(w, r) })
	})
	ip := &inproc{srv: srv, hs: &http.Server{Handler: wrapped}, url: "http://" + ln.Addr().String(),
		c: newClient(1), done: make(chan struct{})}
	go func() {
		_ = ip.hs.Serve(ln) // returns ErrServerClosed on close
		close(ip.done)
	}()
	return ip, nil
}

func (ip *inproc) close() {
	ip.c.CloseIdleConnections()
	_ = ip.hs.Close()
	<-ip.done
	ip.srv.Close()
}

// create registers a dictionary in process and waits for its dense form.
func (ip *inproc) create(patterns [][]byte) (string, error) {
	id, err := createDict(ip.c, ip.url, dictBody(patterns))
	if err != nil {
		return "", err
	}
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, info := range ip.srv.Registry().Infos() {
			if info.ID == id && info.Dense {
				return id, nil
			}
		}
	}
	return "", fmt.Errorf("dictionary %s never became dense-ready", id)
}

// serveOne replays one request through the three server entry points:
// loopback HTTP (with the handler span nested inside), Handler().ServeHTTP
// without a socket, and Server.Match/Parse without framing.
func (t *tracer) serveOne(ip *inproc, id string, q replayReq, req, root int) error {
	route := "/v1/dicts/" + id + "/" + q.kind
	var st int
	var err error
	rtt := t.reserve()
	start := time.Now()
	hreq, _ := http.NewRequest(http.MethodPost, ip.url+route, bytes.NewReader(q.body))
	hreq.Header.Set(parentHeader, strconv.Itoa(rtt))
	hreq.Header.Set(parentHeader+"-Req", strconv.Itoa(req))
	resp, err := ip.c.Do(hreq)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		st = resp.StatusCode
	}
	t.record(span{ID: rtt, Parent: root, Req: req, Name: "net.rtt", Start: t.since(start), End: t.since(time.Now()), Bytes: len(q.text)})
	if err != nil || st != http.StatusOK {
		return fmt.Errorf("replay %s: status %d, %v", route, st, err)
	}

	h := ip.srv.Handler()
	rec := httptest.NewRecorder()
	t.run("server.ServeHTTP", req, root, len(q.text), func() {
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(q.body)))
	})
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replay %s in process: status %d", route, rec.Code)
	}

	t.run("server.call", req, root, len(q.text), func() {
		if q.kind == "parse" {
			_, err = ip.srv.Parse(context.Background(), id, q.text)
		} else {
			_, _, _, err = ip.srv.Match(context.Background(), id, q.text)
		}
	})
	return err
}

// modules holds the bench-side copies of a workload's dictionaries that
// the module probes call into.
type modules struct {
	dicts []*core.Dictionary
	auts  []*dense.Automaton
}

// prepare preprocesses, compiles, saves and loads each dictionary under
// spans, keeping the results for the probes.
func (t *tracer) prepare(patterns [][][]byte) (*modules, error) {
	store, err := persist.Open(filepath.Join(t.e.dir, "trace-store"))
	if err != nil {
		return nil, err
	}
	mod := &modules{}
	var table int64
	for k, p := range patterns {
		req := -1 - k // set-up calls carry negative request ids
		m := pram.New(t.e.procs)
		var d *core.Dictionary
		t.run("core.Preprocess", req, 0, totalLen(p), func() { d = core.Preprocess(m, p, core.Options{}) })
		m.Close()
		var a *dense.Automaton
		t.run("dense.CompileDictionary", req, 0, totalLen(p), func() { a, err = dense.CompileDictionary(d, dense.Options{}) })
		if err != nil {
			return nil, err
		}
		table += a.Stats().TableBytes
		key := persist.KeyFor(p, core.Options{})
		t.run("persist.PutBundle", req, 0, totalLen(p), func() { _, err = store.PutBundle(key, d, a) })
		if err != nil {
			return nil, err
		}
		enc := persist.EncodeBundle(d, a)
		t.run("persist.LoadBundle", req, 0, len(enc), func() { _, _, err = persist.LoadBundle(enc) })
		if err != nil {
			return nil, err
		}
		mod.dicts, mod.auts = append(mod.dicts, d), append(mod.auts, a)
	}
	t.vals["dense.table_bytes"] = float64(table)
	return mod, nil
}

func totalLen(p [][]byte) int {
	n := 0
	for _, w := range p {
		n += len(w)
	}
	return n
}

// probe budgets: input bytes per module across one replay, so slow
// engines (tree walk, §4 parse) stay within the run's time.
const (
	budgetTree   = 2 << 20
	budgetLZ     = 128 << 10
	budgetLZText = 32 << 10 // per request
	budgetParse  = 256 << 10
)

// probeModules times the module entry points on the sampled requests'
// texts, one module at a time so each runs with its own tables in cache:
// the dense scan, the Las Vegas tree walk, §4 compression, compressed-domain
// search of those containers. Request ids tie each span to its request;
// module spans have no parent, since the program's own call tree is not
// traced.
func (t *tracer) probeModules(mod *modules, reqs []replayReq) error {
	m := pram.New(t.e.procs)
	defer m.Close()
	for i, q := range reqs {
		out := make([]core.Match, len(q.text))
		t.run("dense.MatchInto", i, 0, len(q.text), func() { mod.auts[q.dict].MatchInto(q.text, out) })
	}
	budget := budgetTree
	for i, q := range reqs {
		if budget <= 0 {
			break
		}
		budget -= len(q.text)
		var attempts int
		t.run("core.MatchLasVegas", i, 0, len(q.text), func() { _, attempts = mod.dicts[q.dict].MatchLasVegas(m, q.text) })
		t.vals["probe.core.attempts"] += float64(attempts)
		t.vals["probe.core.calls"]++
	}
	containers := make([][]byte, len(reqs))
	budget = budgetLZ
	for i, q := range reqs {
		if budget <= 0 {
			break
		}
		doc := q.text[:min(len(q.text), budgetLZText)]
		budget -= len(doc)
		var c lz.Compressed
		var attempts int
		var err error
		t.run("lz.CompressVerified", i, 0, len(doc), func() { c, attempts, err = lz.CompressVerified(m, doc) })
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := lz.EncodeStream(&buf, c); err != nil {
			return err
		}
		containers[i] = buf.Bytes()
		t.vals["probe.lz.in"] += float64(len(doc))
		t.vals["probe.lz.out"] += float64(buf.Len())
		t.vals["probe.lz.attempts"] += float64(attempts)
		t.vals["probe.lz.calls"]++
	}
	for i, q := range reqs {
		if containers[i] == nil {
			continue
		}
		sc := czsearch.NewScanner(mod.auts[q.dict], czsearch.Config{})
		var st czsearch.Stats
		var err error
		t.run("czsearch.Scanner.Run", i, 0, len(containers[i]), func() {
			var dec *lz.Decoder
			if dec, err = lz.NewDecoder(bytes.NewReader(containers[i])); err == nil {
				st, err = sc.Run(context.Background(), dec, func(czsearch.Event) error { return nil })
			}
		})
		if err != nil {
			return err
		}
		t.vals["probe.cz.represented"] += float64(st.BytesRepresented)
		t.vals["probe.cz.touched"] += float64(st.BytesTouched)
		t.vals["probe.cz.memoHits"] += float64(st.MemoHits)
		t.vals["probe.cz.memoLookups"] += float64(st.MemoHits + st.MemoMisses)
	}
	return nil
}

// probeParse times the §5 optimal parse of the requests' texts against a
// prefix-closed dictionary.
func (t *tracer) probeParse(reqs []replayReq, parseDict *core.Dictionary) error {
	m := pram.New(t.e.procs)
	defer m.Close()
	budget := budgetParse
	for i, q := range reqs {
		if budget <= 0 {
			break
		}
		budget -= len(q.text)
		var refs []int32
		var err error
		t.run("staticdict.CompressStatic", i, 0, len(q.text), func() { refs, err = parseDict.CompressStatic(m, q.text) })
		if err != nil {
			return err
		}
		t.vals["probe.parse.phrases"] += float64(len(refs))
		t.vals["probe.parse.bytes"] += float64(len(q.text))
	}
	return nil
}

// parseDictFor builds the prefix-closed dictionary the §5 probe parses a
// match workload's texts with: the prefix closure of the first patterns of
// its first dictionary plus every byte the texts use.
func parseDictFor(patterns [][]byte, reqs []replayReq) *core.Dictionary {
	seen := map[string]bool{}
	var out [][]byte
	add := func(w []byte) {
		if !seen[string(w)] {
			seen[string(w)] = true
			out = append(out, append([]byte(nil), w...))
		}
	}
	for _, q := range reqs {
		for _, c := range q.text {
			add([]byte{c})
		}
	}
	for _, p := range patterns[:min(32, len(patterns))] {
		for l := 1; l <= len(p); l++ {
			add(p[:l])
		}
	}
	return core.Preprocess(pram.NewSequential(), out, core.Options{})
}

// replayMatch is the traced replay of a match workload.
func (t *tracer) replayMatch(patterns [][][]byte, reqs []replayReq) error {
	mod, err := t.prepare(patterns)
	if err != nil {
		return err
	}
	ip, err := t.startInproc()
	if err != nil {
		return err
	}
	defer ip.close()
	ids := make([]string, len(patterns))
	for k, p := range patterns {
		if ids[k], err = ip.create(p); err != nil {
			return err
		}
	}
	if err := t.overheadPair(func() error {
		for i, q := range reqs {
			if err := t.serveOne(ip, ids[q.dict], q, i, 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for i, q := range reqs {
		root := t.reserve()
		start := time.Now()
		if err := t.serveOne(ip, ids[q.dict], q, i, root); err != nil {
			return err
		}
		t.record(span{ID: root, Req: i, Name: "loadgen.request", Start: t.since(start), End: t.since(time.Now()), Bytes: len(q.text)})
	}
	if err := t.probeModules(mod, reqs); err != nil {
		return err
	}
	if err := t.probeParse(reqs, parseDictFor(patterns[0], reqs)); err != nil {
		return err
	}
	var bodies [][]byte
	for _, q := range reqs {
		if q.dict == reqs[0].dict {
			bodies = append(bodies, q.body)
		}
	}
	return t.hop(patterns[reqs[0].dict], bodies)
}

// replayCodec is the traced replay of the codec workload: compress and
// compressed search through the HTTP layers, parse through all three
// server entry points, and the module probes on the same inputs.
func (t *tracer) replayCodec(b *codec) error {
	mod, err := t.prepare([][][]byte{b.czDict, b.pDict})
	if err != nil {
		return err
	}
	ip, err := t.startInproc()
	if err != nil {
		return err
	}
	defer ip.close()
	czID, err := ip.create(b.czDict)
	if err != nil {
		return err
	}
	pID, err := ip.create(b.pDict)
	if err != nil {
		return err
	}
	var parses []replayReq
	for k := range b.ptexts {
		parses = append(parses, replayReq{kind: "parse", dict: 1, text: b.ptexts[k], body: b.pBody[k]})
	}
	if err := t.overheadPair(func() error {
		for i, q := range parses {
			if err := t.serveOne(ip, pID, q, i, 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var docs []replayReq
	for k := range b.docs {
		req := k
		docs = append(docs, replayReq{kind: "match", dict: 0, text: b.docs[k], body: b.docBody[k]})
		root := t.reserve()
		start := time.Now()
		var cont []byte
		t.run("net.rtt.compress", req, root, len(b.docs[k]), func() {
			var st int
			var body []byte
			if st, body, err = post(context.Background(), ip.c, ip.url+"/v1/compress", b.docBody[k]); err == nil && st == http.StatusOK {
				cont = body
			}
		})
		if cont == nil {
			return fmt.Errorf("replay compress failed: %v", err)
		}
		var cr struct {
			DataB64 string `json:"dataB64"`
		}
		if err := json.Unmarshal(cont, &cr); err != nil {
			return err
		}
		czBody, _ := json.Marshal(map[string]string{"dataB64": cr.DataB64})
		t.run("net.rtt.czmatch", req, root, len(b.docs[k]), func() {
			_, _, err = post(context.Background(), ip.c, ip.url+"/v1/dicts/"+czID+"/match/compressed/buffered", czBody)
		})
		if err != nil {
			return err
		}
		if err := t.serveOne(ip, pID, parses[k], req, root); err != nil {
			return err
		}
		t.record(span{ID: root, Req: req, Name: "loadgen.request", Start: t.since(start), End: t.since(time.Now())})
	}
	// Module probes: the documents through dense, the tree walk, lz and
	// czsearch with the search dictionary; the parse texts through §5.
	if err := t.probeModules(mod, docs); err != nil {
		return err
	}
	if err := t.probeParse(parses, mod.dicts[1]); err != nil {
		return err
	}
	return t.hop(b.czDict, b.docBody)
}

// overheadPair runs pass once to warm up, then untraced and traced three
// times each in alternating order, and keeps the traced/untraced wall-time
// ratios.
func (t *tracer) overheadPair(pass func() error) error {
	timed := func(on bool) (time.Duration, error) {
		t.mu.Lock()
		t.on = on
		t.mu.Unlock()
		start := time.Now()
		err := pass()
		return time.Since(start), err
	}
	if _, err := timed(false); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		off, err := timed(false)
		if err != nil {
			return err
		}
		on, err := timed(true)
		if err != nil {
			return err
		}
		t.overhead = append(t.overhead, on.Seconds()/off.Seconds()-1)
	}
	return nil
}

// hopBytes bounds the request bytes one hop probe sends.
const hopBytes = 16 << 20

// hop sends the same match request to a dictionary's owner and to the
// other node of a two-process matchd cluster (-replicas 1), alternating,
// and records the proxy hop as the difference of the medians.
func (t *tracer) hop(patterns [][]byte, bodies [][]byte) error {
	dir := filepath.Join(t.e.dir, "hop")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nodes, err := startCluster(t.e.bin, dir, 2, func(int) []string { return []string{"-replicas", "1"} })
	if err != nil {
		return err
	}
	defer stopAll(nodes)
	c := newClient(1)
	defer c.CloseIdleConnections()
	id, err := createDict(c, nodes[0].url, dictBody(patterns))
	if err != nil {
		return err
	}
	if err := waitDenseReady(c, nodes, []string{id}, time.Minute); err != nil {
		return err
	}
	owner, other := nodes[0], nodes[1]
	var list struct {
		Dicts []struct {
			ID string `json:"id"`
		} `json:"dicts"`
	}
	if err := getJSON(c, other.url+"/v1/dicts", &list); err != nil {
		return err
	}
	for _, d := range list.Dicts {
		if d.ID == id {
			owner, other = other, owner
		}
	}
	for i, sent := 0, 0; i < 64 && sent < hopBytes; i++ {
		body := bodies[i%len(bodies)]
		sent += 2 * len(body)
		for _, nd := range []*node{owner, other} {
			name := "cluster.owner"
			if nd == other {
				name = "cluster.proxied"
			}
			var st int
			t.run(name, 10000+i, 0, 0, func() { st, _, err = post(context.Background(), c, nd.url+"/v1/dicts/"+id+"/match", body) })
			if err != nil || st != http.StatusOK {
				return fmt.Errorf("hop probe via %s: status %d, %v", nd.name, st, err)
			}
		}
	}
	return nil
}

// finish derives the per-layer metrics from the spans, writes the spans and
// self times out, and adds the metrics to m.
func (t *tracer) finish(m map[string]metric) error {
	by := map[string][]span{}
	for _, s := range t.spans {
		by[s.Name] = append(by[s.Name], s)
	}
	p50us := func(name string) float64 {
		var d []float64
		for _, s := range by[name] {
			d = append(d, float64(s.dur())/1e3)
		}
		return median(d)
	}
	p50ms := func(name string) float64 { return p50us(name) / 1e3 }
	mbps := func(name string) float64 {
		var b int
		var d time.Duration
		for _, s := range by[name] {
			b += s.Bytes
			d += s.dur()
		}
		if d == 0 {
			return 0
		}
		return float64(b) / 1e6 / d.Seconds()
	}
	set := func(name, unit string, v float64, n int) { m[name] = metric{v, unit, n} }
	v := t.vals

	rtt, handler, call := p50us("net.rtt"), p50us("server.ServeHTTP"), p50us("server.call")
	set("server.rtt_p50_us", "us", rtt, len(by["net.rtt"]))
	set("server.handler_p50_us", "us", handler, len(by["server.ServeHTTP"]))
	set("server.call_p50_us", "us", call, len(by["server.call"]))
	set("server.framing_share", "1", ratio(handler-call, rtt), len(by["net.rtt"]))
	set("server.net_share", "1", ratio(rtt-handler, rtt), len(by["net.rtt"]))
	set("dense.scan_MBps", "MB/s", mbps("dense.MatchInto"), len(by["dense.MatchInto"]))
	set("dense.compile_ms", "ms", p50ms("dense.CompileDictionary"), len(by["dense.CompileDictionary"]))
	set("dense.table_bytes", "B", v["dense.table_bytes"], len(by["dense.CompileDictionary"]))
	set("core.preprocess_ms", "ms", p50ms("core.Preprocess"), len(by["core.Preprocess"]))
	set("core.match_MBps", "MB/s", mbps("core.MatchLasVegas"), len(by["core.MatchLasVegas"]))
	set("lz.compress_MBps", "MB/s", mbps("lz.CompressVerified"), len(by["lz.CompressVerified"]))
	set("lz.ratio", "B/B", ratio(v["probe.lz.out"], v["probe.lz.in"]), len(by["lz.CompressVerified"]))
	set("staticdict.parse_MBps", "MB/s", mbps("staticdict.CompressStatic"), len(by["staticdict.CompressStatic"]))
	set("staticdict.phrases_per_KiB", "1/KiB", ratio(v["probe.parse.phrases"], v["probe.parse.bytes"]/1024), len(by["staticdict.CompressStatic"]))
	set("czsearch.scan_MBps", "MB/s", ratio(v["probe.cz.represented"]/1e6, durSum(by["czsearch.Scanner.Run"]).Seconds()), len(by["czsearch.Scanner.Run"]))
	set("czsearch.touched_ratio", "1", ratio(v["probe.cz.touched"], v["probe.cz.represented"]), len(by["czsearch.Scanner.Run"]))
	set("czsearch.memo_hit_ratio", "1", ratio(v["probe.cz.memoHits"], v["probe.cz.memoLookups"]), len(by["czsearch.Scanner.Run"]))
	set("persist.load_ms", "ms", p50ms("persist.LoadBundle"), len(by["persist.LoadBundle"]))
	set("persist.save_ms", "ms", p50ms("persist.PutBundle"), len(by["persist.PutBundle"]))
	set("cluster.hop_p50_us", "us", p50us("cluster.proxied")-p50us("cluster.owner"), len(by["cluster.proxied"]))
	set("trace.overhead_share", "1", median(t.overhead), len(t.overhead))
	// The module probes' own attempt counts back the /metrics-derived
	// means where the workload sent no such request.
	if m["core.attempts_mean"].Value == 0 {
		set("core.attempts_mean", "1", ratio(v["probe.core.attempts"], v["probe.core.calls"]), int(v["probe.core.calls"]))
	}
	if m["lz.attempts_mean"].Value == 0 {
		set("lz.attempts_mean", "1", ratio(v["probe.lz.attempts"], v["probe.lz.calls"]), int(v["probe.lz.calls"]))
	}

	self := selfTimes(t.spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(t.e.out, "self time %-12s %10.3f ms\n", l, float64(self[l])/1e6)
	}
	path := filepath.Join(t.e.dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.spans, "selfTimeNs": self}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(t.e.out, "trace: %d spans written to %s\n", len(t.spans), path)
	return nil
}

func durSum(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of its interval its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, end := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.layer()] += (s.End - s.Start) - covered
	}
	return out
}
