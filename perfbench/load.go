package main

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A request's outcome as the client saw it.
const (
	outOK        = iota // 2xx and the answer checked out (or its check is pending)
	outHTTP             // non-2xx status
	outTransport        // no response
	outWrong            // 2xx with a wrong answer
)

// sample is one request's record.
type sample struct {
	kind      string
	status    int     // HTTP status, 0 on a transport error
	outcome   int     // out*
	latMs     float64 // from due (open loop) or send (closed loop) to body read
	lateMs    float64 // generator lag (see worker.late); -1 when none applies
	bytes     int     // input text bytes the request stands for
	respBytes int     // answer body bytes
	attempts  int     // the answer's "attempts" field, 0 when absent
	sentNs    int64   // send time, relative to the phase start
	doneNs    int64   // completion time, relative to the phase start
}

// worker is one load-generator goroutine's state; a phase merges them at the
// end, so recording takes no lock.
type worker struct {
	c        *http.Client
	samples  []sample
	deferred []deferredCheck
	start    time.Time
	late     float64   // open loop: wake-up lag past the due time of an idle worker; closed loop: gap since the previous answer; -1 when none
	tamper   int       // corrupt every tamper-th checked answer (self-test)
	answers  int       // checked answers so far, for tamper
	closed   bool      // closed loop: late is the gap since the previous answer
	lastDone time.Time // closed loop: when the previous answer was read
}

// checker judges a 2xx answer. quick, when set, accepts it at once with a
// cheap comparison; an answer it does not accept is kept, and full judges
// it after the timed section. A non-nil error from full marks it wrong.
type checker struct {
	quick func(body []byte) bool
	full  func(body []byte) error
}

// deferredCheck runs after the timed phase, with the sample it judges.
type deferredCheck struct {
	idx   int
	check func() error
}

// do sends one request and records it; check judges a 2xx answer.
func (w *worker) do(ctx context.Context, kind, url string, body []byte, textBytes int, due time.Time, check checker) (int, []byte) {
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	if w.closed && !w.lastDone.IsZero() {
		w.late = ms(sent.Sub(w.lastDone))
	}
	st, resp, err := post(ctx, w.c, url, body)
	done := time.Now()
	w.lastDone = done
	if w.tamper > 0 && check.full != nil {
		if w.answers++; w.answers%w.tamper == 0 {
			resp = tamper(resp)
		}
	}
	s := sample{kind: kind, status: st, latMs: ms(done.Sub(due)), lateMs: w.late, bytes: textBytes,
		respBytes: len(resp), attempts: attemptsField(resp),
		sentNs: int64(sent.Sub(w.start)), doneNs: int64(done.Sub(w.start))}
	w.late = -1
	switch {
	case err != nil:
		s.outcome = outTransport
	case st < 200 || st > 299:
		s.outcome = outHTTP
	case check.full == nil || check.quick != nil && check.quick(resp):
	default:
		w.deferred = append(w.deferred, deferredCheck{idx: len(w.samples), check: func() error { return check.full(resp) }})
	}
	w.samples = append(w.samples, s)
	return st, resp
}

var attemptsKey = []byte(`"attempts":`)

// attemptsField reads the answer's "attempts" count without decoding it.
func attemptsField(body []byte) int {
	i := bytes.Index(body, attemptsKey)
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range body[i+len(attemptsKey):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// tamper returns a corrupted copy of an answer: the first hit's position
// moved by one, or, for an answer without one, the body cut short.
func tamper(body []byte) []byte {
	out := append([]byte(nil), body...)
	if i := bytes.Index(out, []byte(`"pos":`)); i >= 0 {
		j := i + len(`"pos":`)
		if out[j] == '9' {
			out[j] = '8'
		} else {
			out[j]++
		}
		return out
	}
	return out[:len(out)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// phase is the merged record of one timed interval.
type phase struct {
	dur     time.Duration
	samples []sample
	wrong   []error
}

// finish runs the deferred checks (outside the timed section) and merges the
// workers' records.
func finish(ws []*worker, dur time.Duration) *phase {
	p := &phase{dur: dur}
	for _, w := range ws {
		for _, d := range w.deferred {
			if err := d.check(); err != nil {
				w.samples[d.idx].outcome = outWrong
				p.wrong = append(p.wrong, err)
			}
		}
		p.samples = append(p.samples, w.samples...)
	}
	return p
}

// skip records an operation that could not be sent as failed.
func (w *worker) skip(kind string) {
	now := int64(time.Since(w.start))
	w.samples = append(w.samples, sample{kind: kind, outcome: outHTTP, lateMs: -1, sentNs: now, doneNs: now})
}

// closedLoop runs n workers, each sending op(i) for the next stream index i
// as soon as its previous operation completes, until dur has passed.
func closedLoop(c *http.Client, n, tamper int, dur time.Duration, op func(ctx context.Context, w *worker, i int)) *phase {
	var next int
	return closedLoopFrom(c, n, tamper, 0, dur, op, &next)
}

// closedLoopFrom is closedLoop starting at stream index first; it stores the
// first index not taken in *next.
func closedLoopFrom(c *http.Client, n, tamper, first int, dur time.Duration, op func(ctx context.Context, w *worker, i int), next *int) *phase {
	var idx atomic.Int64
	idx.Store(int64(first))
	ws := make([]*worker, n)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for k := range ws {
		ws[k] = &worker{c: c, start: start, late: -1, tamper: tamper, closed: true}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(end) {
				op(context.Background(), w, int(idx.Add(1)-1))
			}
		}(ws[k])
	}
	wg.Wait()
	*next = int(idx.Load())
	return finish(ws, time.Since(start))
}

// arrivals returns n due offsets in [0, dur) drawn from the seed: sorted
// uniform times, which is a Poisson process conditioned on its count. A
// fixed count keeps the offered load, and so the sample size, the same on
// every run.
func arrivals(seed uint64, purpose string, n int, dur time.Duration) []time.Duration {
	r := newRNG(seed, purpose)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop sends op(i) at due[i] whatever the answers' pace, with at most n
// requests in flight. Latency runs from the due time, so a request that
// waits for a free connection is charged the wait. A worker that was idle
// at a request's due time records how late it woke (the generator's own
// lag).
func openLoop(c *http.Client, n, tamper int, due []time.Duration, dur time.Duration, op func(ctx context.Context, w *worker, i int, due time.Time)) *phase {
	var next atomic.Int64
	ws := make([]*worker, n)
	start := time.Now()
	var wg sync.WaitGroup
	for k := range ws {
		ws[k] = &worker{c: c, start: start, late: -1, tamper: tamper}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					sleep(d)
					w.late = ms(time.Since(at))
				}
				op(context.Background(), w, i, at)
			}
		}(ws[k])
	}
	wg.Wait()
	return finish(ws, time.Since(start))
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep wakes through
// the runtime's poller, whose millisecond timeout made the generator run
// about a millisecond late at the median; the kernel timer is tens of
// microseconds late.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// stats summarises a phase.
type stats struct {
	attempted, failed, wrong int
	okBytes                  int64
	lats                     []float64 // successful requests, sorted
}

func (p *phase) stats() stats {
	var s stats
	for _, x := range p.samples {
		s.attempted++
		if x.outcome != outOK {
			s.failed++
			if x.outcome == outWrong {
				s.wrong++
			}
			continue
		}
		s.okBytes += int64(x.bytes)
		s.lats = append(s.lats, x.latMs)
	}
	sort.Float64s(s.lats)
	return s
}

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// lateP99 is the 99th percentile of the generator's wake-up lag over
// requests that found a worker idle.
func (p *phase) lateP99() float64 {
	var l []float64
	for _, x := range p.samples {
		if x.lateMs >= 0 {
			l = append(l, x.lateMs)
		}
	}
	sort.Float64s(l)
	return quantile(l, 0.99)
}

// backlogAt counts requests due by t that had not been sent by t.
func backlogAt(due []time.Duration, p *phase, t time.Duration) int {
	dueBy := sort.Search(len(due), func(i int) bool { return due[i] > t })
	sent := 0
	for _, x := range p.samples {
		if x.sentNs <= int64(t) {
			sent++
		}
	}
	return max(dueBy-sent, 0)
}
