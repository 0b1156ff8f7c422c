package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// node is one matchd process started by the benchmark.
type node struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// startCluster launches n matchd processes on free loopback ports. With
// n > 1 they form a cluster (n1..nN). flags returns node i's extra flags.
func startCluster(bin, dir string, n int, flags func(i int) []string) ([]*node, error) {
	ports := make([]int, n)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	var peers []string
	for i, p := range ports {
		peers = append(peers, fmt.Sprintf("n%d=http://127.0.0.1:%d", i+1, p))
	}
	var nodes []*node
	for i, p := range ports {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", p)}
		if n > 1 {
			args = append(args, "-cluster-peers", strings.Join(peers, ","), "-cluster-self", fmt.Sprintf("n%d", i+1))
		}
		args = append(args, flags(i)...)
		nd, err := startNode(bin, dir, fmt.Sprintf("n%d", i+1), p, args)
		if err != nil {
			stopAll(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		if err := nd.waitHealthy(30 * time.Second); err != nil {
			stopAll(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// live holds every matchd process not yet waited for, so that killLive can
// stop them when the benchmark itself is told to stop.
var live struct {
	sync.Mutex
	nodes  map[*node]struct{}
	closed bool // set by killLive: no further starts
}

func startNode(bin, dir, name string, port int, args []string) (*node, error) {
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("matchd-%s-%d.log", name, port)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping it, the kernel kills matchd.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	live.Lock()
	defer live.Unlock()
	if live.closed {
		logf.Close()
		return nil, errors.New("start matchd: benchmark is stopping")
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start matchd: %w", err)
	}
	nd := &node{name: name, url: fmt.Sprintf("http://127.0.0.1:%d", port), cmd: cmd, done: make(chan struct{})}
	if live.nodes == nil {
		live.nodes = map[*node]struct{}{}
	}
	live.nodes[nd] = struct{}{}
	go func() {
		nd.err = cmd.Wait()
		logf.Close()
		live.Lock()
		delete(live.nodes, nd)
		live.Unlock()
		close(nd.done)
	}()
	return nd, nil
}

// killLive kills every matchd process still running, waits for each to
// end, and refuses later starts.
func killLive() {
	live.Lock()
	live.closed = true
	var nodes []*node
	for nd := range live.nodes {
		nodes = append(nodes, nd)
	}
	live.Unlock()
	for _, nd := range nodes {
		_ = nd.cmd.Process.Kill()
	}
	for _, nd := range nodes {
		<-nd.done
	}
}

// waitHealthy polls /healthz until it answers 200.
func (nd *node) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-nd.done:
			return fmt.Errorf("matchd %s exited during start: %v", nd.name, nd.err)
		default:
		}
		resp, err := http.Get(nd.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("matchd %s not healthy after %s", nd.name, limit)
}

// stop sends SIGTERM, waits for the drain, and kills after a grace period.
func (nd *node) stop() {
	_ = nd.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below returns at once
	select {
	case <-nd.done:
	case <-time.After(15 * time.Second):
		_ = nd.cmd.Process.Kill()
		<-nd.done
	}
}

func stopAll(nodes []*node) {
	for _, nd := range nodes {
		nd.stop()
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func (nd *node) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", nd.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// newClient returns an HTTP client holding at most conns connections per
// host: the load generator never has more requests in flight than that.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends one JSON request and reads the whole answer.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func getJSON(c *http.Client, url string, dst any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// createDict registers a pattern set and returns its id.
func createDict(c *http.Client, base string, body []byte) (string, error) {
	st, b, err := post(context.Background(), c, base+"/v1/dicts", body)
	if err != nil {
		return "", err
	}
	if st != http.StatusCreated {
		return "", fmt.Errorf("create dict: %d %s", st, bytes.TrimSpace(b))
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return "", fmt.Errorf("create dict: %w", err)
	}
	return r.ID, nil
}

// waitDenseReady polls GET /v1/dicts on every node until each id is
// resident with a compiled dense automaton on some node.
func waitDenseReady(c *http.Client, nodes []*node, ids []string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ready := map[string]bool{}
		for _, nd := range nodes {
			var list struct {
				Dicts []struct {
					ID    string `json:"id"`
					Dense bool   `json:"dense"`
				} `json:"dicts"`
			}
			if err := getJSON(c, nd.url+"/v1/dicts", &list); err != nil {
				return err
			}
			for _, d := range list.Dicts {
				if d.Dense {
					ready[d.ID] = true
				}
			}
		}
		missing := 0
		for _, id := range ids {
			if !ready[id] {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d dictionaries not dense-ready after %s", missing, len(ids), limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// metricsSnap is the part of GET /metrics the benchmark reads.
type metricsSnap struct {
	PRAM map[string]struct {
		Ops   int64 `json:"ops"`
		Work  int64 `json:"work"`
		Depth int64 `json:"depth"`
	} `json:"pram"`
	Registry struct {
		Evictions int64 `json:"evictions"`
	} `json:"registry"`
	Limiter struct {
		Rejected int64 `json:"rejected"`
	} `json:"limiter"`
	Persist struct {
		CacheHits   int64 `json:"cacheHits"`
		CacheMisses int64 `json:"cacheMisses"`
		Loads       int64 `json:"loads"`
	} `json:"persist"`
	Dense struct {
		Served     int64 `json:"served"`
		Fallback   int64 `json:"fallback"`
		VerifyPass int64 `json:"verifyPass"`
		VerifyFail int64 `json:"verifyFail"`
	} `json:"dense"`
	Cz struct {
		Served   int64 `json:"served"`
		Fallback int64 `json:"fallback"`
	} `json:"czsearch"`
	Batch struct {
		Batches       int64   `json:"batches"`
		Requests      int64   `json:"requests"`
		SoloFallbacks int64   `json:"soloFallbacks"`
		DelayHist     []int64 `json:"delayHistPow2Micros"`
	} `json:"batch"`
	Cluster struct {
		Proxied          int64 `json:"proxied"`
		Hedged           int64 `json:"hedged"`
		HedgeWon         int64 `json:"hedgeWon"`
		ReplicationPulls int64 `json:"replicationPulls"`
	} `json:"cluster"`
	Resilience struct {
		RPC *rpcSnap `json:"rpc"`
	} `json:"resilience"`
	Timeouts int64 `json:"timeouts"`
}

// rpcSnap is the cluster-mode resilience.rpc section.
type rpcSnap struct {
	RetriesSpent     int64 `json:"retriesSpent"`
	SlowStrikes      int64 `json:"slowStrikes"`
	BreakerFastFails int64 `json:"breakerFastFails"`
}

func readMetrics(c *http.Client, nodes []*node) ([]metricsSnap, error) {
	out := make([]metricsSnap, len(nodes))
	for i, nd := range nodes {
		if err := getJSON(c, nd.url+"/metrics", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
