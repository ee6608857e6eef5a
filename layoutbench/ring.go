package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/learn"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// node is one in-process layoutd: a serve.Server behind its own loopback
// listener, with the exec pool and cluster runtime a daemon would own.
type node struct {
	id    string
	url   string
	srv   *serve.Server
	peers *cluster.Peers
	ex    *exec.Exec
	hs    *http.Server
	done  chan error
}

// ring is a 3-node layoutd cluster running in this process. One process
// keeps the figures steady on a small host: separate daemons plus a load
// generator contend for the same few cores and the scheduler's placement
// then dominates the spread.
type ring struct {
	nodes []*node
	ids   []string
}

// bootRing starts n nodes configured as `layoutd` configures itself from
// its default flags, each with -peers listing all n and its own -node-id.
func bootRing(n int) (*ring, error) {
	lns := make([]net.Listener, n)
	members := make([]cluster.Member, n)
	r := &ring{}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		members[i] = cluster.Member{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
		r.ids = append(r.ids, members[i].ID)
	}
	for i, ln := range lns {
		peers, err := cluster.NewPeers(members[i].ID, members, cluster.Options{})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			r.close()
			return nil, err
		}
		// Requests log at debug, below layoutd's default info level; the
		// logger is kept so disabled-level checks cost what they cost there.
		logger, err := telemetry.NewLogger(io.Discard, "info", "text")
		if err != nil {
			return nil, err
		}
		ex := exec.New(0, exec.Static)
		srv := serve.NewServer(serve.Config{
			Policy: core.Hybrid, Exec: ex, Stats: &exec.Stats{},
			History: &core.History{}, PairHistory: &core.PairHistory{},
			Seed: 1, MaxInflight: 4, MaxBatch: serve.MaxBatchItems,
			Timeout: 30 * time.Second, MaxBody: 8 << 20, CacheCapacity: 256,
			Logger: logger, TraceCapacity: telemetry.DefaultTraceCapacity,
			SLOLatencyObjective:   500 * time.Millisecond,
			TraceFetchTimeout:     3 * time.Second,
			TraceFetchPeerTimeout: time.Second,
			Cluster:               peers,
			ModelLoader: func(b []byte) (core.FormatPredictor, error) {
				f, err := learn.Load(bytes.NewReader(b))
				if err != nil {
					return nil, err
				}
				return f, nil
			},
			PairModelLoader: func(b []byte) (core.PairPredictor, error) {
				f, err := learn.LoadPair(bytes.NewReader(b))
				if err != nil {
					return nil, err
				}
				return f, nil
			},
		})
		nd := &node{
			id: members[i].ID, url: members[i].Addr, srv: srv, peers: peers, ex: ex,
			hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
			done: make(chan error, 1),
		}
		go func(ln net.Listener) { nd.done <- nd.hs.Serve(ln) }(ln)
		r.nodes = append(r.nodes, nd)
	}
	return r, nil
}

// owners returns the ring as the nodes see it; every node holds the same
// member list, so node 0's view is everyone's.
func (r *ring) owners() *cluster.Ring { return r.nodes[0].peers.Ring() }

// close stops the ring: gossip flushes while every peer still listens,
// then each node shuts its listener, drains and releases its pool.
func (r *ring) close() error {
	for _, nd := range r.nodes {
		nd.peers.Stop()
	}
	var errs []error
	for _, nd := range r.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 35*time.Second)
		if err := nd.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s shutdown: %w", nd.id, err))
		}
		cancel()
		nd.srv.Drain()
		nd.ex.Close()
		if err := <-nd.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("%s serve: %w", nd.id, err))
		}
	}
	return errors.Join(errs...)
}

// scrape fetches every node's /metrics exposition.
func (r *ring) scrape(client *http.Client) ([]string, error) {
	out := make([]string, len(r.nodes))
	for i, nd := range r.nodes {
		resp, err := client.Get(nd.url + "/metrics")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s /metrics: status %d", nd.id, resp.StatusCode)
		}
		out[i] = string(b)
	}
	return out, nil
}

// counter sums the samples of one counter or gauge family whose labels
// contain label (empty: every series) in one exposition.
func counter(text, name, label string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if label != "" && !strings.Contains(rest, label) {
			continue
		}
		if i := strings.Index(rest, " # "); i >= 0 {
			rest = rest[:i] // exemplar
		}
		f := strings.Fields(rest)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// delta sums a counter's growth across the ring between two scrapes.
func delta(before, after []string, name, label string) float64 {
	var d float64
	for i := range after {
		d += counter(after[i], name, label) - counter(before[i], name, label)
	}
	return d
}

// histDelta merges a histogram's growth across the ring between two
// scrapes; match selects series by label (nil: all).
func histDelta(before, after []string, name string, match map[string]string) (telemetry.HistogramSnapshot, error) {
	var total telemetry.HistogramSnapshot
	for i := range after {
		a, ok := telemetry.ParseHistogram(after[i], name, match)
		if !ok {
			continue
		}
		if b, ok := telemetry.ParseHistogram(before[i], name, match); ok {
			if err := a.Subtract(b); err != nil {
				return total, err
			}
		}
		if total.Bounds == nil {
			total = a
			continue
		}
		if err := total.Merge(a); err != nil {
			return total, err
		}
	}
	return total, nil
}
