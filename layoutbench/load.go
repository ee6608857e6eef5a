package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Per-request flags recorded by the load loop.
const (
	flagOwnerEntry = 1 << iota // entered at its shape class's owner
	flagForwarded              // entered at a node that does not own it
	flagCold                   // some decision's source was not the cache
)

// sample is one completed request of a phase.
type sample struct {
	ns    int64  // latency
	end   int64  // completion, ns after the phase started
	ok    uint16 // 2xx decisions it carried
	flags uint8
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	elapsed   time.Duration
	samples   []sample
	requests  [3]int64 // HTTP requests sent, by kind
	decisions [3]int64 // decisions attempted, by kind
	ok        int64    // 2xx decisions
	failed    int64    // decisions lost to non-2xx, transport or item errors
	rejected  int64    // 429 responses
}

// checker gates a phase's responses. In the warm-up it records each
// class's decision; afterwards every answer must come from the cache and
// match that decision, whichever node it entered.
type checker struct {
	w    *workload
	warm bool

	mu       sync.Mutex
	problems []string
	count    int
	sources  map[string]int // decisions by source
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return nil
	}
	return fmt.Errorf("%d correctness violations, first: %v", c.count, c.problems)
}

// decisionWire is the part of a decision the gate reads.
type decisionWire struct {
	Chosen   string `json:"chosen"`
	Chunk    string `json:"chunk"`
	Variant  string `json:"variant"`
	Source   string `json:"source"`
	Degraded bool   `json:"degraded"`
}

func (d *decisionWire) candidate(kind int) string {
	if kind == kindPair {
		return d.Chosen
	}
	return d.Chosen + "/" + d.Chunk + "/" + d.Variant
}

// check validates one 2xx response body and returns how many of its
// decisions failed (malformed, errored or degraded) and whether any was
// cold.
func (c *checker) check(r *request, fresh *freshShape, body []byte) (failed int, cold bool) {
	var ds []*decisionWire
	switch r.kind {
	case kindBatch:
		var resp struct {
			Decisions []struct {
				Decision *decisionWire `json:"decision"`
				Error    string        `json:"error"`
			} `json:"decisions"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Decisions) != len(r.classes) {
			c.fail("malformed batch response (%d bytes): %v", len(body), err)
			return len(r.classes), false
		}
		for i, it := range resp.Decisions {
			if it.Error != "" || it.Decision == nil {
				c.fail("batch item %d failed: %q", i, it.Error)
				failed++
				ds = append(ds, nil)
				continue
			}
			ds = append(ds, it.Decision)
		}
	default:
		var resp struct {
			Decision *decisionWire `json:"decision"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.Decision == nil {
			c.fail("malformed %s response (%d bytes): %v", kindPath[r.kind], len(body), err)
			return 1, false
		}
		ds = append(ds, resp.Decision)
	}
	for i, d := range ds {
		if d == nil {
			continue
		}
		if d.Chosen == "" || d.Source == "" || d.Degraded {
			c.fail("%s: incomplete or degraded decision %+v", kindPath[r.kind], *d)
			failed++
			continue
		}
		cand := d.candidate(r.kind)
		if d.Source != "cache" {
			cold = true
		}
		c.mu.Lock()
		if c.sources == nil {
			c.sources = map[string]int{}
		}
		c.sources[d.Source]++
		c.mu.Unlock()
		if fresh != nil {
			fresh.chosen = cand
			continue
		}
		cl := c.w.classes[r.classes[i]]
		switch {
		case c.warm:
			c.mu.Lock()
			cl.chosen = cand
			c.mu.Unlock()
		case d.Source != "cache":
			c.fail("class %d answered from %q after warm-up, want cache", r.classes[i], d.Source)
		case cand != cl.chosen:
			c.fail("class %d answered %s, warm-up decided %s", r.classes[i], cand, cl.chosen)
		}
	}
	return failed, cold
}

// loader runs closed-loop phases against a ring: a fixed set of workers,
// each sending its next request only when the previous one returned.
type loader struct {
	targets []string
	client  *http.Client
}

func newLoader(r *ring, workers int) *loader {
	d := &loader{}
	for _, nd := range r.nodes {
		d.targets = append(d.targets, nd.url)
	}
	// At most one connection per worker and node: callers are training
	// jobs that block on their decision, never a connection flood.
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			IdleConnTimeout:     time.Minute,
		},
	}
	return d
}

func (d *loader) close() { d.client.CloseIdleConnections() }

// run drives steps from next on workers closed-loop clients until the
// deadline passes or, with a zero deadline, until next reports no more
// steps.
func (d *loader) run(workers int, deadline time.Time, next func() (step, bool), fresh *freshShapes, chk *checker) phaseResult {
	var res phaseResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local phaseResult
			local.samples = make([]sample, 0, 1<<15)
			var buf bytes.Buffer
			for deadline.IsZero() || time.Now().Before(deadline) {
				st, more := next()
				if !more {
					break
				}
				r := st.req
				var fs *freshShape
				if r == nil {
					fs = fresh.next(st.freshKind)
					r = fs.req
				}
				items := int64(len(r.classes))
				if r.kind != kindBatch {
					items = 1
				}
				local.requests[r.kind]++
				local.decisions[r.kind] += items
				t0 := time.Now()
				status, err := d.post(d.targets[st.target]+kindPath[r.kind], r.body, &buf)
				t1 := time.Now()
				ns := t1.Sub(t0).Nanoseconds()
				var flags uint8
				var ok int64
				switch {
				case err != nil:
					chk.fail("%s via node %d: %v", kindPath[r.kind], st.target, err)
					local.failed += items
				case status/100 != 2:
					if status == http.StatusTooManyRequests {
						local.rejected++
					}
					chk.fail("%s via node %d: status %d: %.200s", kindPath[r.kind], st.target, status, buf.Bytes())
					local.failed += items
				default:
					failed, cold := chk.check(r, fs, buf.Bytes())
					ok = items - int64(failed)
					local.failed += int64(failed)
					local.ok += ok
					if cold {
						flags |= flagCold
					}
				}
				if r.owner >= 0 {
					if r.owner == st.target {
						flags |= flagOwnerEntry
					} else {
						flags |= flagForwarded
					}
				}
				local.samples = append(local.samples, sample{ns: ns, end: t1.Sub(start).Nanoseconds(), ok: uint16(ok), flags: flags})
			}
			mu.Lock()
			res.samples = append(res.samples, local.samples...)
			for k := range res.requests {
				res.requests[k] += local.requests[k]
				res.decisions[k] += local.decisions[k]
			}
			res.ok += local.ok
			res.failed += local.failed
			res.rejected += local.rejected
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// post sends one request and reads the whole reply into buf, so the
// keep-alive connection is reused.
func (d *loader) post(url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// listSteps serves a fixed list of steps once, in order.
func listSteps(steps []step) func() (step, bool) {
	var i atomic.Int64
	return func() (step, bool) {
		k := i.Add(1) - 1
		if k >= int64(len(steps)) {
			return step{}, false
		}
		return steps[k], true
	}
}

// cycleSteps serves a sequence endlessly, wrapping at its end.
func cycleSteps(seq []step) func() (step, bool) {
	var i atomic.Int64
	return func() (step, bool) {
		return seq[(i.Add(1)-1)%int64(len(seq))], true
	}
}
