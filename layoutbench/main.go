// Command layoutbench is the end-to-end and per-layer benchmark of the
// layoutd scheduling daemon. It boots a 3-node layoutd ring inside its
// own process, drives one named traffic mix against it in a closed loop,
// checks every answer, and prints every metric by name with its unit; the
// last line of standard output is one JSON object. With --trace 1 it also
// replays the mix's requests through the public function of each serving
// layer and reports each stage's own time. README.md defines the
// workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash layoutbench/run.sh --workload hit-small --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	ringNodes       = 3    // layoutd nodes in the ring
	setupRounds     = 7    // set-ups per run; setup_s is their median
	coldProbeShapes = 1024 // fresh shapes probed on the hit workloads
	// minWindowSamples is the fewest requests a latency window holds on
	// average, so that its p99 rests on at least ten samples.
	minWindowSamples = 1000
)

// endpoints are the data-plane routes the workloads drive, as the servers
// label them in /metrics.
var endpoints = []string{"schedule", "schedule-spgemm", "schedule-batch"}

// stageGapBound states the bounds on stage_sum_gap, the share of the
// servers' handler time on owner-entry hits that the replayed stages leave
// unexplained. On hit-shard the stages are nearly all of the work, but the
// replay builds each matrix through the allocating SamplesToMatrix where
// the batch handler reuses a pooled builder, so the stages may sum to more
// than the handler. On the tiny requests of hit-small and cold-mix the
// handler's trace recording, HTTP framing, metrics and response assembly,
// which the replay does not cover, cost about a third of the handler time.
func stageGapBound(workload string) (lo, hi float64) {
	if workload == "hit-shard" {
		return -0.4, 0.3
	}
	return -0.25, 0.6
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "traffic mix: hit-small, hit-shard or cold-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input of the workload is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced stage replay")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "layoutbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layoutbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report; its JSON form is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes  []string // human-readable context printed above the JSON
	checks []string // failed correctness or isolation checks
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
	r.Correct = false
}

func (r *result) print(f *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-42s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, c := range r.checks {
		fmt.Fprintln(f, "CHECK FAILED:", c)
	}
	b, _ := json.Marshal(r)
	fmt.Fprintln(f, string(b))
}

// env is a set-up ring with its workload warmed.
type env struct {
	ring        *ring
	w           *workload
	d           *loader
	warm        phaseResult
	warmSources map[string]int
}

func (e *env) close() error {
	e.d.close()
	return e.ring.close()
}

// setup boots the ring, generates the workload's inputs from seed and
// warms the decision cache with every class, each sent to its owner.
func setup(name string, seed int64, workers int) (*env, error) {
	r, err := bootRing(ringNodes)
	if err != nil {
		return nil, err
	}
	e := &env{ring: r, d: newLoader(r, workers)}
	e.w, err = buildWorkload(name, seed, r.owners(), r.ids)
	if err != nil {
		e.close()
		return nil, err
	}
	steps := make([]step, len(e.w.warm))
	for i, req := range e.w.warm {
		steps[i] = step{req: req, target: req.owner}
	}
	// One client at a time: every cold decision of the warm-up runs alone,
	// so its latency does not depend on how two measurements overlapped.
	chk := &checker{w: e.w, warm: true}
	e.warm = e.d.run(1, time.Time{}, listSteps(steps), nil, chk)
	e.warmSources = chk.sources
	if err := chk.err(); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func run(o options) (*result, error) {
	workers := runtime.NumCPU()
	var setups []float64
	var e *env
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		next, err := setup(o.workload, o.seed, workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			if err := next.close(); err != nil {
				return nil, err
			}
			continue
		}
		e = next
	}
	closed := false
	defer func() {
		if !closed {
			e.close()
		}
	}()
	w := e.w
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.note("workload %s seed %d: %d client workers, closed loop, %ds timed phase, 3-node in-process ring",
		o.workload, o.seed, workers, o.seconds)

	scrapeClient := &http.Client{Timeout: 30 * time.Second}
	before, err := e.ring.scrape(scrapeClient)
	if err != nil {
		return nil, err
	}
	var sampler *poolSampler
	if o.trace {
		sampler = startPoolSampler(e.ring)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	chk := &checker{w: w}
	load := e.d.run(workers, time.Now().Add(time.Duration(o.seconds)*time.Second), cycleSteps(w.seq), w.fresh, chk)
	runtime.ReadMemStats(&m1)
	var busy float64
	if sampler != nil {
		busy = sampler.stop()
	}
	after, err := e.ring.scrape(scrapeClient)
	if err != nil {
		return nil, err
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)

	// End-to-end figures of the timed phase.
	var attempted int64
	for _, n := range load.decisions {
		attempted += n
	}
	res.Attempted, res.Failed = attempted, load.failed
	lat := latencies(load.samples, 0)
	cold := latencies(load.samples, flagCold)
	coldFrom := "timed phase"
	if w.fresh == nil && !o.trace {
		// Hit workloads decide nothing fresh once warm: a probe of fresh
		// shapes, after the timed phase, measures their cold decisions.
		if cold, err = coldProbe(e, o.seed); err != nil {
			return nil, err
		}
		coldFrom = "cold probe"
	}
	win, width := windows(load.samples, load.elapsed)
	rate, rates := windowMedian(win, func(w window) float64 { return float64(w.ok) / width.Seconds() })
	p99, p99s := windowMedian(win, func(w window) float64 { return quantile(w.lat, 0.99) })
	res.set("decisions_per_s", rate, "1/s")
	res.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	res.set("latency_p99_ms", p99, "ms")
	res.set("setup_s", median(setups), "s")
	res.set("alloc_kb_per_decision", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/math.Max(float64(load.ok), 1), "KiB")
	// The latency records grow with throughput; they are the benchmark's
	// memory, not the ring's.
	records := float64(cap(load.samples)) * float64(unsafe.Sizeof(sample{}))
	res.set("live_heap_mb", (float64(m2.HeapInuse)-records)/(1<<20), "MiB")
	res.set("cold_decision_p50_ms", quantile(cold, 0.5), "ms")
	if len(cold) == 0 && !o.trace {
		res.fail("no cold decision was observed")
	}
	res.note("requests %d (schedule %d, spgemm %d, batch %d), decisions %d ok %d failed %d, failed_ratio %.6f",
		len(load.samples), load.requests[kindSMSV], load.requests[kindPair], load.requests[kindBatch],
		attempted, load.ok, load.failed, float64(load.failed)/math.Max(float64(attempted), 1))
	res.note("latency samples %d over %.2fs; cold decisions %d from the %s; setup rounds %v s",
		len(lat), load.elapsed.Seconds(), len(cold), coldFrom, setups)
	res.note("%d windows of %.2fs; decisions/s per window %.0f; p99 ms per window %.3g",
		len(win), width.Seconds(), rates, p99s)
	res.note("decision sources: warm-up %v, timed phase %v", e.warmSources, chk.sources)
	if err := chk.err(); err != nil {
		res.fail("%v", err)
	}
	if load.failed > 0 {
		res.fail("%d of %d decisions failed", load.failed, attempted)
	}

	// Isolation: what each workload exercises must not drift.
	httpReqs := float64(len(load.samples))
	forwarded := delta(before, after, "layoutd_cluster_forwards_total", "") / httpReqs
	measured := delta(before, after, "layoutd_measurements_total", "") +
		delta(before, after, "layoutd_spgemm_measurements_total", "")
	switch o.workload {
	case "hit-shard":
		if forwarded != 0 {
			res.fail("isolation: hit-shard forwarded share %.4f, want 0", forwarded)
		}
	case "hit-small":
		if forwarded <= 0 {
			res.fail("isolation: hit-small forwarded share %.4f, want > 0", forwarded)
		}
	}
	if o.workload == "cold-mix" {
		if measured <= 0 {
			res.fail("isolation: cold-mix ran no measurement")
		}
	} else if measured != 0 {
		res.fail("isolation: %s ran %.0f measurements after warm-up, want 0", o.workload, measured)
	}

	// Traced run: probe owner-entry hits while the ring is up, then stop it.
	var probe probeResult
	var replayReqs []*request
	if o.trace {
		replayReqs = replaySample(w)
		probe, err = probeOwners(e, scrapeClient, replayReqs)
		if err != nil {
			return nil, err
		}
	}
	closed = true
	if err := e.close(); err != nil {
		return nil, err
	}

	if !o.trace {
		// The decision-quality oracle runs off the clock, after the ring
		// has stopped.
		slow, judged, skipped, err := decisionSlowdown(oracleInput(w), o.seed)
		if err != nil {
			return nil, err
		}
		res.set("decision_slowdown", slow, "ratio")
		res.note("decision_slowdown over %d shapes (%d skipped: chosen candidate not in the sweep)", judged, skipped)
		return res, nil
	}
	// The traced run reports per-layer metrics only.
	e2e := res.Metrics
	res.Metrics = map[string]metric{}
	for _, n := range []string{"decisions_per_s", "latency_p50_ms", "latency_p99_ms"} {
		res.note("timed phase %s %.6g %s", n, e2e[n].Value, e2e[n].Unit)
	}
	if err := perLayer(res, o, e, load, before, after, busy, forwarded, probe, replayReqs); err != nil {
		return nil, err
	}
	return res, nil
}

// coldProbe sends coldProbeShapes never-seen shapes (cold-mix's
// generator and mix, from the run's seed) to the warm ring one at a time,
// entry nodes round-robin, and returns the latencies of the answers that
// did not come from the cache.
func coldProbe(e *env, seed int64) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xc01d))
	steps := make([]step, coldProbeShapes)
	for i := range steps {
		steps[i] = step{target: i % ringNodes, freshKind: kindSMSV}
		if rng.Float64() < pairShare {
			steps[i].freshKind = kindPair
		}
	}
	chk := &checker{w: e.w}
	res := e.d.run(1, time.Time{}, listSteps(steps), newFreshShapes(seed), chk)
	if err := chk.err(); err != nil {
		return nil, fmt.Errorf("cold probe: %w", err)
	}
	return latencies(res.samples, flagCold), nil
}

// latencies returns the ms latencies of samples carrying every flag in
// want (0: all samples).
func latencies(s []sample, want uint8) []float64 {
	out := make([]float64, 0, len(s))
	for _, x := range s {
		if x.flags&want == want {
			out = append(out, float64(x.ns)/1e6)
		}
	}
	return out
}

// window is one slice of the timed phase by completion time.
type window struct {
	lat []float64 // ms latencies of the requests that completed in it
	ok  int64     // 2xx decisions they carried
}

// windows cuts the timed phase into equal windows by completion time, one
// a second but with at least minWindowSamples requests each on average,
// and returns them with their length.
func windows(s []sample, elapsed time.Duration) ([]window, time.Duration) {
	k := max(min(int(elapsed/time.Second), len(s)/minWindowSamples), 1)
	width := elapsed.Nanoseconds()/int64(k) + 1
	win := make([]window, k)
	for _, x := range s {
		w := &win[min(int(x.end/width), k-1)]
		w.lat = append(w.lat, float64(x.ns)/1e6)
		w.ok += int64(x.ok)
	}
	return win, time.Duration(width)
}

// windowMedian returns the median over windows of f(window) and the
// values themselves. A figure taken over the whole phase moves with the
// worst few seconds of a shared host; the median window's does not.
func windowMedian(win []window, f func(window) float64) (float64, []float64) {
	per := make([]float64, len(win))
	for i, w := range win {
		per[i] = f(w)
	}
	return median(per), per
}

// oracleInput lists the shapes decision_slowdown judges: cold-mix's first
// fresh SMSV shapes, else one SMSV class or shard per distinct shape class
// of the workload, in order.
func oracleInput(w *workload) []shapeDecision {
	var out []shapeDecision
	if w.fresh != nil {
		for _, s := range w.fresh.keptSMSV {
			if s.chosen != "" && len(out) < oracleShapes {
				out = append(out, shapeDecision{data: s.data, chosen: s.chosen})
			}
		}
		return out
	}
	limit := oracleShapes
	if w.name == "hit-shard" {
		limit = oracleShardItems
	}
	seen := map[string]bool{}
	for _, c := range w.classes {
		if c.kind != kindPair && !seen[string(c.key)] && len(out) < limit {
			seen[string(c.key)] = true
			out = append(out, shapeDecision{data: c.a, chosen: c.chosen})
		}
	}
	return out
}

// poolSampler samples the ring's exec pools' busy-worker gauges, the
// value layoutd_pool_busy exports, every few milliseconds.
type poolSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	sum  float64
	n    int
}

func startPoolSampler(r *ring) *poolSampler {
	p := &poolSampler{done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-t.C:
				for _, nd := range r.nodes {
					busy, _ := nd.ex.Occupancy()
					p.sum += float64(busy)
				}
				p.n++
			}
		}
	}()
	return p
}

// stop ends sampling and returns the mean busy workers across the ring.
func (p *poolSampler) stop() float64 {
	close(p.done)
	p.wg.Wait()
	if p.n == 0 {
		return 0
	}
	return p.sum / float64(p.n)
}

// replaySample is the first requests of the timed sequence that carry
// only warm classes: the owner-entry hit requests the stage replay and
// the probe share.
func replaySample(w *workload) []*request {
	n := replaySmall
	if w.name == "hit-shard" {
		n = replayBatches
	}
	var out []*request
	for _, st := range w.seq {
		if st.req != nil && len(out) < n {
			out = append(out, st.req)
		}
	}
	return out
}

// probeResult is the server's own view of the probe requests.
type probeResult struct {
	serverMeanNs float64
	bodies       [][]byte
}

// probeOwners sends each request once to its owner, one at a time, and
// reads the servers' mean handler time for them from the request-duration
// histograms' exact _sum and _count.
func probeOwners(e *env, client *http.Client, reqs []*request) (probeResult, error) {
	var pr probeResult
	before, err := e.ring.scrape(client)
	if err != nil {
		return pr, err
	}
	chk := &checker{w: e.w}
	var buf bytes.Buffer
	for _, r := range reqs {
		status, err := e.d.post(e.d.targets[r.owner]+kindPath[r.kind], r.body, &buf)
		if err != nil {
			return pr, err
		}
		if status != http.StatusOK {
			return pr, fmt.Errorf("probe %s: status %d", kindPath[r.kind], status)
		}
		body := bytes.Clone(buf.Bytes())
		if chk.check(r, nil, body); chk.err() != nil {
			return pr, fmt.Errorf("probe: %w", chk.err())
		}
		pr.bodies = append(pr.bodies, body)
	}
	after, err := e.ring.scrape(client)
	if err != nil {
		return pr, err
	}
	var sum, count float64
	for _, ep := range endpoints {
		h, err := histDelta(before, after, "layoutd_request_duration_seconds", map[string]string{"endpoint": ep})
		if err != nil {
			return pr, err
		}
		sum += h.Sum
		count += h.Count
	}
	if int(count) != len(reqs) {
		return pr, fmt.Errorf("probe: servers recorded %.0f requests, sent %d", count, len(reqs))
	}
	pr.serverMeanNs = sum / count * 1e9
	return pr, nil
}

// perLayer fills the traced run's per-layer metrics.
func perLayer(res *result, o options, e *env, load phaseResult, before, after []string, busy, forwarded float64, probe probeResult, reqs []*request) error {
	w := e.w
	// Scraped deltas over the timed phase.
	hits := delta(before, after, "layoutd_cache_hits_total", "")
	misses := delta(before, after, "layoutd_cache_misses_total", "")
	phits := delta(before, after, "layoutd_spgemm_cache_hits_total", "")
	pmisses := delta(before, after, "layoutd_spgemm_cache_misses_total", "")
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	smsvDecisions := float64(load.decisions[kindSMSV] + load.decisions[kindBatch])
	pairDecisions := float64(load.decisions[kindPair])
	res.set("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("serve.spgemm_cache_hit_ratio", ratio(phits, phits+pmisses), "ratio")
	res.set("core.measured_share", ratio(delta(before, after, "layoutd_measurements_total", ""), smsvDecisions), "ratio")
	res.set("spgemm.measured_share", ratio(delta(before, after, "layoutd_spgemm_measurements_total", ""), pairDecisions), "ratio")
	res.set("cluster.forwarded_share", forwarded, "ratio")
	res.set("cluster.replication_sent", delta(before, after, "layoutd_cluster_replication_sent_total", ""), "count")
	res.set("cluster.replication_dropped", delta(before, after, "layoutd_cluster_replication_dropped_total", ""), "count")
	res.set("serve.rejected_429", float64(load.rejected), "count")
	res.set("serve.degraded", delta(before, after, "layoutd_degraded_total", "")+
		delta(before, after, "layoutd_spgemm_degraded_total", ""), "count")
	res.set("parallel.pool_busy_mean", busy, "workers")
	// One process: every node exports the same runtime GC counter.
	gc := counter(after[0], "layoutd_gc_cycles_total", "") - counter(before[0], "layoutd_gc_cycles_total", "")
	res.set("runtime.gc_cycles_per_kdecision", 1000*ratio(gc, float64(load.ok)), "count")
	dh, err := histDelta(before, after, "layoutd_schedule_decision_duration_seconds", nil)
	if err != nil {
		return err
	}
	res.set("core.server_decision_p50_ms", histP50ms(dh), "ms")
	for _, ep := range endpoints {
		h, err := histDelta(before, after, "layoutd_request_duration_seconds", map[string]string{"endpoint": ep})
		if err != nil {
			return err
		}
		res.set("serve.server_latency_p50_ms."+ep, histP50ms(h), "ms")
	}
	// The cluster hop: client p50 of forwarded minus owner-entry requests.
	fwd := latencies(load.samples, flagForwarded)
	own := latencies(load.samples, flagOwnerEntry)
	hop := 0.0
	if len(fwd) > 0 && len(own) > 0 {
		hop = median(fwd) - median(own)
	}
	res.set("cluster.hop_ms", hop, "ms")
	res.note("hop from %d forwarded and %d owner-entry requests", len(fwd), len(own))

	// Stage replay of the probed owner-entry hits.
	rp := newReplayer(w, e.ring.owners(), e.ring.ids)
	resps := make([]any, len(reqs))
	for i, r := range reqs {
		var v any
		switch r.kind {
		case kindSMSV:
			v = &serve.ScheduleResponse{}
		case kindPair:
			v = &serve.SpGEMMResponse{}
		default:
			v = &serve.BatchScheduleResponse{}
		}
		if err := json.Unmarshal(probe.bodies[i], v); err != nil {
			return fmt.Errorf("decoding probe response: %w", err)
		}
		resps[i] = v
	}
	st, err := rp.replayAll(reqs, resps)
	if err != nil {
		return err
	}
	us := func(name string) float64 { return st.stage[name] / 1e3 }
	res.set("serve.decode_us", us("serve.decode"), "us")
	res.set("dataset.parse_us", us("dataset.parse"), "us")
	res.set("dataset.parse_ns_per_byte", st.parseNsByte, "ns/B")
	res.set("sparse.build_us", us("sparse.build"), "us")
	res.set("dataset.features_us", us("dataset.features"), "us")
	res.set("serve.key_ns", st.perCall["serve.key"], "ns")
	res.set("serve.cache_get_ns", st.perCall["serve.cache_get"], "ns")
	res.set("cluster.route_ns", st.perCall["cluster.route"], "ns")
	res.set("core.estimate_us", us("core.estimate"), "us")
	res.set("serve.encode_us", us("serve.encode"), "us")
	res.set("serve.replay_stage_sum_us", st.stageSum/1e3, "us")
	res.set("serve.probe_server_us", probe.serverMeanNs/1e3, "us")
	gap := (probe.serverMeanNs - st.stageSum) / probe.serverMeanNs
	res.set("stage_sum_gap", gap, "ratio")
	res.set("trace_overhead_ratio", st.overhead, "ratio")
	lo, hi := stageGapBound(o.workload)
	res.note("stage replay: %d owner-entry hit requests × %d passes; stage_sum_gap bound [%.2f, %.2f]",
		len(reqs), replayPasses, lo, hi)
	if gap < lo || gap > hi {
		res.fail("stage-sum reconciliation: replayed stages sum to %.1fus, servers spent %.1fus (gap %.3f outside [%.2f, %.2f])",
			st.stageSum/1e3, probe.serverMeanNs/1e3, gap, lo, hi)
	}

	// Decide replay on the run's cold shapes.
	smsv, pairs := coldShapes(w)
	dms, pms, err := decideReplay(rp.tr, smsv, pairs)
	if err != nil {
		return err
	}
	res.set("core.decide_ms", dms, "ms")
	res.set("spgemm.decide_ms", pms, "ms")

	dir := os.Getenv("LAYOUTBENCH_OUT")
	if dir == "" {
		dir = filepath.Join(".bench_build", "layoutbench")
	}
	path, err := rp.tr.write(dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err != nil {
		return err
	}
	res.note("spans written to %s", path)
	return nil
}

// histP50ms is a histogram's interpolated median in ms; 0 when empty.
func histP50ms(h telemetry.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Quantile(0.5) * 1e3
}

// coldShapes lists the shapes that were cold in this run, up to
// decideShapes per kind: cold-mix's fresh shapes, else the warm-up's.
func coldShapes(w *workload) (smsv []string, pairs [][2]string) {
	if w.fresh != nil {
		for _, s := range w.fresh.keptSMSV {
			if len(smsv) < decideShapes {
				smsv = append(smsv, s.data)
			}
		}
		for _, s := range w.fresh.keptPair {
			pairs = append(pairs, [2]string{s.data, s.dataB})
		}
		return smsv, pairs
	}
	for _, c := range w.classes {
		switch {
		case c.kind == kindPair && len(pairs) < decideShapes:
			pairs = append(pairs, [2]string{c.a, c.b})
		case c.kind != kindPair && len(smsv) < decideShapes:
			smsv = append(smsv, c.a)
		}
	}
	return smsv, pairs
}
