package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// Replay settings. Sub-microsecond calls run reps times inside one span,
// so the clock's own cost does not swamp them; their stage time is the
// span's self time divided by reps.
const (
	reps          = 64
	replaySmall   = 256 // requests replayed on hit-small and cold-mix
	replayBatches = 12  // requests replayed on hit-shard
	replayPasses  = 4   // traced and untraced passes per request
	decideShapes  = 16  // cold shapes replayed through ChooseContext, per kind
)

// span is one recorded interval of the stage replay. Spans of one
// replayed request share Req; Parent is -1 for the request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Reps   int    `json:"reps,omitempty"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, which is the untraced replay.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) beginReps(req, parent int, name string) int {
	id := t.begin(req, parent, name)
	if id >= 0 {
		t.spans[id].Reps = reps
	}
	return id
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns every span's self time in ns: its duration minus the
// part its children cover (children of one span never overlap here).
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns", t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// replayer re-runs a request's serving stages through the public
// functions of each layer, in the order the server runs them on a cache
// hit, around a benchmark-owned decision cache holding every class.
type replayer struct {
	w     *workload
	ring  *cluster.Ring
	ids   []string
	cache *serve.Cache[*serve.CachedDecision]
	pairs *serve.Cache[*serve.CachedPairDecision]
	key   []byte
	out   bytes.Buffer // encoded response, as the server writes it
	tr    *tracer
	sink  any // keeps results live so no call is optimised away
}

func newReplayer(w *workload, r *cluster.Ring, ids []string) *replayer {
	rp := &replayer{
		w: w, ring: r, ids: ids,
		cache: serve.NewCache[*serve.CachedDecision](0, 0),
		pairs: serve.NewCache[*serve.CachedPairDecision](0, 0),
		key:   make([]byte, 0, 128),
		tr:    &tracer{t0: time.Now()},
	}
	for _, c := range w.classes {
		if c.kind == kindPair {
			rp.pairs.Put(string(c.key), &serve.CachedPairDecision{Source: "measured"})
		} else {
			rp.cache.Put(string(c.key), &serve.CachedDecision{Source: "measured"})
		}
	}
	return rp
}

// operand runs parse → build → features for one LIBSVM payload.
func (rp *replayer) operand(req, root int, data string) (dataset.Features, error) {
	sp := rp.tr.begin(req, root, "dataset.parse")
	samples, n, err := dataset.ParseLIBSVM(strings.NewReader(data))
	rp.tr.end(sp)
	if err != nil {
		return dataset.Features{}, err
	}
	sp = rp.tr.begin(req, root, "sparse.build")
	b, _ := dataset.SamplesToMatrix(samples, n)
	m, err := b.Build(sparse.CSR)
	rp.tr.end(sp)
	if err != nil {
		return dataset.Features{}, err
	}
	sp = rp.tr.begin(req, root, "dataset.features")
	f := dataset.Extract(m)
	rp.tr.end(sp)
	return f, nil
}

// lookup runs key → route → cache get for one derived key; the route must
// name the owner the load phase used and the cache must hit.
func (rp *replayer) lookup(req, root int, owner int, pair bool, key func([]byte) []byte) error {
	sp := rp.tr.beginReps(req, root, "serve.key")
	for i := 0; i < reps; i++ {
		rp.key = key(rp.key[:0])
	}
	rp.tr.end(sp)
	sp = rp.tr.beginReps(req, root, "cluster.route")
	var m cluster.Member
	for i := 0; i < reps; i++ {
		m, _ = rp.ring.Owner(rp.key)
	}
	rp.tr.end(sp)
	if owner >= 0 && m.ID != rp.ids[owner] {
		return fmt.Errorf("replay routed key %s to %s, load phase used %s", rp.key, m.ID, rp.ids[owner])
	}
	sp = rp.tr.beginReps(req, root, "serve.cache_get")
	hit := true
	for i := 0; i < reps; i++ {
		if pair {
			_, hit = rp.pairs.Get(rp.key)
		} else {
			_, hit = rp.cache.Get(rp.key)
		}
	}
	rp.tr.end(sp)
	if !hit {
		return fmt.Errorf("replay cache missed key %s", rp.key)
	}
	return nil
}

// replay runs one request's stages; resp is the decoded real response the
// encode stage writes again. Decode and encode use encoding/json exactly as
// the server's handlers do.
func (rp *replayer) replay(req int, r *request, resp any) error {
	root := rp.tr.begin(req, -1, "request")
	defer rp.tr.end(root)
	sp := rp.tr.begin(req, root, "serve.decode")
	switch r.kind {
	case kindSMSV:
		var in serve.ScheduleRequest
		err := decode(r.body, &in)
		rp.tr.end(sp)
		if err != nil {
			return err
		}
		f, err := rp.operand(req, root, in.Data)
		if err != nil {
			return err
		}
		if err := rp.lookup(req, root, r.owner, false, func(dst []byte) []byte {
			return serve.AppendKey(dst, f, policyName, topK)
		}); err != nil {
			return err
		}
		sp = rp.tr.begin(req, root, "core.estimate")
		rp.sink = core.EstimateCosts(f)
		rp.tr.end(sp)
	case kindPair:
		var in serve.SpGEMMRequest
		err := decode(r.body, &in)
		rp.tr.end(sp)
		if err != nil {
			return err
		}
		fa, err := rp.operand(req, root, in.A)
		if err != nil {
			return err
		}
		fb, err := rp.operand(req, root, in.B)
		if err != nil {
			return err
		}
		if err := rp.lookup(req, root, r.owner, true, func(dst []byte) []byte {
			return serve.AppendPairKey(dst, fa, fb, policyName, topK)
		}); err != nil {
			return err
		}
		sp = rp.tr.begin(req, root, "core.estimate")
		rp.sink = core.EstimatePairCandidates(fa, fb)
		rp.tr.end(sp)
	case kindBatch:
		var in serve.BatchScheduleRequest
		err := decode(r.body, &in)
		rp.tr.end(sp)
		if err != nil {
			return err
		}
		for _, it := range in.Items {
			f, err := rp.operand(req, root, it.Data)
			if err != nil {
				return err
			}
			if err := rp.lookup(req, root, r.owner, false, func(dst []byte) []byte {
				return serve.AppendKey(dst, f, policyName, topK)
			}); err != nil {
				return err
			}
		}
	}
	sp = rp.tr.begin(req, root, "serve.encode")
	rp.out.Reset()
	enc := json.NewEncoder(&rp.out)
	enc.SetIndent("", "  ")
	err := enc.Encode(resp)
	rp.tr.end(sp)
	return err
}

// decode reads a request body the way the server's handlers do: a
// streaming decoder that rejects unknown fields.
func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replayStats are the per-layer figures of a stage replay.
type replayStats struct {
	stage       map[string]float64 // median per-request self time, ns
	perCall     map[string]float64 // median per-call time, ns, of rep stages
	parseNsByte float64
	stageSum    float64 // mean per-request sum of stage self times, ns
	overhead    float64 // traced over untraced replay time, minus 1
}

// replayAll replays every request untraced once to warm up, then
// alternates untraced and traced passes.
func (rp *replayer) replayAll(reqs []*request, resps []any) (replayStats, error) {
	for i, r := range reqs {
		if err := rp.replay(i, r, resps[i]); err != nil {
			return replayStats{}, err
		}
	}
	// Each pass replays every request untraced and traced, alternating
	// which goes first so neither side always runs on warmer caches.
	var untraced, traced time.Duration
	for pass := 0; pass < replayPasses; pass++ {
		for i, r := range reqs {
			for k := 0; k < 2; k++ {
				rp.tr.on = (pass+k)%2 == 1
				t0 := time.Now()
				if err := rp.replay(i, r, resps[i]); err != nil {
					return replayStats{}, err
				}
				if rp.tr.on {
					traced += time.Since(t0)
				} else {
					untraced += time.Since(t0)
				}
			}
		}
	}
	rp.tr.on = false

	self := rp.tr.selfTimes()
	type key struct{ pass, req int }
	// Each traced (pass, request) instance gets its own per-stage totals.
	perReq := map[key]map[string]float64{}
	calls := map[key]map[string]int{}
	seen := map[int]int{}
	var cur key
	for i, s := range rp.tr.spans {
		if s.Parent < 0 {
			cur = key{seen[s.Req], s.Req}
			seen[s.Req]++
			perReq[cur] = map[string]float64{}
			calls[cur] = map[string]int{}
			continue
		}
		v := float64(self[i])
		if s.Reps > 0 {
			v /= float64(s.Reps)
		}
		perReq[cur][s.Name] += v
		calls[cur][s.Name]++
	}
	st := replayStats{stage: map[string]float64{}, perCall: map[string]float64{}}
	byStage := map[string][]float64{}
	byCall := map[string][]float64{}
	var parse []float64
	var sum float64
	for k, m := range perReq {
		for name, v := range m {
			byStage[name] = append(byStage[name], v)
			sum += v
			if n := calls[k][name]; n > 0 {
				byCall[name] = append(byCall[name], v/float64(n))
			}
		}
		if b := reqs[k.req].bytes; b > 0 {
			parse = append(parse, m["dataset.parse"]/float64(b))
		}
	}
	for name, v := range byStage {
		st.stage[name] = median(v)
	}
	for name, v := range byCall {
		st.perCall[name] = median(v)
	}
	st.parseNsByte = median(parse)
	st.stageSum = sum / float64(len(perReq))
	st.overhead = float64(traced)/float64(untraced) - 1
	return st, nil
}

// decideReplay times ChooseContext on cold shapes with schedulers
// configured like the server's hybrid ones but without a history, so
// every call measures. It returns the median per kind in ms (0 when the
// workload has no shape of that kind).
func decideReplay(tr *tracer, smsv []string, pairs [][2]string) (smsvMs, pairMs float64, err error) {
	ex := exec.New(0, exec.Static)
	defer ex.Close()
	ctx := context.Background()
	sched := core.New(core.Config{Policy: core.Hybrid, Exec: ex, Seed: 1})
	var ts []float64
	for i, data := range smsv {
		b, err := builder(data)
		if err != nil {
			return 0, 0, err
		}
		sp := tr.begin(-1-i, -1, "core.decide")
		t0 := time.Now()
		d, err := sched.ChooseContext(ctx, b)
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		d.Release()
	}
	smsvMs = median(ts)
	psched := core.NewSpGEMM(core.SpGEMMConfig{Policy: core.Hybrid, Exec: ex, Seed: 1})
	ts = ts[:0]
	for i, p := range pairs {
		a, err := builder(p[0])
		if err != nil {
			return 0, 0, err
		}
		b, err := builder(p[1])
		if err != nil {
			return 0, 0, err
		}
		sp := tr.begin(-1-len(smsv)-i, -1, "spgemm.decide")
		t0 := time.Now()
		d, err := psched.ChooseContext(ctx, a, b)
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		d.Release()
	}
	return smsvMs, median(ts), nil
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by nearest rank; 0 when empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(q*float64(len(s)) + 0.5)
	return s[min(max(i-1, 0), len(s)-1)]
}
