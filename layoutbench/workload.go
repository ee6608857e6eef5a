package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// Request kinds, one per endpoint the benchmark drives.
const (
	kindSMSV  = iota // POST /v1/schedule
	kindPair         // POST /v1/schedule/spgemm
	kindBatch        // POST /v1/schedule/batch
)

var kindPath = [...]string{"/v1/schedule", "/v1/schedule/spgemm", "/v1/schedule/batch"}

// The policy and top-k every request leaves to the server default; the
// benchmark keys its own replay with the same values.
const (
	policyName = "hybrid"
	topK       = 0
)

// Workload shape constants. They are part of the workload definitions in
// README.md: changing one changes what every workload measures.
const (
	smallClasses = 64       // hit-small shape classes, each an SMSV payload and a SpGEMM pair
	zipfS        = 1.2      // skew of the class draw
	pairShare    = 0.2      // share of hit-small requests that are SpGEMM pairs
	freshShare   = 0.1      // share of cold-mix requests that bring a never-seen shape
	batchItems   = 8        // items per hit-shard batch
	shardBatches = 24       // distinct hit-shard batch bodies
	shardBytes   = 32 << 10 // LIBSVM text per hit-shard row shard
	seqLen       = 1 << 16
)

// shardSets are the sparse Table V clones hit-shard cuts into row shards.
var shardSets = []string{"adult", "aloi", "mnist", "sector", "connect-4", "trefethen"}

// class is one shape class of a workload: an SMSV matrix, a SpGEMM pair
// or a hit-shard row shard, with the ownership the ring gives its key.
type class struct {
	kind  int
	a, b  string // LIBSVM rows; b only for pairs
	owner int    // ring owner's node index
	key   []byte // decision-cache key, as the server derives it
	// chosen is the decision the warm-up recorded; every later answer for
	// the class must match it.
	chosen string
}

// request is one prepared HTTP request.
type request struct {
	kind    int
	body    []byte
	classes []int // class indices of the decisions it carries; nil for a fresh shape
	owner   int   // node every decision of the request belongs to; -1 unknown
	bytes   int   // LIBSVM bytes carried
}

// step is one slot of the timed phase's request sequence.
type step struct {
	req       *request // nil: draw the next fresh shape of freshKind
	target    int      // entry node
	freshKind int
}

// workload is a fully prepared traffic mix.
type workload struct {
	name    string
	classes []*class
	warm    []*request // every class once, sent to its owner during set-up
	seq     []step
	fresh   *freshShapes // cold-mix only
}

// buildWorkload generates a workload's inputs from seed. ring gives the
// ownership the benchmark needs to route hit-shard batches and to split
// hit-small latency by entry node.
func buildWorkload(name string, seed int64, ring *cluster.Ring, nodes []string) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "hit-small", "cold-mix":
		w.addSmallClasses(seed)
	case "hit-shard":
		if err := w.addShards(seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want hit-small, hit-shard or cold-mix)", name)
	}
	if err := w.assignOwners(ring, nodes); err != nil {
		return nil, err
	}
	for i, c := range w.classes {
		switch c.kind {
		case kindPair:
			w.warm = append(w.warm, newPairRequest(c.a, c.b, []int{i}, c.owner))
		case kindBatch:
			w.warm = append(w.warm, newBatchRequest([]string{c.a}, []int{i}, c.owner))
		default:
			w.warm = append(w.warm, newSMSVRequest(c.a, []int{i}, c.owner))
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch name {
	case "hit-small":
		w.seq = w.smallSequence(rng, 0)
	case "cold-mix":
		w.seq = w.smallSequence(rng, freshShare)
		w.fresh = newFreshShapes(seed)
	case "hit-shard":
		w.seq = w.shardSequence(rng)
	}
	return w, nil
}

// addSmallClasses adds hit-small's 64 tiny SMSV matrices (the cmd/loadgen
// recipe: a few hundred bytes each) and then 64 tiny SpGEMM pairs.
func (w *workload) addSmallClasses(seed int64) {
	for c := 0; c < smallClasses; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		rows := 6 + (c%10)*3
		cols := 12 + (c*17)%120
		w.classes = append(w.classes, &class{kind: kindSMSV, a: libsvm(rng, rows, cols, 2+c%6, 0)})
	}
	for c := 0; c < smallClasses; c++ {
		rng := rand.New(rand.NewSource(seed + 104729 + int64(c)*7919))
		m := 4 + (c%8)*3
		k := 8 + (c*13)%40
		n := 8 + (c*7)%48
		a, b := pairLIBSVM(rng, m, k, n, 2+c%4, 1+c%3)
		w.classes = append(w.classes, &class{kind: kindPair, a: a, b: b})
	}
}

// addShards adds hit-shard's row shards of the sparse Table V clones:
// consecutive rows cut into pieces of about shardBytes of LIBSVM text, so
// every batch carries about the same bytes whichever shards the ring's
// ownership puts together.
func (w *workload) addShards(seed int64) error {
	for _, name := range shardSets {
		d, err := dataset.ByName(name)
		if err != nil {
			return err
		}
		b, err := d.Generate(seed)
		if err != nil {
			return fmt.Errorf("generating %s: %w", name, err)
		}
		m, err := b.Build(sparse.CSR)
		if err != nil {
			return err
		}
		rows, _ := m.Dims()
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			row := m.RowTo(sparse.Vector{}, i)
			if len(row.Index) == 0 {
				// LIBSVM cannot carry an empty row's width; the row still
				// counts toward the shard's rows.
				sb.WriteString("1\n")
			} else {
				writeVector(&sb, row)
			}
			if sb.Len() >= shardBytes {
				w.classes = append(w.classes, &class{kind: kindBatch, a: sb.String()})
				sb.Reset()
			}
		}
	}
	return nil
}

// assignOwners derives every class's decision-cache key and ring owner
// with the server's own parse, feature and key functions.
func (w *workload) assignOwners(ring *cluster.Ring, nodes []string) error {
	for i, c := range w.classes {
		fa, err := features(c.a)
		if err != nil {
			return fmt.Errorf("class %d: %w", i, err)
		}
		if c.kind == kindPair {
			fb, err := features(c.b)
			if err != nil {
				return fmt.Errorf("class %d operand b: %w", i, err)
			}
			if fa.N != fb.M {
				return fmt.Errorf("class %d: A is %d×%d but B is %d×%d", i, fa.M, fa.N, fb.M, fb.N)
			}
			c.key = serve.AppendPairKey(nil, fa, fb, policyName, topK)
		} else {
			c.key = serve.AppendKey(nil, fa, policyName, topK)
		}
		m, ok := ring.Owner(c.key)
		if !ok {
			return fmt.Errorf("empty ring")
		}
		c.owner = slices.Index(nodes, m.ID)
	}
	return nil
}

// smallSequence draws the hit-small (and cold-mix) request sequence: Zipf
// classes, 80/20 SMSV/SpGEMM, entry nodes round-robin so most requests are
// forwarded to their owner. A share fresh of the slots bring a fresh shape.
// It reuses the warm-up's requests: SMSV classes first, then the pairs.
func (w *workload) smallSequence(rng *rand.Rand, fresh float64) []step {
	smsv, pair := w.warm[:smallClasses], w.warm[smallClasses:]
	zipf := rand.NewZipf(rng, zipfS, 1, smallClasses-1)
	seq := make([]step, seqLen)
	for i := range seq {
		kind := kindSMSV
		if rng.Float64() < pairShare {
			kind = kindPair
		}
		seq[i].target = i % ringNodes
		if rng.Float64() < fresh {
			seq[i].freshKind = kind
			continue
		}
		c := int(zipf.Uint64())
		if kind == kindPair {
			seq[i].req = pair[c]
		} else {
			seq[i].req = smsv[c]
		}
	}
	return seq
}

// shardSequence builds hit-shard's batches: each holds 8 shards owned by
// one node and is sent straight to that node, so nothing is forwarded.
func (w *workload) shardSequence(rng *rand.Rand) []step {
	byOwner := make([][]int, ringNodes)
	for i, c := range w.classes {
		byOwner[c.owner] = append(byOwner[c.owner], i)
	}
	var owners []int
	for o, l := range byOwner {
		if len(l) > 0 {
			owners = append(owners, o)
		}
	}
	batches := make([]*request, shardBatches)
	for j := range batches {
		o := owners[j%len(owners)]
		items := make([]int, batchItems)
		data := make([]string, batchItems)
		for k := range items {
			items[k] = byOwner[o][rng.Intn(len(byOwner[o]))]
			data[k] = w.classes[items[k]].a
		}
		batches[j] = newBatchRequest(data, items, o)
	}
	seq := make([]step, seqLen)
	for i := range seq {
		r := batches[rng.Intn(len(batches))]
		seq[i] = step{req: r, target: r.owner}
	}
	return seq
}

func newSMSVRequest(data string, classes []int, owner int) *request {
	body, _ := json.Marshal(serve.ScheduleRequest{Data: data})
	return &request{kind: kindSMSV, body: body, classes: classes, owner: owner, bytes: len(data)}
}

func newPairRequest(a, b string, classes []int, owner int) *request {
	body, _ := json.Marshal(serve.SpGEMMRequest{A: a, B: b})
	return &request{kind: kindPair, body: body, classes: classes, owner: owner, bytes: len(a) + len(b)}
}

func newBatchRequest(data []string, classes []int, owner int) *request {
	req := serve.BatchScheduleRequest{Items: make([]serve.ScheduleRequest, len(data))}
	n := 0
	for i, d := range data {
		req.Items[i].Data = d
		n += len(d)
	}
	body, _ := json.Marshal(req)
	return &request{kind: kindBatch, body: body, classes: classes, owner: owner, bytes: n}
}

// features parses LIBSVM rows the way the server does and extracts the
// nine Table IV parameters.
func features(data string) (dataset.Features, error) {
	b, err := builder(data)
	if err != nil {
		return dataset.Features{}, err
	}
	m, err := b.Build(sparse.CSR)
	if err != nil {
		return dataset.Features{}, err
	}
	return dataset.Extract(m), nil
}

func builder(data string) (*sparse.Builder, error) {
	samples, n, err := dataset.ParseLIBSVM(strings.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no rows")
	}
	b, _ := dataset.SamplesToMatrix(samples, n)
	return b, nil
}

// libsvm writes rows×cols random LIBSVM rows with about perRow entries
// each. force > 0 puts column force into the last row, pinning the
// matrix width LIBSVM cannot declare.
func libsvm(rng *rand.Rand, rows, cols, perRow, force int) string {
	return rowsText(rng, rows, func(r int, idx []int) []int {
		for k := 0; k < perRow; k++ {
			if j := 1 + rng.Intn(cols); !slices.Contains(idx, j) {
				idx = append(idx, j)
			}
		}
		if r == rows-1 && force > 0 && !slices.Contains(idx, force) {
			idx = append(idx, force)
		}
		return idx
	})
}

// rowsText writes rows LIBSVM rows whose 1-based column indices row
// appends (in any order, without duplicates) for each row.
func rowsText(rng *rand.Rand, rows int, row func(r int, idx []int) []int) string {
	var sb strings.Builder
	var idx []int
	for r := 0; r < rows; r++ {
		idx = row(r, idx[:0])
		slices.Sort(idx)
		sb.WriteString("1")
		for _, j := range idx {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(j))
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatFloat(0.1+rng.Float64(), 'f', 3, 64))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// freshMatrix writes the k-th fresh SMSV shape in one of three row
// structures, so fresh shapes spread over the whole Table IV feature space
// (row-length spread, diagonal count, density) instead of one corner of
// it: uniform rows, heavy-tailed row lengths, or a diagonal band. The
// structure and its size parameter follow from k alone; rng only places
// the entries, so every seed draws shapes of the same sizes.
func freshMatrix(rng *rand.Rand, k, rows, cols int) string {
	size := k / 3 * 7 // walks each structure's size parameter
	switch k % 3 {
	case 1:
		long := min(cols, 256)
		return rowsText(rng, rows, func(_ int, idx []int) []int {
			u := rng.Float64()
			for n := 1 + int(float64(long-1)*u*u*u*u); len(idx) < n; {
				if j := 1 + rng.Intn(cols); !slices.Contains(idx, j) {
					idx = append(idx, j)
				}
			}
			return idx
		})
	case 2:
		half := size % min(cols, 12)
		return rowsText(rng, rows, func(r int, idx []int) []int {
			centre := 1 + r*(cols-1)/max(rows-1, 1)
			for j := max(centre-half, 1); j <= min(centre+half, cols); j++ {
				idx = append(idx, j)
			}
			return idx
		})
	default:
		return libsvm(rng, rows, cols, 1+size%min(cols, 24), 0)
	}
}

// pairLIBSVM writes an m×k A and a k×n B. A's last column and B's last
// column are always populated, so the parsed widths are exactly k and n
// and the server accepts the pair (fa.N == fb.M).
func pairLIBSVM(rng *rand.Rand, m, k, n, perRowA, perRowB int) (a, b string) {
	return libsvm(rng, m, k, perRowA, k), libsvm(rng, k, n, perRowB, n)
}

// writeVector appends one LIBSVM row with four significant digits per
// value, which keeps shard sizes realistic for text-encoded datasets.
func writeVector(sb *strings.Builder, v sparse.Vector) {
	sb.WriteString("1")
	for k, j := range v.Index {
		sb.WriteByte(' ')
		sb.WriteString(strconv.Itoa(int(j) + 1))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(v.Value[k], 'g', 4, 64))
	}
	sb.WriteByte('\n')
}

// freshShapes hands out never-seen shapes in a fixed order: the k-th SMSV
// (or pair) shape drawn in a run is the same for a given seed, whichever
// worker draws it. Shapes stride through a geometric grid of dimensions
// whose steps (×1.16) exceed the server's shape-class resolution, so
// consecutive shapes are distinct classes and any run of them covers the
// grid evenly, whatever the seed; the seed picks the rows' contents. Past
// the end of the grid a new lap reuses the dimensions with other contents.
type freshShapes struct {
	mu           sync.Mutex
	seed         int64
	smsv         [][2]int // (rows, cols) grid, shuffled
	pairs        [][3]int // (m, k, n) grid, shuffled
	nSMSV, nPair int      // shapes issued so far
	// The first issued shapes, kept for the decision-quality oracle and
	// the decide replay; later ones are dropped once answered so the
	// benchmark's own memory stays out of live_heap_mb.
	keptSMSV []*freshShape
	keptPair []*freshShape
}

// Fresh shapes kept per kind.
const (
	keepSMSV = oracleShapes
	keepPair = decideShapes
)

// freshShape is one issued never-seen shape and the decision it got.
type freshShape struct {
	req         *request
	data, dataB string // LIBSVM rows; dataB only for pairs
	chosen      string // set by the load loop once answered
}

func geometric(lo, hi int, ratio float64) []int {
	var out []int
	for x := float64(lo); x <= float64(hi); x *= ratio {
		if v := int(math.Round(x)); len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func newFreshShapes(seed int64) *freshShapes {
	f := &freshShapes{seed: seed}
	for _, r := range geometric(10, 320, 1.16) {
		for _, c := range geometric(10, 2500, 1.16) {
			f.smsv = append(f.smsv, [2]int{r, c})
		}
	}
	dims := geometric(6, 96, 1.2)
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				f.pairs = append(f.pairs, [3]int{m, k, n})
			}
		}
	}
	return f
}

// gridStride steps through a fresh-shape grid so that any run of
// consecutive shapes spreads over the whole grid; it is coprime with both
// grid sizes, so a lap visits every cell once.
const gridStride = 7

// next generates the next fresh shape of kind.
func (f *freshShapes) next(kind int) *freshShape {
	f.mu.Lock()
	defer f.mu.Unlock()
	if kind == kindPair {
		k := f.nPair
		f.nPair++
		d := f.pairs[k*gridStride%len(f.pairs)]
		rng := rand.New(rand.NewSource(f.seed*31 + int64(k)))
		a, b := pairLIBSVM(rng, d[0], d[1], d[2], 1+k*3%min(d[1], 6), 1+k*5%min(d[2], 6))
		s := &freshShape{req: newPairRequest(a, b, nil, -1), data: a, dataB: b}
		if len(f.keptPair) < keepPair {
			f.keptPair = append(f.keptPair, s)
		}
		return s
	}
	k := f.nSMSV
	f.nSMSV++
	d := f.smsv[k*gridStride%len(f.smsv)]
	rng := rand.New(rand.NewSource(f.seed*17 + int64(k)))
	data := freshMatrix(rng, k, d[0], d[1])
	s := &freshShape{req: newSMSVRequest(data, nil, -1), data: data}
	if len(f.keptSMSV) < keepSMSV {
		f.keptSMSV = append(f.keptSMSV, s)
	}
	return s
}
