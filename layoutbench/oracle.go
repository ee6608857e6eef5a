package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/learn"
	"repro/internal/sparse"
)

// Oracle settings: how many shapes are judged and how many full
// measurement sweeps time each candidate. The per-candidate minimum over
// the sweeps filters scheduler noise out of both sides of the ratio.
const (
	oracleSweeps     = 5
	oracleShapes     = 60
	oracleShardItems = 24 // row shards are large; fewer keep the run short
)

// shapeDecision is one matrix and the candidate the ring chose for it.
type shapeDecision struct {
	data   string
	chosen string // format/chunk/variant
}

// decisionSlowdown is the mean, over the given shapes, of
// t(chosen candidate) / t(fastest candidate), both timed off the clock with
// the public learn.Measure sweep. Shapes whose chosen candidate the sweep
// could not build are skipped and counted.
func decisionSlowdown(shapes []shapeDecision, seed int64) (mean float64, judged, skipped int, err error) {
	ex := exec.New(0, exec.Static)
	defer ex.Close()
	var sum float64
	for i, s := range shapes {
		b, err := builder(s.data)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("oracle shape %d: %w", i, err)
		}
		best := map[string]time.Duration{}
		for k := 0; k < oracleSweeps; k++ {
			l, err := learn.Measure(context.Background(), b, ex, seed+int64(k))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("oracle shape %d: %w", i, err)
			}
			for c, t := range l.Times {
				name := candidateName(c)
				if old, ok := best[name]; !ok || t < old {
					best[name] = t
				}
			}
		}
		tc, ok := best[s.chosen]
		if !ok {
			skipped++
			continue
		}
		fastest := tc
		for _, t := range best {
			fastest = min(fastest, t)
		}
		if fastest <= 0 {
			skipped++
			continue
		}
		sum += float64(tc) / float64(fastest)
		judged++
	}
	if judged == 0 {
		return 0, 0, skipped, fmt.Errorf("oracle: none of %d shapes could be judged", len(shapes))
	}
	return sum / float64(judged), judged, skipped, nil
}

func candidateName(c sparse.Candidate) string {
	return c.Format.String() + "/" + c.Chunk.String() + "/" + c.Variant.String()
}
