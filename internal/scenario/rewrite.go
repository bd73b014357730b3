package scenario

import (
	"fmt"
	"math"

	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
)

// Rewrite is what a command line changes in spec files before they run.
// tcplp-bench builds one from its -scale, -seeds, -variant, -window,
// -warmup and -duration flags and applies it alike to a -scenario file
// and to an experiment's file under examples/scenarios/paper. The zero
// Rewrite changes nothing.
type Rewrite struct {
	// Scale multiplies every nonzero warmup and every measurement window;
	// 0 and 1 keep them. A scaled warmup or window is never shorter than
	// 5 s, and a window never shorter than one dc_sample period. Idle
	// phases are not scaled.
	Scale float64
	// Warmup and Duration, when set, replace every cell's (after Scale).
	Warmup, Duration *Duration
	// Seeds, when positive, replaces every cell's seed list with that many
	// seeds, SeedSpacing apart from its first.
	Seeds int
	// Variant is the congestion-control variant of every TCP flow that
	// names none.
	Variant cc.Variant
	// WindowSegs is the network window, in segments, of every cell that
	// sets none.
	WindowSegs int
}

// SeedSpacing separates the seeds Rewrite.Seeds derives: far wider than
// any seed_step times a grid's cell count, so no two cells of a sweep
// share a channel realization.
const SeedSpacing = 99991

// minScaled is the shortest warmup or window Scale makes.
const minScaled = Duration(5 * sim.Second)

// Apply expands every sweep and returns the cells, in order, with the
// rewrite applied; the specs themselves are left as they were. The specs
// come from ParseSpecs, which checked them, and a rewrite can make a
// checked cell invalid only by its scale, its seed count or its window,
// so those are refused here in the command line's terms: a Scale that is
// not finite, or that would make a cell's warmup, window or their sum
// pass the largest Duration, naming -scale and the cell's limit; a Seeds
// over the limit naming -seeds; and a WindowSegs over a cell's
// per-connection buffer bound naming -window and the limit at the cell's
// seg_frames.
// unused names each field that changed no cell — "variant" when every
// TCP flow names its own, "window" when every cell sets its own — so a
// caller can say the flag did nothing.
func (rw Rewrite) Apply(specs []*Spec) (cells []*Spec, unused []string, err error) {
	if rw.Seeds > maxSeeds {
		return nil, nil, fmt.Errorf("-seeds %d is over the limit of %d", rw.Seeds, maxSeeds)
	}
	if math.IsNaN(rw.Scale) || math.IsInf(rw.Scale, 0) {
		return nil, nil, fmt.Errorf("-scale %v is not a finite number", rw.Scale)
	}
	variantUsed, windowUsed := false, false
	for _, s := range specs {
		for _, cell := range s.Expand() {
			c := *cell
			c.Flows = append([]FlowSpec(nil), cell.Flows...)
			if rw.Scale > 0 && rw.Scale != 1 {
				d := c.Duration
				if d == 0 {
					d = defaultDuration
				}
				w, win := 0.0, rw.scaled(d, c.DCSample)
				if c.Warmup > 0 {
					w = rw.scaled(c.Warmup, 0)
				}
				if w+win >= maxDuration {
					return nil, nil, fmt.Errorf("-scale %g is over the limit of %.4g for scenario %q: its warmup and window would pass the largest duration, 2^63−1 µs",
						rw.Scale, maxDuration/float64(c.Warmup+d), c.Name)
				}
				c.Warmup, c.Duration = Duration(w), Duration(win)
			}
			if rw.Warmup != nil {
				c.Warmup = *rw.Warmup
			}
			if rw.Duration != nil {
				c.Duration = *rw.Duration
			}
			if rw.Seeds > 0 {
				base := int64(1)
				if len(c.Seeds) > 0 {
					base = c.Seeds[0]
				}
				c.Seeds = make([]int64, rw.Seeds)
				for i := range c.Seeds {
					c.Seeds[i] = base + int64(i)*SeedSpacing
				}
			}
			if rw.Variant != "" {
				for i := range c.Flows {
					if f := &c.Flows[i]; f.Variant == "" && (f.Protocol == "" || f.Protocol == protoTCP) {
						f.Variant = string(rw.Variant)
						variantUsed = true
					}
				}
			}
			if rw.WindowSegs > 0 && c.Net.WindowSegs == 0 {
				segFrames := c.options().SegFrames
				if limit := maxWindowSegs(segFrames); rw.WindowSegs > limit {
					return nil, nil, fmt.Errorf("-window %d is over the limit of %d segments at seg_frames %d (the per-connection buffer bound; scenario %q)",
						rw.WindowSegs, limit, segFrames, c.Name)
				}
				c.Net.WindowSegs = rw.WindowSegs
				windowUsed = true
			}
			cells = append(cells, &c)
		}
	}
	if rw.Variant != "" && !variantUsed {
		unused = append(unused, "variant")
	}
	if rw.WindowSegs > 0 && !windowUsed {
		unused = append(unused, "window")
	}
	return cells, unused, nil
}

// maxDuration is 2^63 µs, the first float64 past the largest Duration.
const maxDuration = float64(math.MaxInt64)

// scaled is d times Scale, floored at minScaled and at floor; Apply
// refuses it from maxDuration on, where it would not convert to a
// Duration.
func (rw Rewrite) scaled(d, floor Duration) float64 {
	return max(float64(d)*rw.Scale, float64(minScaled), float64(floor))
}
