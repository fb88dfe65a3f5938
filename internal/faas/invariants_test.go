package faas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atlarge/internal/sim"
)

// TestPlatformInvariantsProperty checks, over random arrival patterns:
//
//  1. every scheduled invocation completes;
//  2. end >= start >= arrive for every invocation;
//  3. cold invocations pay at least the cold-start delay;
//  4. instance-seconds are positive when any invocation ran.
func TestPlatformInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		cfg := DefaultPlatformConfig()
		cfg.Seed = seed
		p := NewPlatform(cfg)
		if err := p.Register(Function{Name: "f", ExecMean: 0.5, ExecSigma: 0.5}); err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			at := sim.Time(r.Float64() * 1000)
			if err := p.ScheduleInvocation(at, "f", nil); err != nil {
				return false
			}
		}
		if err := p.Run(); err != nil {
			return false
		}
		ivs := p.done
		if len(ivs) != n {
			return false
		}
		for _, iv := range ivs {
			if iv.End < iv.Start || iv.Start < iv.Arrive {
				return false
			}
			if iv.Cold && float64(iv.Start-iv.Arrive) < cfg.ColdStart-1e-9 {
				return false
			}
		}
		return p.InstanceSeconds() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWorkflowStepConservationProperty checks that a workflow invokes
// exactly its leaf count, for random fan-out shapes.
func TestWorkflowStepConservationProperty(t *testing.T) {
	f := func(seed int64, widthRaw, depthRaw uint8) bool {
		width := int(widthRaw%4) + 1
		depth := int(depthRaw%3) + 1
		cfg := DefaultPlatformConfig()
		cfg.Seed = seed
		p := NewPlatform(cfg)
		if err := p.Register(Function{Name: "w", ExecMean: 0.2, ExecSigma: 0.1}); err != nil {
			return false
		}
		// Build a sequence of `depth` parallel fan-outs of `width` tasks.
		var stages []*WorkflowNode
		for d := 0; d < depth; d++ {
			var par []*WorkflowNode
			for wdt := 0; wdt < width; wdt++ {
				par = append(par, Task("w"))
			}
			stages = append(stages, Par(par...))
		}
		wf := Seq(stages...)
		eng := &Engine{Platform: p, StepOverhead: 0.01}
		var got WorkflowResult
		if err := eng.ScheduleWorkflow(0, wf, func(r WorkflowResult) { got = r }); err != nil {
			return false
		}
		if err := p.Run(); err != nil {
			return false
		}
		return got.Steps == width*depth && len(p.done) == width*depth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
