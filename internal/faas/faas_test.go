package faas

import (
	"testing"

	"atlarge/internal/sim"
)

func TestRegisterValidation(t *testing.T) {
	p := NewPlatform(DefaultPlatformConfig())
	if err := p.Register(Function{Name: ""}); err == nil {
		t.Error("unnamed function accepted")
	}
	if err := p.Register(Function{Name: "f", ExecMean: 0}); err == nil {
		t.Error("zero exec mean accepted")
	}
	if err := p.Register(Function{Name: "f", ExecMean: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(Function{Name: "f", ExecMean: 1}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := p.ScheduleInvocation(0, "ghost", nil); err == nil {
		t.Error("unknown function invocation accepted")
	}
}

func TestFirstInvocationIsCold(t *testing.T) {
	p := NewPlatform(DefaultPlatformConfig())
	if err := p.Register(Function{Name: "f", ExecMean: 0.5, ExecSigma: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleInvocation(0, "f", nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ivs := p.done
	if len(ivs) != 1 {
		t.Fatalf("invocations = %d", len(ivs))
	}
	if !ivs[0].Cold {
		t.Error("first invocation was not cold")
	}
	if ivs[0].Latency() < p.cfg.ColdStart {
		t.Errorf("latency %v below cold start %v", ivs[0].Latency(), p.cfg.ColdStart)
	}
}

func TestWarmReuseWithinKeepAlive(t *testing.T) {
	p := NewPlatform(DefaultPlatformConfig())
	if err := p.Register(Function{Name: "f", ExecMean: 0.5, ExecSigma: 0.1}); err != nil {
		t.Fatal(err)
	}
	// Second invocation arrives well after the first finishes but inside
	// keep-alive.
	if err := p.ScheduleInvocation(0, "f", nil); err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleInvocation(100, "f", nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ivs := p.done
	if len(ivs) != 2 {
		t.Fatalf("invocations = %d", len(ivs))
	}
	if ivs[1].Cold {
		t.Error("second invocation cold despite warm pool")
	}
	if ivs[1].Latency() >= ivs[0].Latency() {
		t.Errorf("warm latency %v not below cold latency %v", ivs[1].Latency(), ivs[0].Latency())
	}
}

func TestColdAfterKeepAliveExpiry(t *testing.T) {
	cfg := DefaultPlatformConfig()
	cfg.KeepAlive = 10
	p := NewPlatform(cfg)
	if err := p.Register(Function{Name: "f", ExecMean: 0.5, ExecSigma: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleInvocation(0, "f", nil); err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleInvocation(1000, "f", nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ivs := p.done
	if !ivs[1].Cold {
		t.Error("invocation after expiry was warm")
	}
}

func TestConcurrencyCapQueues(t *testing.T) {
	cfg := DefaultPlatformConfig()
	cfg.MaxConcurrent = 1
	p := NewPlatform(cfg)
	if err := p.Register(Function{Name: "f", ExecMean: 10, ExecSigma: 0.01}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.ScheduleInvocation(sim.Time(i), "f", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ivs := p.done
	if len(ivs) != 3 {
		t.Fatalf("invocations = %d, want 3 (queued work served)", len(ivs))
	}
	cold := 0
	for _, iv := range ivs {
		if iv.Cold {
			cold++
		}
	}
	if cold != 1 {
		t.Errorf("cold starts = %d, want 1 (cap forces reuse)", cold)
	}
}

func TestInstanceSecondsPositive(t *testing.T) {
	p := NewPlatform(DefaultPlatformConfig())
	if err := p.Register(Function{Name: "f", ExecMean: 1, ExecSigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.ScheduleInvocation(sim.Time(i*2), "f", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.InstanceSeconds() <= 0 {
		t.Error("no instance seconds accrued")
	}
	rep := p.BuildReport()
	if rep.Invocations != 5 || rep.MeanLatency <= 0 || rep.P99Latency < rep.P50Latency {
		t.Errorf("report = %+v", rep)
	}
}

func TestMicroserviceBaseline(t *testing.T) {
	times := []sim.Time{0, 0.1, 0.2, 5, 5.1}
	rep, err := Microservice{Instances: 2, ExecMean: 0.5, ExecSigma: 0.1, Seed: 1}.Simulate(times)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invocations != 5 {
		t.Errorf("invocations = %d", rep.Invocations)
	}
	if rep.ColdStarts != 0 {
		t.Error("microservice reported cold starts")
	}
	if rep.InstanceSeconds <= 0 {
		t.Error("no always-on cost")
	}
	if _, err := (Microservice{Instances: 0}).Simulate(times); err == nil {
		t.Error("zero instances accepted")
	}
}

func TestComparisonShapes(t *testing.T) {
	res, err := RunComparison(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Serverless pays a cold-start tail; microservice pays idle cost.
	if res.Serverless.ColdStartPct <= 0 {
		t.Error("no cold starts in serverless run")
	}
	if res.CostRatio >= 1 {
		t.Errorf("cost ratio = %v, want < 1 (serverless cheaper on bursty workload)", res.CostRatio)
	}
	if res.TailPenalty <= 1 {
		t.Errorf("tail penalty = %v, want > 1 (cold-start tail)", res.TailPenalty)
	}
}

func TestWorkflowValidate(t *testing.T) {
	if err := (&WorkflowNode{}).Validate(); err == nil {
		t.Error("empty node accepted")
	}
	bad := &WorkflowNode{Task: "x", Sequence: []*WorkflowNode{Task("y")}}
	if err := bad.Validate(); err == nil {
		t.Error("ambiguous node accepted")
	}
	good := Seq(Task("a"), Par(Task("b"), Task("c")))
	if err := good.Validate(); err != nil {
		t.Errorf("valid workflow rejected: %v", err)
	}
	tasks := good.Tasks()
	if len(tasks) != 3 || tasks[0] != "a" {
		t.Errorf("Tasks = %v", tasks)
	}
}

func TestWorkflowUnknownFunctionRejected(t *testing.T) {
	p := NewPlatform(DefaultPlatformConfig())
	eng := &Engine{Platform: p, StepOverhead: 0.01}
	if err := eng.ScheduleWorkflow(0, Task("ghost"), nil); err == nil {
		t.Error("workflow with unknown function accepted")
	}
}

func TestWorkflowSequenceAndParallelSemantics(t *testing.T) {
	cfg := DefaultPlatformConfig()
	cfg.ColdStart = 0 // isolate execution semantics
	p := NewPlatform(cfg)
	for _, fn := range []string{"a", "b", "c"} {
		if err := p.Register(Function{Name: fn, ExecMean: 1, ExecSigma: 0.0001}); err != nil {
			t.Fatal(err)
		}
	}
	eng := &Engine{Platform: p, StepOverhead: 0}
	var seqRes, parRes WorkflowResult
	if err := eng.ScheduleWorkflow(0, Seq(Task("a"), Task("b"), Task("c")), func(r WorkflowResult) { seqRes = r }); err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleWorkflow(1000, Par(Task("a"), Task("b"), Task("c")), func(r WorkflowResult) { parRes = r }); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if seqRes.Steps != 3 || parRes.Steps != 3 {
		t.Fatalf("steps = %d/%d", seqRes.Steps, parRes.Steps)
	}
	// Sequence ~3s, parallel ~1s.
	if seqRes.Duration() < 2.5 {
		t.Errorf("sequence duration = %v, want ~3", seqRes.Duration())
	}
	if parRes.Duration() > 2 {
		t.Errorf("parallel duration = %v, want ~1", parRes.Duration())
	}
}

func TestWorkflowStudyOverheadBounded(t *testing.T) {
	res, err := RunWorkflowStudy(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflows != 20 {
		t.Fatalf("workflows = %d", res.Workflows)
	}
	if res.OverheadShare <= 0 || res.OverheadShare > 0.5 {
		t.Errorf("overhead share = %v, want (0, 0.5]", res.OverheadShare)
	}
}

func TestRunTable7AllRows(t *testing.T) {
	rows, err := RunTable7(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Finding == "" || r.Study == "" {
			t.Errorf("incomplete row %+v", r)
		}
	}
}

func TestCatalogs(t *testing.T) {
	if len(ServerlessPrinciples()) != 3 {
		t.Error("serverless principles != 3")
	}
	if len(ReferenceComponents()) < 6 {
		t.Error("reference components too few")
	}
	if len(EvolutionEras()) < 5 {
		t.Error("evolution eras too few")
	}
}
