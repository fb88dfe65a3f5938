package sim

import (
	"reflect"
	"testing"
	"time"
)

// stripWall zeroes the nondeterministic wall field so records can be
// compared across runs.
func stripWall(recs []TraceRecord) []TraceRecord {
	out := make([]TraceRecord, len(recs))
	for i, r := range recs {
		r.WallNs = 0
		out[i] = r
	}
	return out
}

// runTracedModel runs a small model exercising every hook: schedules,
// fires, a cancellation discarded mid-run, and RNG draws on two streams.
func runTracedModel(t *testing.T, tr Tracer) *Kernel {
	t.Helper()
	k := NewKernel(7)
	k.SetTracer(tr)
	k.At(1, "a", func(k *Kernel) {
		k.Rand("svc").Float64()
		k.After(2, "b", func(k *Kernel) { k.Rand("svc").Float64() })
		ref := k.After(5, "doomed", func(*Kernel) { t.Fatal("cancelled event fired") })
		ref.Cancel()
	})
	k.At(2, "c", func(k *Kernel) { k.Rand("arrival").Float64() })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return k
}

func TestProfileCounts(t *testing.T) {
	p := NewProfile()
	runTracedModel(t, p)
	rows := p.Rows()
	want := map[string]EventStats{
		"a":      {Scheduled: 1, Fired: 1},
		"b":      {Scheduled: 1, Fired: 1},
		"c":      {Scheduled: 1, Fired: 1},
		"doomed": {Scheduled: 1, Cancelled: 1},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Name >= rows[i].Name {
			t.Fatalf("rows not sorted: %q before %q", rows[i-1].Name, rows[i].Name)
		}
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Fatalf("unexpected row %q", r.Name)
		}
		if r.Scheduled != w.Scheduled || r.Fired != w.Fired || r.Cancelled != w.Cancelled {
			t.Errorf("%s: got sched=%d fired=%d cancelled=%d, want %+v", r.Name, r.Scheduled, r.Fired, r.Cancelled, w)
		}
		if r.Fired > 0 && r.WallNs < 0 {
			t.Errorf("%s: negative wall %d", r.Name, r.WallNs)
		}
		if r.WallMaxNs > r.WallNs {
			t.Errorf("%s: max wall %d exceeds total %d", r.Name, r.WallMaxNs, r.WallNs)
		}
	}
	streams := p.Streams()
	wantStreams := []StreamRow{{Stream: "arrival", Accesses: 1}, {Stream: "svc", Accesses: 2}}
	if !reflect.DeepEqual(streams, wantStreams) {
		t.Fatalf("streams: got %+v, want %+v", streams, wantStreams)
	}
}

func TestTraceLogDeterministicAcrossRuns(t *testing.T) {
	var logs [2]*TraceLog
	for i := range logs {
		logs[i] = &TraceLog{}
		runTracedModel(t, logs[i])
	}
	if len(logs[0].Records) == 0 {
		t.Fatal("no records captured")
	}
	if !reflect.DeepEqual(stripWall(logs[0].Records), stripWall(logs[1].Records)) {
		t.Fatalf("virtual-time records differ between identical runs:\n%+v\n%+v", logs[0].Records, logs[1].Records)
	}
	// The cancelled event must be visible as a cancel record, not a fire.
	var sawCancel bool
	for _, r := range logs[0].Records {
		if r.Name == "doomed" && r.Kind == TraceFire {
			t.Fatal("cancelled event recorded as fired")
		}
		if r.Name == "doomed" && r.Kind == TraceCancel {
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Fatal("no cancel record for doomed event")
	}
}

func TestTraceLogCap(t *testing.T) {
	l := &TraceLog{Max: 3}
	k := NewKernel(1)
	k.SetTracer(l)
	for i := 0; i < 5; i++ {
		k.At(Time(i), "e", func(*Kernel) {})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(l.Records) != 3 {
		t.Fatalf("got %d records, want cap 3", len(l.Records))
	}
	// 5 schedules + 5 fires = 10 observations, 3 kept.
	if l.Dropped != 7 {
		t.Fatalf("got %d dropped, want 7", l.Dropped)
	}
}

func TestTeeAndNilTracers(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of no live tracers should be nil")
	}
	p := NewProfile()
	if Tee(nil, p) != Tracer(p) {
		t.Fatal("Tee of one live tracer should return it directly")
	}
	l := &TraceLog{}
	runTracedModel(t, Tee(p, l))
	if len(l.Records) == 0 || len(p.Rows()) == 0 {
		t.Fatal("tee did not fan out to both tracers")
	}
}

func TestUntracedRunMatchesTracedVirtualTime(t *testing.T) {
	traced := runTracedModel(t, NewProfile())
	bare := runTracedModel(t, nil)
	if traced.Now() != bare.Now() || traced.fired != bare.fired {
		t.Fatalf("tracer perturbed the simulation: traced (now=%v fired=%d) vs bare (now=%v fired=%d)",
			traced.Now(), traced.fired, bare.Now(), bare.fired)
	}
}

func TestKernelObserverAndGlobalCounter(t *testing.T) {
	var captured []*Kernel
	SetKernelObserver(func(k *Kernel) { captured = append(captured, k) })
	defer SetKernelObserver(nil)

	before := GlobalEventsFired()
	k := NewKernel(99)
	if len(captured) != 1 || captured[0] != k {
		t.Fatalf("observer saw %d kernels, want the one just created", len(captured))
	}
	if k.Seed() != 99 {
		t.Fatalf("Seed() = %d, want 99", k.Seed())
	}
	for i := 0; i < 4; i++ {
		k.At(Time(i), "e", func(*Kernel) {})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := GlobalEventsFired() - before; got != 4 {
		t.Fatalf("global counter advanced by %d, want 4", got)
	}
	// A second Run over new events must not double-flush the old ones.
	k.At(k.Now()+1, "late", func(*Kernel) {})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := GlobalEventsFired() - before; got != 5 {
		t.Fatalf("global counter advanced by %d after second run, want 5", got)
	}

	SetKernelObserver(nil)
	NewKernel(1)
	if len(captured) != 1 {
		t.Fatal("observer still firing after removal")
	}
}

func TestEventFiredWallTimeMeasured(t *testing.T) {
	p := NewProfile()
	k := NewKernel(3)
	k.SetTracer(p)
	k.At(0, "sleepy", func(*Kernel) { time.Sleep(2 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rows := p.Rows()
	if len(rows) != 1 || rows[0].WallNs < int64(time.Millisecond) {
		t.Fatalf("handler wall time not measured: %+v", rows)
	}
}
