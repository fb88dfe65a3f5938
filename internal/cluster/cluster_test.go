package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMachineClaimRelease(t *testing.T) {
	m := &Machine{ID: 1, Cores: 8, Speed: 1}
	if err := m.Claim(5); err != nil {
		t.Fatalf("Claim(5): %v", err)
	}
	if m.Free() != 3 || m.used != 5 {
		t.Errorf("Free/used = %d/%d", m.Free(), m.used)
	}
	if err := m.Claim(4); err == nil {
		t.Error("over-claim succeeded")
	}
	if err := m.Release(5); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := m.Release(1); err == nil {
		t.Error("over-release succeeded")
	}
	if err := m.Claim(-1); err == nil {
		t.Error("negative claim succeeded")
	}
}

func TestMachineInvariantProperty(t *testing.T) {
	// Property: any sequence of claims/releases keeps 0 <= used <= cores.
	f := func(ops []int8) bool {
		m := &Machine{ID: 1, Cores: 16, Speed: 1}
		for _, op := range ops {
			n := int(op)
			if n >= 0 {
				_ = m.Claim(n % 17)
			} else {
				_ = m.Release((-n) % 17)
			}
			if m.used < 0 || m.used > m.Cores {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClusterAggregates(t *testing.T) {
	c := &Cluster{Name: "c0", Machines: []*Machine{
		{ID: 1, Cores: 4, Speed: 1},
		{ID: 2, Cores: 4, Speed: 1},
	}}
	if c.TotalCores() != 8 || c.FreeCores() != 8 {
		t.Errorf("Total/Free = %d/%d", c.TotalCores(), c.FreeCores())
	}
	if err := c.Machines[0].Claim(3); err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if got := c.Utilization(); math.Abs(got-3.0/8) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.375", got)
	}
	empty := &Cluster{}
	if empty.Utilization() != 0 {
		t.Error("empty cluster utilization != 0")
	}
}

func TestStandardEnvironments(t *testing.T) {
	tests := []struct {
		kind      Kind
		sites     int
		wantCores int
	}{
		{KindCluster, 1, 32 * 8},
		{KindGrid, 4, 4 * 16 * 8},
		{KindCloud, 1, 8 * 8},
		{KindMultiCluster, 3, 3 * 16 * 8},
		{KindGeoDistributed, 5, 5 * 8 * 8},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			env := StandardEnvironment(tt.kind)
			if len(env.Clusters) != tt.sites {
				t.Errorf("sites = %d, want %d", len(env.Clusters), tt.sites)
			}
			if env.TotalCores() != tt.wantCores {
				t.Errorf("cores = %d, want %d", env.TotalCores(), tt.wantCores)
			}
			if env.Utilization() != 0 {
				t.Errorf("fresh utilization = %v", env.Utilization())
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if KindGrid.String() != "G" || KindGeoDistributed.String() != "GDC" {
		t.Error("Kind String mismatch")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown Kind String mismatch")
	}
}

// TestNewHomogeneousAllocs checks that building an environment allocates
// per site, not per machine, and that the slab-built machines are distinct,
// numbered from 1 across sites, and each cluster's machine list is its own:
// appending to one must not write into the next.
func TestNewHomogeneousAllocs(t *testing.T) {
	allocs := func(machines int) float64 {
		return testing.AllocsPerRun(10, func() { NewHomogeneous(KindGrid, 3, machines, 8) })
	}
	if few, many := allocs(4), allocs(1024); many != few {
		t.Errorf("%.0f allocs for 3 × 1024 machines, %.0f for 3 × 4 (want equal)", many, few)
	}
	env := NewHomogeneous(KindGrid, 3, 4, 8)
	id := 0
	for s, cl := range env.Clusters {
		if len(cl.Machines) != 4 || cl.TotalCores() != 32 {
			t.Fatalf("site %d: %d machines, %d cores", s, len(cl.Machines), cl.TotalCores())
		}
		for _, m := range cl.Machines {
			if id++; m.ID != id {
				t.Fatalf("site %d: machine ID %d, want %d", s, m.ID, id)
			}
		}
	}
	next := env.Clusters[1].Machines[0]
	env.Clusters[0].Machines = append(env.Clusters[0].Machines, &Machine{ID: -1})
	if env.Clusters[1].Machines[0] != next {
		t.Fatal("appending to site 0's machines wrote into site 1's")
	}
	if err := env.Clusters[0].Machines[0].Claim(8); err != nil || env.Clusters[0].Machines[1].Free() != 8 {
		t.Fatalf("claiming one machine changed another (err %v)", err)
	}
}
