// Package cluster models the compute environments of the paper's Table 9:
// own clusters (CL), grids (G), public clouds (CD), multi-cluster
// datacenters (MCD), and geo-distributed datacenters (GDC).
//
// The model is slot-based: a Machine exposes a number of CPU slots;
// allocations claim slots for a duration. The package also models cloud
// pricing (on-demand and reserved instances) for the cost analyses of the
// autoscaling experiments (§6.7).
package cluster

import (
	"fmt"

	"atlarge/internal/sim"
)

// Kind identifies a Table 9 environment.
type Kind int

// Environment kinds; acronyms follow Table 9.
const (
	KindCluster        Kind = iota + 1 // CL: own cluster
	KindGrid                           // G: grid of clusters with slower interconnect
	KindCloud                          // CD: public cloud, elastic capacity
	KindMultiCluster                   // MCD: multi-cluster datacenter
	KindGeoDistributed                 // GDC: geo-distributed datacenters
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCluster:
		return "CL"
	case KindGrid:
		return "G"
	case KindCloud:
		return "CD"
	case KindMultiCluster:
		return "MCD"
	case KindGeoDistributed:
		return "GDC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Machine is a single host with a fixed number of CPU slots. Speed scales
// task runtimes (runtime/Speed); heterogeneous environments mix speeds.
type Machine struct {
	ID    int
	Cores int
	Speed float64 // relative; 1.0 is the reference machine
	used  int
}

// Free returns the number of unclaimed slots.
func (m *Machine) Free() int { return m.Cores - m.used }

// Claim reserves n slots. It returns an error when insufficient slots are
// free.
func (m *Machine) Claim(n int) error {
	if n < 0 {
		return fmt.Errorf("cluster: claim of %d slots on machine %d", n, m.ID)
	}
	if m.Free() < n {
		return fmt.Errorf("cluster: machine %d has %d free slots, need %d", m.ID, m.Free(), n)
	}
	m.used += n
	return nil
}

// Release frees n slots. Releasing more than claimed is an error.
func (m *Machine) Release(n int) error {
	if n < 0 || n > m.used {
		return fmt.Errorf("cluster: release of %d slots on machine %d with %d used", n, m.ID, m.used)
	}
	m.used -= n
	return nil
}

// Cluster is a named group of machines behind one network.
type Cluster struct {
	Name     string
	Machines []*Machine
	// Latency is the intra-cluster communication latency (virtual seconds);
	// grids and geo-distributed environments have higher inter-site latency.
	Latency sim.Duration
}

// TotalCores sums the slots of all machines.
func (c *Cluster) TotalCores() int {
	n := 0
	for _, m := range c.Machines {
		n += m.Cores
	}
	return n
}

// FreeCores sums the free slots of all machines.
func (c *Cluster) FreeCores() int {
	n := 0
	for _, m := range c.Machines {
		n += m.Free()
	}
	return n
}

// Utilization returns used/total slots, or 0 for an empty cluster.
func (c *Cluster) Utilization() float64 {
	total := c.TotalCores()
	if total == 0 {
		return 0
	}
	return float64(total-c.FreeCores()) / float64(total)
}

// Environment is a complete Table 9 execution environment: one or more
// clusters of fixed size. The cloud kind (CD) is a fixed base pool too; VM
// billing lives in autoscale.CostModel.
type Environment struct {
	Kind     Kind
	Clusters []*Cluster
	// InterLatency is the cross-cluster latency; relevant for G, MCD, GDC.
	InterLatency sim.Duration
}

// TotalCores sums the cores over clusters.
func (e *Environment) TotalCores() int {
	n := 0
	for _, c := range e.Clusters {
		n += c.TotalCores()
	}
	return n
}

// FreeCores sums free slots over clusters.
func (e *Environment) FreeCores() int {
	n := 0
	for _, c := range e.Clusters {
		n += c.FreeCores()
	}
	return n
}

// Utilization is the slot utilization over all clusters.
func (e *Environment) Utilization() float64 {
	total := e.TotalCores()
	if total == 0 {
		return 0
	}
	return float64(total-e.FreeCores()) / float64(total)
}

// NewHomogeneous builds an environment of the given kind with siteCount
// clusters of machineCount machines of coreCount cores each.
func NewHomogeneous(kind Kind, siteCount, machineCount, coreCount int) *Environment {
	env := &Environment{Kind: kind}
	id := 0
	for s := 0; s < siteCount; s++ {
		cl := &Cluster{Name: fmt.Sprintf("site-%d", s), Latency: 0.0005}
		for m := 0; m < machineCount; m++ {
			id++
			cl.Machines = append(cl.Machines, &Machine{ID: id, Cores: coreCount, Speed: 1})
		}
		env.Clusters = append(env.Clusters, cl)
	}
	switch kind {
	case KindGrid:
		env.InterLatency = 0.05
	case KindMultiCluster:
		env.InterLatency = 0.002
	case KindGeoDistributed:
		env.InterLatency = 0.1
	case KindCluster, KindCloud:
		// single site, no special latency
	}
	return env
}

// StandardEnvironment returns the calibrated environment for a Table 9 kind:
// CL is one 32-node cluster, G is 4 sites of 16 nodes, CD is a fixed base
// pool of 8 nodes, MCD is 3 co-located clusters, GDC is 5 distant sites.
func StandardEnvironment(kind Kind) *Environment {
	sites, machines, cores := StandardShape(kind)
	return NewHomogeneous(kind, sites, machines, cores)
}

// StandardShape returns the sites, machines per site and cores per machine
// of the kind's standard environment.
func StandardShape(kind Kind) (sites, machines, cores int) {
	switch kind {
	case KindCluster:
		return 1, 32, 8
	case KindGrid:
		return 4, 16, 8
	case KindCloud:
		return 1, 8, 8
	case KindMultiCluster:
		return 3, 16, 8
	case KindGeoDistributed:
		return 5, 8, 8
	default:
		panic(fmt.Sprintf("cluster: unknown kind %v", kind))
	}
}
