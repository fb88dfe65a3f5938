package sched

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/workload"
)

// overloadTrace mixes big-data jobs (heavy-tailed, 40% DAG workflows) and
// computer-engineering jobs (wide bags) from one seed, renumbered to unique
// job and task IDs, with submit times compressed 60× so queues grow to
// thousands of tasks.
func overloadTrace(seed int64, perClass int) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	var jobs []*workload.Job
	jobBase, taskBase := 0, 0
	for _, c := range []workload.Class{workload.ClassBigData, workload.ClassComputerEngineering} {
		maxTask := taskBase
		for _, j := range workload.StandardGenerator(c).Generate(perClass, r).Jobs {
			j.ID += jobBase
			j.Submit /= 60
			for k := range j.Tasks {
				t := &j.Tasks[k]
				t.ID += taskBase
				t.JobID = j.ID
				for d := range t.Deps {
					t.Deps[d] += taskBase
				}
				maxTask = max(maxTask, t.ID)
			}
			jobs = append(jobs, j)
		}
		jobBase += perClass
		taskBase = maxTask
	}
	slices.SortStableFunc(jobs, func(a, b *workload.Job) int { return cmp.Compare(a.Submit, b.Submit) })
	return &workload.Trace{Jobs: jobs}
}

// compositeOf joins the clusters of several standard environments into one
// multi-site machine, as the portfolio experiments do for combined rows.
func compositeOf(kinds ...cluster.Kind) *cluster.Environment {
	env := &cluster.Environment{Kind: kinds[0]}
	for _, k := range kinds {
		sub := cluster.StandardEnvironment(k)
		env.Clusters = append(env.Clusters, sub.Clusters...)
		env.InterLatency = max(env.InterLatency, sub.InterLatency)
	}
	return env
}

// overloadEnvs gives each fingerprint seed its own multi-site machine.
var overloadEnvs = map[int64][]cluster.Kind{
	1: {cluster.KindGrid, cluster.KindCloud},
	2: {cluster.KindMultiCluster, cluster.KindGeoDistributed},
	3: {cluster.KindCluster, cluster.KindGrid},
}

// pinnedOverload holds, per policy and seed, an FNV-64a fold of the bits of
// every per-job stat in completion order (jobs) and of every Result field
// (result). The runs keep thousands of tasks queued, so they exercise the
// dispatch paths that short queues never reach: the early stop of a cycle,
// merging new arrivals into an ordered queue with equal keys, and
// FairShare re-ordering jobs whose served work changed.
var pinnedOverload = []struct {
	policy string
	seed   int64
	jobs   uint64
	result uint64
}{
	{"easy-bf", 1, 0x7c36b8b97e4b472b, 0x569631459fe00473},
	{"easy-bf", 2, 0xc42035c27e44cc49, 0x75227fc8aa83133a},
	{"easy-bf", 3, 0x99abb3d7f8ac5046, 0xe7f3f6436bccbca5},
	{"fairshare", 1, 0xb95d674b05364ec7, 0x91c7b6170b4acef5},
	{"fairshare", 2, 0x87d80bb401dcf1c, 0x452376e4373e4421},
	{"fairshare", 3, 0x648504f7f8470d9a, 0xed7d7d79ab5b63c8},
	{"fcfs", 1, 0xdf7c00140f19c844, 0x1f2474c12302b186},
	{"fcfs", 2, 0xca195a2023b169ac, 0x97fe8c99f407fd01},
	{"fcfs", 3, 0x94a04dbdff243a12, 0x3c9c165b769a88aa},
	{"greedy-bf", 1, 0xb14a43f38f9305f6, 0xa9fa7e094beb1fef},
	{"greedy-bf", 2, 0xd434451626f1da3c, 0xbf77f9eceee2092a},
	{"greedy-bf", 3, 0xff1853d1c77a8656, 0x5e9c901b78423561},
	{"ljf", 1, 0xd87e6434c9aa282c, 0xa7f7e619813d6fc9},
	{"ljf", 2, 0xc24e2ab2fb76f06, 0x25deb52e2919a77b},
	{"ljf", 3, 0x366d8b889b0b3a0f, 0x52ae810d93f8f792},
	{"random", 1, 0xf9a3397818284ef6, 0xe2a69fe70f3d0cf6},
	{"random", 2, 0x6bb7fdc53a234302, 0x4209b199df5ea2fc},
	{"random", 3, 0x59569fd958762cea, 0xb004ca88483e5aa7},
	{"sjf", 1, 0xa89d6b536a2f163c, 0x2abcd0fd121768c8},
	{"sjf", 2, 0xab78f22016e514e0, 0x940eb6e776465598},
	{"sjf", 3, 0x3160b74468840b89, 0x1fcf5114e0ab0cb7},
	{"wfp", 1, 0x2e1a3a2b4975618b, 0x522fc60ca60831dc},
	{"wfp", 2, 0x3b0ed065c704be6f, 0x25e07226469e1367},
	{"wfp", 3, 0xf2b2bfc5bd6f38ed, 0x218b918c40c1efb6},
}

// fold64 folds uint64 words into an FNV-64a hash.
type fold64 struct{ buf [8]byte }

func (f *fold64) sum(words ...uint64) uint64 {
	h := fnv.New64a()
	for _, w := range words {
		binary.LittleEndian.PutUint64(f.buf[:], w)
		h.Write(f.buf[:])
	}
	return h.Sum64()
}

func jobStatWords(js JobStats) []uint64 {
	met := uint64(0)
	if js.DeadlineMet {
		met = 1
	}
	return []uint64{
		uint64(js.JobID), math.Float64bits(float64(js.Submit)), math.Float64bits(float64(js.Start)),
		math.Float64bits(float64(js.Finish)), math.Float64bits(float64(js.Wait)),
		math.Float64bits(float64(js.Response)), math.Float64bits(js.Slowdown), met,
	}
}

func resultWords(res *Result) []uint64 {
	return []uint64{
		uint64(res.Completed), math.Float64bits(float64(res.Makespan)),
		math.Float64bits(res.MeanSlowdown), math.Float64bits(res.MeanResponse),
		math.Float64bits(res.MeanWait), math.Float64bits(res.UtilizationMean),
		uint64(res.DeadlineMisses), math.Float64bits(float64(res.Horizon)),
	}
}

// TestOverloadFingerprints pins every registered policy, on three overloaded
// multi-site runs each, to recorded bits.
func TestOverloadFingerprints(t *testing.T) {
	if want := 3 * len(PolicyNames()); len(pinnedOverload) != want {
		t.Errorf("%d pinned cases, want %d (3 seeds × every registered policy)", len(pinnedOverload), want)
	}
	type key struct {
		policy string
		seed   int64
	}
	pins := map[key][2]uint64{}
	for _, pin := range pinnedOverload {
		pins[key{pin.policy, pin.seed}] = [2]uint64{pin.jobs, pin.result}
	}
	var f fold64
	for _, name := range PolicyNames() {
		for seed := int64(1); seed <= 3; seed++ {
			p, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var words []uint64
			res, jobs, err := runWithStats(compositeOf(overloadEnvs[seed]...), overloadTrace(seed, 20), p, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, js := range jobs {
				words = append(words, jobStatWords(js)...)
			}
			got := [2]uint64{f.sum(words...), f.sum(resultWords(res)...)}
			if want, ok := pins[key{name, seed}]; !ok || got != want {
				t.Errorf("%s seed %d: got {%q, %d, %#x, %#x}, want %#x/%#x", name, seed, name, seed, got[0], got[1], want[0], want[1])
			}
		}
	}
}
