package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"atlarge/internal/exec"
)

// claimSizes returns the lengths of claims.
func claimSizes(claims [][]int) []int {
	out := make([]int, len(claims))
	for i, c := range claims {
		out[i] = len(c)
	}
	return out
}

// seq returns the indices [lo, hi).
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestPlanClaimsSmoke32: the 32-task smoke sweep's two trace groups on 2
// one-slot workers cut into 10 claims, 8, 8, 4, 4, 2, 2, 1, 1, 1, 1, the
// first two inside the first group and the rest inside the second; on
// 2-slot workers no claim drops below 2 tasks, and on 4-slot workers below 4.
func TestPlanClaimsSmoke32(t *testing.T) {
	var g0, g1 []int
	for i := 0; i < 32; i++ {
		if i%2 == 0 {
			g0 = append(g0, i)
		} else {
			g1 = append(g1, i)
		}
	}
	for _, tc := range []struct {
		slots int
		want  []int
	}{
		{1, []int{8, 8, 4, 4, 2, 2, 1, 1, 1, 1}},
		{2, []int{8, 8, 4, 4, 2, 2, 2, 2}},
		{4, []int{8, 8, 4, 4, 4, 4}},
	} {
		claims := planClaims([][]int{g0, g1}, 2, tc.slots)
		if got := claimSizes(claims); !slices.Equal(got, tc.want) {
			t.Fatalf("%d slots: claim sizes %v, want %v", tc.slots, got, tc.want)
		}
		if !slices.Equal(slices.Concat(claims[:2]...), g0) || !slices.Equal(slices.Concat(claims[2:]...), g1) {
			t.Errorf("%d slots: claims %v do not walk the groups in order", tc.slots, claims)
		}
	}
}

// TestPlanClaimsProperty: over random groups, worker counts and slot
// counts, the claims walk the groups in order, list every task once, never
// span two groups, ascend, and shrink batch by batch down to the slot
// count, below which only a group's last claim drops.
func TestPlanClaimsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		workers, slots := 1+rng.Intn(5), 1+rng.Intn(3)
		perm := rng.Perm(1 + rng.Intn(80))
		var groups [][]int
		group := make(map[int]int)
		for at := 0; at < len(perm); {
			n := 1 + rng.Intn(len(perm)-at)
			if rng.Intn(3) == 0 {
				n = min(n, 1+rng.Intn(4))
			}
			for _, i := range perm[at : at+n] {
				group[i] = len(groups)
			}
			groups = append(groups, slices.Clone(perm[at:at+n]))
			at += n
		}
		claims := planClaims(groups, workers, slots)

		seen := make(map[int]bool)
		lastGroup, limit := 0, 0
		for k, c := range claims {
			// Each batch of one claim per worker cuts claims of
			// max(ceil(remaining / 2w), slots) tasks, shorter only at a
			// group's end.
			if k%workers == 0 {
				remaining := len(perm) - len(seen)
				limit = max((remaining+2*workers-1)/(2*workers), slots)
			}
			g := group[c[0]]
			atEnd := slices.Contains(c, groups[g][len(groups[g])-1])
			if len(c) > limit || len(c) < limit && !atEnd {
				t.Fatalf("trial %d: claim %d holds %d tasks, its batch cuts %d", trial, k, len(c), limit)
			}
			if len(c) == 0 || !slices.IsSorted(c) {
				t.Fatalf("trial %d: claim %d = %v is empty or unsorted", trial, k, c)
			}
			if g < lastGroup {
				t.Fatalf("trial %d: claim %d goes back to group %d after %d", trial, k, g, lastGroup)
			}
			lastGroup = g
			for _, i := range c {
				if seen[i] || group[i] != g {
					t.Fatalf("trial %d: claim %d = %v repeats a task or spans groups", trial, k, c)
				}
				seen[i] = true
			}
		}
		if len(seen) != len(perm) {
			t.Fatalf("trial %d: claims cover %d of %d tasks", trial, len(seen), len(perm))
		}
		if last := claims[len(claims)-1]; len(last) > slots {
			t.Fatalf("trial %d: last claim holds %d tasks, over the %d slots", trial, len(last), slots)
		}
	}
}

// TestDispatcherFollowsGroups: the claims a worker receives follow the
// dispatch groups (never spanning two), hold no fewer tasks than the pool
// the worker announced except at a group's end, and every task runs exactly
// once.
func TestDispatcherFollowsGroups(t *testing.T) {
	const n = 24
	var mu sync.Mutex
	var got [][]int
	w := &Worker{Build: map[string]Builder{"test": testBuilder}, Parallelism: 3}
	srv := httptest.NewServer(recordClaims(w.Handler(), &mu, &got))
	t.Cleanup(srv.Close)
	c, err := Dial(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]int{seq(12, 24), seq(0, 12)}
	d, err := NewDispatcher[testResult]([]*Client{c}, DispatchOptions{Job: mustJob(t, testJob{N: n}), Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	results, errs := exec.Collect(d.Stream(context.Background(), dispatchPlan(n), exec.Options[testResult]{}), n, nil)
	checkResults(t, results, errs)
	mu.Lock()
	defer mu.Unlock()
	if want := planClaims([][]int{seq(12, 24), seq(0, 12)}, 1, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("worker received claims %v, want %v", got, want)
	}
}

// recordClaims wraps a worker handler to record every claim's task list.
func recordClaims(next http.Handler, mu *sync.Mutex, got *[][]int) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			var buf bytes.Buffer
			buf.ReadFrom(r.Body)
			var req ClaimRequest
			if json.Unmarshal(buf.Bytes(), &req) == nil {
				mu.Lock()
				*got = append(*got, req.Tasks)
				mu.Unlock()
			}
			r.Body = io.NopCloser(&buf)
		}
		next.ServeHTTP(rw, r)
	})
}

// TestLostClaimRequeuedWhole: the unsettled tasks of a lost claim come back
// as exactly one claim.
func TestLostClaimRequeuedWhole(t *testing.T) {
	const n = 30
	var mu sync.Mutex
	var flaky, healthy [][]int
	fw := flakyWorker(t, 2, func(tasks []int) {
		mu.Lock()
		flaky = append(flaky, tasks)
		mu.Unlock()
	})
	w := &Worker{Build: map[string]Builder{"test": testBuilder}, Parallelism: 3}
	srv := httptest.NewServer(recordClaims(w.Handler(), &mu, &healthy))
	t.Cleanup(srv.Close)
	hc, err := Dial(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	dstats := &Stats{}
	d, err := NewDispatcher[testResult]([]*Client{hc, fw}, DispatchOptions{Job: mustJob(t, testJob{N: n}), Stats: dstats})
	if err != nil {
		t.Fatal(err)
	}
	results, errs := exec.Collect(d.Stream(context.Background(), dispatchPlan(n), exec.Options[testResult]{}), n, nil)
	checkResults(t, results, errs)
	mu.Lock()
	defer mu.Unlock()
	all := append(slices.Clone(healthy), flaky...)
	lost := 0
	for _, c := range flaky {
		if len(c) <= 2 {
			continue
		}
		lost++
		found := false
		for _, other := range all {
			found = found || slices.Equal(other, c[2:])
		}
		if !found {
			t.Errorf("lost claim %v: its unsettled tasks %v never came back as one claim (claims %v)", c, c[2:], all)
		}
	}
	if lost == 0 || dstats.Redispatched() == 0 {
		t.Fatalf("the flaky worker lost no claim (claims %v)", flaky)
	}
}

// claimStatus posts one claim body to a worker handler and returns the
// status and body.
func claimStatus(t *testing.T, h http.Handler, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tasks:claim", strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestClaimRefusals: the worker answers a claim it cannot run with a 400
// whose JSON error names the problem, before running anything.
func TestClaimRefusals(t *testing.T) {
	h := (&Worker{Build: map[string]Builder{"test": testBuilder}, Parallelism: 1}).Handler()
	job := `"job": {"kind": "test", "spec": {"n": 4}, "seed": 1, "replicas": 1}`
	for _, tc := range []struct{ body, want string }{
		{`{"protocol": 1, ` + job + `, "start": 0, "end": 4}`, "claim speaks 1, this worker speaks 2"},
		{`{"protocol": 2, ` + job + `}`, "lists no tasks"},
		{`{"protocol": 2, ` + job + `, "tasks": []}`, "lists no tasks"},
		{`{"protocol": 2, ` + job + `, "tasks": [0, 4]}`, "task index 4 outside the 4-task plan"},
		{`{"protocol": 2, ` + job + `, "tasks": [-1, 2]}`, "task index -1 outside the 4-task plan"},
		{`{"protocol": 2, ` + job + `, "tasks": [2, 1]}`, "not ascending: 1 follows 2"},
		{`{"protocol": 2, ` + job + `, "tasks": [1, 1]}`, "lists task 1 twice"},
		{`{"protocol": 2, "job": {"kind": "nope"}, "tasks": [0]}`, `unknown job kind "nope"`},
		{`{"protocol": 2, ` + job + `, "tasks": "0"}`, "bad claim body"},
	} {
		code, body := claimStatus(t, h, tc.body)
		var env struct{ Error string }
		if code != http.StatusBadRequest || json.Unmarshal([]byte(body), &env) != nil || !strings.Contains(env.Error, tc.want) {
			t.Errorf("claim %s: got %d %q, want 400 naming %q", tc.body, code, body, tc.want)
		}
	}
}

// TestHandshakeProtocol: a worker introduces itself as protocol 2.
func TestHandshakeProtocol(t *testing.T) {
	h := (&Worker{}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/handshake", nil))
	var hs Handshake
	if err := json.Unmarshal(rec.Body.Bytes(), &hs); err != nil || hs.Protocol != 2 || hs.Service != HandshakeService {
		t.Fatalf("handshake %q (%v), want protocol 2", rec.Body.String(), err)
	}
}

// FuzzClaim feeds arbitrary claim bodies to a worker whose "test" kind
// builds the same 8-task plan (task 3 fails) for any job document. Every
// body must get either a JSON 400 or a stream that settles exactly the
// requested tasks, each once, and ends with a done line; no body may panic
// the worker. The committed corpus (testdata/fuzz/FuzzClaim) holds valid,
// version-1 and malformed claims.
func FuzzClaim(f *testing.F) {
	build := func(Job) (*exec.Plan[json.RawMessage], error) {
		return testBuilder(Job{Spec: json.RawMessage(`{"n": 8, "fail": [3]}`)})
	}
	h := (&Worker{Build: map[string]Builder{"test": build}, Parallelism: 2}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tasks:claim", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var env struct{ Error string }
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error == "" {
				t.Fatalf("refusal %d %q is not a JSON 400", rec.Code, rec.Body.String())
			}
			return
		}
		var req ClaimRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("worker accepted a body that does not decode: %v", err)
		}
		mr := newMsgReader(bytes.NewReader(rec.Body.Bytes()))
		var settled []int
		for {
			m, err := mr.Read()
			if err != nil {
				t.Fatalf("stream for tasks %v ended without a done line: %v", req.Tasks, err)
			}
			switch m.Type {
			case MsgResult, MsgError:
				if m.ID != fmt.Sprintf("task-%d", m.Index) {
					t.Fatalf("line for task %d carries ID %q", m.Index, m.ID)
				}
				settled = append(settled, m.Index)
				continue
			case MsgDone:
				if m.Completed != len(settled) {
					t.Fatalf("done line counts %d, stream settled %d", m.Completed, len(settled))
				}
			default:
				continue
			}
			break
		}
		slices.Sort(settled)
		if !slices.Equal(settled, req.Tasks) {
			t.Fatalf("stream settled %v, claim asked for %v", settled, req.Tasks)
		}
	})
}
