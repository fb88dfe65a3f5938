package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atlarge"
)

// testRegistry builds a tiny catalog so server tests never pay for the real
// simulations.
func testRegistry(t *testing.T) *atlarge.Registry {
	t.Helper()
	reg := atlarge.NewRegistry()
	for i, id := range []string{"alpha", "beta"} {
		id := id
		reg.MustRegister(atlarge.Experiment{
			ID:    id,
			Title: "experiment " + id,
			Tags:  []string{"fast"},
			Order: (i + 1) * 10,
			Run: func(_ context.Context, seed int64) (*atlarge.Report, error) {
				rep := atlarge.NewReport(id, "experiment "+id)
				rep.AddMetric(atlarge.Metric{Name: "value", Value: float64(seed % 1000)})
				tb := rep.AddTable("rows", "label", "value")
				tb.AddRow(atlarge.Label("P2 ("+id+")"), atlarge.Num(float64(seed%7), "%.0f"))
				return rep, nil
			},
		})
	}
	return reg
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Config{Registry: testRegistry(t), Parallelism: 2}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestServeExperiments(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var entries []CatalogEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(entries) != 2 || entries[0].ID != "alpha" || entries[1].ID != "beta" {
		t.Errorf("catalog = %+v", entries)
	}
}

func TestServeRunAndCache(t *testing.T) {
	srv := newTestServer(t)
	url := srv.URL + "/v1/run?ids=alpha,beta&seed=42&replicas=3"

	resp1, body1 := get(t, url)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp1.StatusCode, body1)
	}
	if state := resp1.Header.Get("X-Atlarge-Cache"); state != "miss" {
		t.Errorf("first request cache state = %q, want miss", state)
	}

	resp2, body2 := get(t, url)
	if state := resp2.Header.Get("X-Atlarge-Cache"); state != "hit" {
		t.Errorf("second request cache state = %q, want hit", state)
	}
	if body1 != body2 {
		t.Error("cached response differs from computed response")
	}

	// A subset of a cached request is fully served from cache.
	resp3, _ := get(t, srv.URL+"/v1/run?ids=beta&seed=42&replicas=3")
	if state := resp3.Header.Get("X-Atlarge-Cache"); state != "hit" {
		t.Errorf("subset cache state = %q, want hit", state)
	}
	// A new seed misses; mixing cached and uncached ids is partial.
	get(t, srv.URL+"/v1/run?ids=alpha&seed=7")
	resp4, _ := get(t, srv.URL+"/v1/run?ids=alpha,beta&seed=7")
	if state := resp4.Header.Get("X-Atlarge-Cache"); state != "partial" {
		t.Errorf("mixed cache state = %q, want partial", state)
	}

	var doc atlarge.RunDocument
	if err := json.Unmarshal([]byte(body1), &doc); err != nil {
		t.Fatalf("invalid run document: %v", err)
	}
	if doc.Seed != 42 || len(doc.Experiments) != 2 {
		t.Fatalf("document shape: %+v", doc)
	}
	for _, e := range doc.Experiments {
		if e.Replicas != 3 || e.Report == nil || e.Aggregate == nil {
			t.Errorf("experiment %s incomplete: %+v", e.ID, e)
		}
	}
}

func TestServeRunErrors(t *testing.T) {
	srv := newTestServer(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"ids=nope", http.StatusNotFound},
		{"seed=abc", http.StatusBadRequest},
		{"replicas=0", http.StatusBadRequest},
		{"replicas=1000000", http.StatusBadRequest},
		{"replicas=x", http.StatusBadRequest},
	} {
		resp, body := get(t, srv.URL+"/v1/run?"+tc.query)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.query, resp.StatusCode, tc.want, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: no error envelope: %s", tc.query, body)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/run status = %d, want 405", resp.StatusCode)
	}
}

func TestServeScenarioSweep(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 2}))
	defer srv.Close()
	spec := `{"version": 2, "name": "api-sweep", "domain": "sched",
		"policy": "sjf", "workload": {"class": "syn", "jobs": 8},
		"cluster": {"machines": 2},
		"sweep": {"policy": ["sjf", "fcfs"]}}`
	resp, err := http.Post(srv.URL+"/v1/scenario/sweep?seed=5&replicas=2", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Name     string `json:"name"`
		Domain   string `json:"domain"`
		Seed     int64  `json:"seed"`
		Replicas int    `json:"replicas"`
		Cells    []struct {
			ID      string                        `json:"id"`
			Metrics map[string]map[string]float64 `json:"-"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("invalid sweep report: %v\n%s", err, body)
	}
	if rep.Name != "api-sweep" || rep.Domain != "sched" || rep.Seed != 5 || rep.Replicas != 2 || len(rep.Cells) != 2 {
		t.Errorf("sweep report shape: %+v", rep)
	}

	// A malformed body is a 400 with the scenario validator's message.
	resp2, err := http.Post(srv.URL+"/v1/scenario/sweep", "application/json", strings.NewReader(`{"version": 1, "name": "x", "policy": "nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if body := readAll(t, resp2); resp2.StatusCode != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
		t.Errorf("bad spec: status %d body %s", resp2.StatusCode, body)
	}
}

// TestServeRunCoalescesConcurrentMisses pins the singleflight behavior:
// concurrent identical cache misses simulate once and share the result.
func TestServeRunCoalescesConcurrentMisses(t *testing.T) {
	var runs atomic.Int64
	reg := atlarge.NewRegistry()
	reg.MustRegister(atlarge.Experiment{
		ID: "slow", Title: "slow", Order: 1,
		Run: func(_ context.Context, seed int64) (*atlarge.Report, error) {
			runs.Add(1)
			time.Sleep(50 * time.Millisecond)
			rep := atlarge.NewReport("slow", "slow")
			rep.AddMetric(atlarge.Metric{Name: "v", Value: 1})
			return rep, nil
		},
	})
	srv := httptest.NewServer(New(Config{Registry: reg}))
	defer srv.Close()

	const clients = 8
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/run?ids=slow&seed=3")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i] = readAll(t, resp)
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("experiment ran %d times for %d concurrent identical requests, want 1", got, clients)
	}
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("client %d got a different body", i)
		}
	}
}

// TestServeScenarioSweepBodyLimit pins the request-body cap.
func TestServeScenarioSweepBodyLimit(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	huge := strings.NewReader(`{"pad": "` + strings.Repeat("x", maxSpecBytes+1) + `"}`)
	resp, err := http.Post(srv.URL+"/v1/scenario/sweep", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body := readAll(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", resp.StatusCode, body)
	}
}
