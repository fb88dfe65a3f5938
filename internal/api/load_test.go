package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"atlarge"
)

// TestServeLoad's load: loadClients clients each submit loadJobs sweep jobs,
// then issue loadRounds /v1/run queries, on loadParallel pool workers. At
// most loadClients jobs run at once; a refused submit retries after
// Retry-After (capped at loadRetryCap), up to loadSubmitAttempts POSTs.
const (
	loadClients        = 8
	loadRounds         = 30
	loadJobs           = 2
	loadParallel       = 4
	loadP99            = 2 * time.Second
	loadRetryCap       = 250 * time.Millisecond
	loadSubmitAttempts = 120
	loadJobTasks       = 4 // per jobBody job: 2 sweep cells x 2 replicas
)

// TestServeLoad load-tests the serving layer in-process and audits zero
// dropped jobs (every accepted job, refused first or not, serves a result),
// the /v1/run p99 bound, and /metrics against the clients' tally, refusals
// included. A poison client's experiment panics on every run; each of its
// requests must fail alone with a 500 naming the panic. With workers, the
// dist layer reconciles too: completions cover every job task, none in
// flight or re-dispatched.
func TestServeLoad(t *testing.T) {
	t.Run("local", func(t *testing.T) { runServeLoad(t, 0) })
	t.Run("workers=3", func(t *testing.T) { runServeLoad(t, 3) })
}

// loadTally is one client's ledger.
type loadTally struct {
	ids       []string        // accepted jobs
	refused   int             // POSTs refused with 429 job_limit
	latencies []time.Duration // successful /v1/run queries
	seeds     []int           // seeds of the successful /v1/run queries
}

func runServeLoad(t *testing.T, workers int) {
	reg := testRegistry(t)
	reg.MustRegister(atlarge.Experiment{
		ID: "poison", Title: "poison", Order: 99,
		Run: func(context.Context, int64) (*atlarge.Report, error) { panic("poisoned experiment") },
	})
	cfg := Config{Registry: reg, Parallelism: loadParallel, MaxJobs: loadClients}
	if workers > 0 {
		cfg.Workers = startDistWorkers(t, workers)
	}
	srv := New(cfg)
	if err := srv.ConnectWorkers(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tallies := make([]loadTally, loadClients)
	errs := make(chan error, loadClients+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := poisonClient(ts.URL); err != nil {
			errs <- fmt.Errorf("poison client: %w", err)
		}
	}()
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := loadClient(ts.URL, c, &tallies[c]); err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var all loadTally
	for _, tl := range tallies {
		all.ids = append(all.ids, tl.ids...)
		all.latencies = append(all.latencies, tl.latencies...)
		all.seeds = append(all.seeds, tl.seeds...)
		all.refused += tl.refused
	}
	// Every distinct seed queried made one run job per experiment of
	// ids=alpha,beta; the poison job failed and is not done.
	slices.Sort(all.seeds)
	runKeys := 2 * len(slices.Compact(all.seeds))
	t.Logf("%d job submissions refused at the job limit and retried", all.refused)

	// Zero dropped jobs: only a done job serves a 200 result.
	for _, id := range all.ids {
		waitJobDone(t, ts.URL, id)
		if resp, body := get(t, ts.URL+"/v1/jobs/"+id+"/result"); resp.StatusCode != http.StatusOK || body == "" {
			t.Fatalf("job %s result: status %d, body %q", id, resp.StatusCode, body)
		}
	}

	slices.Sort(all.latencies)
	if p99 := all.latencies[len(all.latencies)*99/100]; p99 > loadP99 {
		t.Errorf("/v1/run p99 = %v, bound %v", p99, loadP99)
	}

	// /metrics reconciles with the tally. The scrape is itself a request,
	// so audit one snapshot. An atLeast check passes at got >= want.
	m := scrapeMetrics(t, ts.URL)
	runs, jobs := float64((loadClients+1)*loadRounds), float64(len(all.ids))
	type check struct {
		name      string
		got, want float64
		atLeast   bool
	}
	checks := []check{
		{"requests_total GET /v1/run", sumSeries(m, `atlarge_http_requests_total{endpoint="GET /v1/run"`), runs, false},
		{"requests_total POST /v1/jobs", sumSeries(m, `atlarge_http_requests_total{endpoint="POST /v1/jobs"`), jobs + float64(all.refused), false},
		{"requests_total POST /v1/jobs 429", m[`atlarge_http_requests_total{endpoint="POST /v1/jobs",code="429"}`], float64(all.refused), false},
		{"latency histogram count GET /v1/run", m[`atlarge_http_request_duration_seconds_count{endpoint="GET /v1/run"}`], runs, false},
		{"jobs done gauge (sweep jobs and run keys)", m[`atlarge_jobs{state="done"}`], jobs + float64(runKeys), false},
		{"jobs running gauge", m[`atlarge_jobs{state="running"}`], 0, false},
		{"queue depth", m["atlarge_queue_depth"], 0, false},
		{"tasks_completed_total (job tasks alone)", m["atlarge_tasks_completed_total"], jobs * loadJobTasks, true},
	}
	if workers > 0 {
		checks = append(checks,
			check{"dist worker completions (every job task remote)", sumSeries(m, "atlarge_dist_worker_completions_total{"), jobs * loadJobTasks, true},
			check{"dist tasks_inflight after drain", m["atlarge_dist_tasks_inflight"], 0, false},
			check{"dist redispatched_total with healthy workers", m["atlarge_dist_redispatched_total"], 0, false})
	}
	for _, c := range checks {
		if c.got != c.want && !(c.atLeast && c.got > c.want) {
			t.Errorf("metrics: %s = %v, client tally %v (at least: %t)", c.name, c.got, c.want, c.atLeast)
		}
	}
	if ratio, ok := m["atlarge_cache_hit_ratio"]; !ok || ratio < 0 || ratio > 1 {
		t.Errorf("metrics: cache_hit_ratio = %v (exported: %t), want one in [0, 1]", ratio, ok)
	}
	if _, ok := m["atlarge_queue_depth"]; !ok {
		t.Error("metrics: atlarge_queue_depth not exported")
	}
}

// loadClient submits one client's jobs (distinct seeds, so none dedups),
// then queries /v1/run with seeds shared by every client (cache hits) and
// its own (misses). It runs off the test goroutine, so it returns errors.
func loadClient(base string, c int, tl *loadTally) error {
	httpc := &http.Client{Timeout: 30 * time.Second}
	for j := 0; j < loadJobs; j++ {
		if err := submitLoadJob(httpc, base, int64(1000+c*loadJobs+j), tl); err != nil {
			return err
		}
	}
	for r := 0; r < loadRounds; r++ {
		seed := r % 4
		if r%5 == 4 {
			seed = 1000 + c*100 + r
		}
		start := time.Now()
		resp, err := httpc.Get(fmt.Sprintf("%s/v1/run?ids=alpha,beta&seed=%d", base, seed))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/v1/run seed %d: status %d", seed, resp.StatusCode)
		}
		tl.latencies = append(tl.latencies, time.Since(start))
		tl.seeds = append(tl.seeds, seed)
	}
	return nil
}

// poisonClient queries the panicking experiment every round and expects
// each query to fail with a 500 whose envelope names the panic.
func poisonClient(base string) error {
	httpc := &http.Client{Timeout: 30 * time.Second}
	for r := 0; r < loadRounds; r++ {
		resp, err := httpc.Get(base + "/v1/run?ids=poison")
		if err != nil {
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env errorEnvelope
		_ = json.Unmarshal(raw, &env)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(env.Error.Message, "poisoned experiment") {
			return fmt.Errorf("/v1/run?ids=poison: status %d, body %s; want 500 naming the panic", resp.StatusCode, raw)
		}
	}
	return nil
}

// submitLoadJob posts one job and records its ID in tl, retrying 429
// job_limit refusals, each of which must carry Retry-After.
func submitLoadJob(httpc *http.Client, base string, seed int64, tl *loadTally) error {
	for attempt := 1; ; attempt++ {
		resp, err := httpc.Post(base+"/v1/jobs", "application/json", strings.NewReader(jobBody(seed)))
		if err != nil {
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			var doc jobDoc
			if json.Unmarshal(raw, &doc) != nil || doc.ID == "" {
				return fmt.Errorf("job submit: no id in %s", raw)
			}
			tl.ids = append(tl.ids, doc.ID)
			return nil
		}
		var env errorEnvelope
		_ = json.Unmarshal(raw, &env)
		if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != errJobLimit {
			return fmt.Errorf("job submit: status %d, body %s", resp.StatusCode, raw)
		}
		tl.refused++
		retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || retry < 1 {
			return fmt.Errorf("job-limit refusal: bad Retry-After %q", resp.Header.Get("Retry-After"))
		}
		if attempt == loadSubmitAttempts {
			return fmt.Errorf("job submit still refused after %d attempts", attempt)
		}
		time.Sleep(min(time.Duration(retry)*time.Second, loadRetryCap))
	}
}

// scrapeMetrics parses the /metrics page into a map from series (name plus
// label block, as rendered) to value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	_, page := get(t, base+"/metrics")
	samples := map[string]float64{}
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp < 0 || err != nil {
			t.Fatalf("unparseable metrics line %q", line)
		}
		samples[line[:sp]] = v
	}
	return samples
}

// sumSeries totals every series whose rendering starts with prefix.
func sumSeries(samples map[string]float64, prefix string) float64 {
	total := 0.0
	for series, v := range samples {
		if strings.HasPrefix(series, prefix) {
			total += v
		}
	}
	return total
}
