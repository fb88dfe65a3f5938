package api

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atlarge"
	"atlarge/internal/scenario"
)

// readStream decodes every NDJSON line of a /v1/run/stream response.
func readStream(t *testing.T, resp *http.Response) []streamLine {
	t.Helper()
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	return lines
}

// getStream reads a whole /v1/run/stream response.
func getStream(t *testing.T, url string) []streamLine {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", url, resp.StatusCode)
	}
	return readStream(t, resp)
}

// getJobDoc fetches one job's resource document.
func getJobDoc(t *testing.T, base, id string) jobDoc {
	t.Helper()
	resp, body := get(t, base+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s: status %d, body %s", id, resp.StatusCode, body)
	}
	var doc jobDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// blockingRegistry is testRegistry plus a "block" experiment whose replicas
// report on started and then park until release closes.
func blockingRegistry(t *testing.T, started chan struct{}, release chan struct{}) *atlarge.Registry {
	reg := testRegistry(t)
	reg.MustRegister(blockingExperiment("block", func(int64) {
		started <- struct{}{}
		<-release
	}))
	return reg
}

// TestRunJobsAreJobs: a /v1/run query leaves one run job per experiment in
// the table, with the jobs resource's status, result and profile.
func TestRunJobsAreJobs(t *testing.T) {
	srv := newTestServer(t)
	_, want := get(t, srv.URL+"/v1/run?ids=alpha&seed=42&replicas=3")
	id := runJobID("alpha", 42, 3)

	doc := getJobDoc(t, srv.URL, id)
	if doc.Kind != jobKindRun || doc.State != jobDone || doc.Total != 3 || doc.Done != 3 {
		t.Errorf("run job doc = %+v, want a done run job with total 3", doc)
	}
	if _, got := get(t, srv.URL+"/v1/jobs/"+id+"/result"); got != want {
		t.Errorf("run job result differs from /v1/run:\n%s\nvs\n%s", got, want)
	}
	_, body := get(t, srv.URL+"/v1/jobs/"+id+"/profile")
	var prof jobProfileDoc
	if err := json.Unmarshal([]byte(body), &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Tasks.Observed != 3 {
		t.Errorf("profile observed %d tasks, want 3 (one per replica)", prof.Tasks.Observed)
	}
	if _, list := get(t, srv.URL+"/v1/jobs?state=done"); !strings.Contains(list, `"kind": "run"`) {
		t.Errorf("done list has no run job: %s", list)
	}
}

// TestRunJobCancel: DELETE on a running run job cancels it mid-plan — the
// waiting query fails, unstarted replicas are skipped, and the running-task
// gauge drains once the in-flight replica returns.
func TestRunJobCancel(t *testing.T) {
	started, release := make(chan struct{}, 4), make(chan struct{})
	var calls atomic.Int64
	reg := testRegistry(t)
	reg.MustRegister(blockingExperiment("slow", func(int64) {
		calls.Add(1)
		started <- struct{}{}
		<-release
	}))
	srv := httptest.NewServer(New(Config{Registry: reg, Parallelism: 1}))
	defer srv.Close()
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // before srv.Close, so a failed check never hangs it

	code := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/run?ids=slow&replicas=4")
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	<-started
	id := runJobID("slow", 42, 4)
	resp, _, raw := doReq(t, http.MethodDelete, srv.URL+"/v1/jobs/"+id, "")
	var doc jobDoc
	if err := json.Unmarshal([]byte(raw), &doc); err != nil || resp.StatusCode != http.StatusOK || doc.State != jobCancelled {
		t.Fatalf("DELETE: status %d, body %s; want the job cancelled", resp.StatusCode, raw)
	}
	if c := <-code; c != http.StatusInternalServerError {
		t.Errorf("query waiting on the cancelled job answered %d, want 500", c)
	}
	unblock()
	waitFor(t, "atlarge_tasks_running to drain", func() bool {
		return scrapeMetrics(t, srv.URL)["atlarge_tasks_running"] == 0
	})
	if n := calls.Load(); n != 1 {
		t.Errorf("%d replicas ran, want only the one in flight at the cancel", n)
	}
	if st := getJobDoc(t, srv.URL, id).State; st != jobCancelled {
		t.Errorf("job state after the replica returned = %q, want cancelled", st)
	}
}

// TestRunStreamReplaysDoneJobs: a stream over run jobs already done replays
// one task line per replica and ends with the /v1/run document.
func TestRunStreamReplaysDoneJobs(t *testing.T) {
	srv := newTestServer(t)
	_, plain := get(t, srv.URL+"/v1/run?ids=alpha,beta&seed=42&replicas=3")
	lines := getStream(t, srv.URL+"/v1/run/stream?ids=alpha,beta&seed=42&replicas=3")
	if len(lines) != 8 {
		t.Fatalf("stream emitted %d lines, want plan + 6 tasks + result", len(lines))
	}
	var ids []string
	for i, l := range lines[1:7] {
		if l.Type != "task" || l.Done != i+1 || l.Total != 6 {
			t.Errorf("task line %d = %+v", i, l)
		}
		ids = append(ids, l.ID)
	}
	slices.Sort(ids)
	if want := []string{"alpha#0", "alpha#1", "alpha#2", "beta#0", "beta#1", "beta#2"}; !slices.Equal(ids, want) {
		t.Errorf("replayed task ids = %v, want %v", ids, want)
	}
	var plainDoc atlarge.RunDocument
	if err := json.Unmarshal([]byte(plain), &plainDoc); err != nil {
		t.Fatal(err)
	}
	streamed, _ := json.Marshal(lines[7].Document)
	direct, _ := json.Marshal(&plainDoc)
	if lines[7].Type != "result" || string(streamed) != string(direct) {
		t.Errorf("replayed result differs from /v1/run: %s", streamed)
	}
}

// TestSweepSyncAndJobRunOnce: a synchronous sweep and a POST /v1/jobs of
// the same (spec, seed, replicas) share one job, so the plan runs once.
func TestSweepSyncAndJobRunOnce(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 2}))
	defer srv.Close()
	status, syncOut := postSweep(t, srv.URL+"/v1/scenario/sweep?seed=5&replicas=2")
	if status != http.StatusOK {
		t.Fatalf("sync sweep: status %d", status)
	}
	status, doc, raw := postJob(t, srv.URL, jobBody(5))
	if status != http.StatusAccepted || doc.State != jobDone {
		t.Fatalf("submit: status %d, body %s; want 202 holding the done sweep job", status, raw)
	}
	if _, got := get(t, srv.URL+"/v1/jobs/"+doc.ID+"/result"); got != syncOut["_body"] {
		t.Error("job result differs from the synchronous sweep response")
	}
	if got := scrapeMetrics(t, srv.URL)["atlarge_tasks_completed_total"]; got != 4 {
		t.Errorf("tasks_completed_total = %v, want 4 (2 cells × 2 replicas, run once)", got)
	}
}

// TestJobRetentionBound: KeepJobs (default 256) bounds finished jobs of
// both kinds; an evicted run job answers 410 and its next query recomputes.
func TestJobRetentionBound(t *testing.T) {
	if keep := New(Config{}).cfg.KeepJobs; keep != 256 {
		t.Errorf("default KeepJobs = %d, want 256", keep)
	}
	srv := httptest.NewServer(New(Config{Registry: testRegistry(t), Parallelism: 2, KeepJobs: 2}))
	defer srv.Close()
	get(t, srv.URL+"/v1/run?ids=alpha&seed=1")
	get(t, srv.URL+"/v1/run?ids=alpha&seed=2")
	_, doc, _ := postJob(t, srv.URL, jobBody(3))
	waitJobDone(t, srv.URL, doc.ID)

	resp, env, raw := doReq(t, http.MethodGet, srv.URL+"/v1/jobs/"+runJobID("alpha", 1, 1), "")
	if resp.StatusCode != http.StatusGone || env.Error.Code != errResultEvicted {
		t.Errorf("evicted run job: status %d, body %s; want 410 result_evicted", resp.StatusCode, raw)
	}
	if resp, _ := get(t, srv.URL+"/v1/run?ids=alpha&seed=1"); resp.Header.Get("X-Atlarge-Cache") != "miss" {
		t.Errorf("query of an evicted run job: cache state %q, want miss", resp.Header.Get("X-Atlarge-Cache"))
	}
}

// TestJobPersistenceByKind: with a state dir, a synchronous sweep persists
// and is restored after a restart like a submitted one, while run jobs stay
// in memory only.
func TestJobPersistenceByKind(t *testing.T) {
	dir := t.TempDir()
	srv1 := httptest.NewServer(New(Config{Registry: testRegistry(t), Parallelism: 2, StateDir: dir}))
	get(t, srv1.URL+"/v1/run?ids=alpha")
	_, syncOut := postSweep(t, srv1.URL+"/v1/scenario/sweep?seed=5&replicas=2")
	spec, err := scenario.Parse(strings.NewReader(sweepSpecBody))
	if err != nil {
		t.Fatal(err)
	}
	sweepID, err := scenario.RunHash(spec, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := newJobstore(dir)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the sweep's durable record", func() bool {
		rec, err := store.loadRecord(sweepID)
		return err == nil && rec.State == jobDone
	})
	srv1.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != sweepID {
			t.Errorf("state dir holds %q; only the sweep job %s persists", e.Name(), sweepID)
		}
	}

	api2 := New(Config{Registry: testRegistry(t), Parallelism: 2, StateDir: dir})
	if resumed, restored, err := api2.RecoverJobs(); err != nil || resumed != 0 || restored != 1 {
		t.Fatalf("recover = (%d resumed, %d restored, %v), want (0, 1, nil)", resumed, restored, err)
	}
	srv2 := httptest.NewServer(api2)
	defer srv2.Close()
	if _, got := get(t, srv2.URL+"/v1/jobs/"+sweepID+"/result"); got != syncOut["_body"] {
		t.Error("restored sweep result differs from the synchronous response")
	}
	if resp, _ := get(t, srv2.URL+"/v1/jobs/"+runJobID("alpha", 42, 1)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("run job after restart: status %d, want 404", resp.StatusCode)
	}
}

// TestJobLimitSparesRequests: MaxJobs bounds only jobs POST submissions
// hold, so with the limit taken /v1/run, its stream and the synchronous
// sweep still run their jobs while a further submission is refused.
func TestJobLimitSparesRequests(t *testing.T) {
	api := New(Config{Registry: testRegistry(t), Parallelism: 1, MaxJobs: 1})
	api.jobMu.Lock()
	api.jobs["job-held"] = &job{id: "job-held", cancel: func() {}, state: jobRunning}
	api.jobOrder = append(api.jobOrder, "job-held")
	api.jobMu.Unlock()
	srv := httptest.NewServer(api)
	defer srv.Close()

	if resp, body := get(t, srv.URL+"/v1/run?ids=alpha"); resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/run: status %d, body %s", resp.StatusCode, body)
	}
	if lines := getStream(t, srv.URL+"/v1/run/stream?ids=beta"); lines[len(lines)-1].Type != "result" {
		t.Errorf("stream ended with %+v", lines[len(lines)-1])
	}
	if status, out := postSweep(t, srv.URL+"/v1/scenario/sweep"); status != http.StatusOK {
		t.Errorf("sync sweep: status %d, body %s", status, out["_body"])
	}
	if resp, env, raw := doReq(t, http.MethodPost, srv.URL+"/v1/jobs", jobBody(9)); resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != errJobLimit {
		t.Errorf("submission past the limit: status %d, body %s; want 429 job_limit", resp.StatusCode, raw)
	}
	if done := scrapeMetrics(t, srv.URL)[`atlarge_jobs{state="done"}`]; done != 3 {
		t.Errorf("done jobs = %v, want 3 (two run jobs and the sweep)", done)
	}
}

// TestStreamHangUp: a stream whose client hangs up cancels a run job no
// POST holds, and leaves a held one running to completion.
func TestStreamHangUp(t *testing.T) {
	for _, held := range []bool{false, true} {
		started, release := make(chan struct{}, 2), make(chan struct{})
		api := New(Config{Registry: blockingRegistry(t, started, release), Parallelism: 1})
		srv := httptest.NewServer(api)
		if held {
			if _, _, ok := api.launch(httptest.NewRecorder(), api.runWorks([]string{"block"}, 42, 2), true); !ok {
				t.Fatal("launching the held run job failed")
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/run/stream?ids=block&replicas=2", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		<-started
		cancel()
		resp.Body.Close()
		id := runJobID("block", 42, 2)
		if held {
			// Once the stream's release lands the held job must still run.
			waitFor(t, "the stream to release the held job", func() bool {
				api.jobMu.Lock()
				defer api.jobMu.Unlock()
				return api.jobs[id].waiters == 0
			})
			if st := getJobDoc(t, srv.URL, id).State; st != jobRunning {
				t.Errorf("held job after a stream hang-up: %q, want running", st)
			}
			close(release)
			waitFor(t, "the held job to finish", func() bool { return getJobDoc(t, srv.URL, id).State != jobRunning })
			if st := getJobDoc(t, srv.URL, id).State; st != jobDone {
				t.Errorf("held job after a stream hang-up: %q, want done", st)
			}
		} else {
			waitFor(t, "the unheld job to be cancelled", func() bool { return getJobDoc(t, srv.URL, id).State == jobCancelled })
			close(release)
			// A later identical request relaunches the job.
			if lines := getStream(t, srv.URL+"/v1/run/stream?ids=block&replicas=2"); lines[len(lines)-1].Type != "result" {
				t.Errorf("relaunched stream ended with %+v", lines[len(lines)-1])
			}
		}
		srv.Close()
	}
}

// TestQueueDepthSparesJoins: with the pending-task queue full, requests
// that only join existing jobs — a repeated query, a stream, a duplicate
// submission — are served; only work that would create a job is refused.
func TestQueueDepthSparesJoins(t *testing.T) {
	started, release := make(chan struct{}, 2), make(chan struct{})
	srv := httptest.NewServer(New(Config{Registry: blockingRegistry(t, started, release), Parallelism: 1, QueueDepth: 1}))
	defer srv.Close()
	_, doc, _ := postJob(t, srv.URL, jobBody(5))
	waitJobDone(t, srv.URL, doc.ID)

	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/v1/run?ids=block&replicas=2")
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	<-started // the block job's two replicas fill the queue
	if resp, env, raw := doReq(t, http.MethodGet, srv.URL+"/v1/run?ids=alpha&seed=8", ""); resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != errQueueFull {
		t.Errorf("new work under a full queue: status %d, body %s; want 429 queue_full", resp.StatusCode, raw)
	}
	if status, _, raw := postJob(t, srv.URL, jobBody(5)); status != http.StatusOK {
		t.Errorf("duplicate submission under a full queue: status %d, body %s; want 200", status, raw)
	}
	stream, err := http.Get(srv.URL + "/v1/run/stream?ids=block&replicas=2")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Errorf("stream joining the running job: status %d, want 200", stream.StatusCode)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Errorf("query joined to the block job answered %d", c)
		}
	}
	if lines := readStream(t, stream); lines[len(lines)-1].Type != "result" {
		t.Errorf("joined stream ended with %+v", lines[len(lines)-1])
	}
}

// TestRunDuplicateIDs: a repeated ID joins one job — one run job, one cache
// miss, and the document lists the experiment once per request ID.
func TestRunDuplicateIDs(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/v1/run?ids=alpha,alpha")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Atlarge-Cache") != "miss" {
		t.Fatalf("first query: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Atlarge-Cache"))
	}
	var doc atlarge.RunDocument
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Experiments) != 2 || doc.Experiments[1].ID != "alpha" {
		t.Fatalf("document = %s", body)
	}
	if resp, _ := get(t, srv.URL+"/v1/run?ids=alpha,alpha"); resp.Header.Get("X-Atlarge-Cache") != "hit" {
		t.Errorf("repeat query: cache %q, want hit", resp.Header.Get("X-Atlarge-Cache"))
	}
	lines := getStream(t, srv.URL+"/v1/run/stream?ids=alpha,alpha")
	if len(lines) != 4 || lines[3].Document == nil || len(lines[3].Document.Experiments) != 2 {
		t.Errorf("stream over a repeated id: %+v", lines)
	}
	m := scrapeMetrics(t, srv.URL)
	if m["atlarge_cache_misses_total"] != 1 || m[`atlarge_jobs{state="done"}`] != 1 {
		t.Errorf("misses %v and done jobs %v, want 1 and 1", m["atlarge_cache_misses_total"], m[`atlarge_jobs{state="done"}`])
	}
}
