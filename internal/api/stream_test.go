package api

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"atlarge"
)

// streamLine is the decoded shape of one NDJSON event from /v1/run/stream.
type streamLine struct {
	Type     string               `json:"type"`
	Total    int                  `json:"total"`
	Seed     int64                `json:"seed"`
	Replicas int                  `json:"replicas"`
	ID       string               `json:"id"`
	Done     int                  `json:"done"`
	Document *atlarge.RunDocument `json:"document"`
	Error    string               `json:"error"`
}

// TestServeRunStream: the NDJSON stream opens with a plan line, emits one
// task line per (experiment, replica), and closes with a result document
// identical to the plain /v1/run body for the same query.
func TestServeRunStream(t *testing.T) {
	srv := newTestServer(t)

	resp, err := http.Get(srv.URL + "/v1/run/stream?ids=alpha,beta&seed=42&replicas=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}

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
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	const tasks = 2 * 3 // ids × replicas
	if len(lines) != tasks+2 {
		t.Fatalf("stream emitted %d lines, want %d (plan + tasks + result)", len(lines), tasks+2)
	}
	if lines[0].Type != "plan" || lines[0].Total != tasks || lines[0].Seed != 42 || lines[0].Replicas != 3 {
		t.Errorf("plan line = %+v", lines[0])
	}
	for i, l := range lines[1 : tasks+1] {
		if l.Type != "task" || l.Done != i+1 || l.Total != tasks || l.ID == "" {
			t.Errorf("task line %d = %+v", i, l)
		}
	}
	last := lines[len(lines)-1]
	if last.Type != "result" || last.Document == nil {
		t.Fatalf("terminal line = %+v", last)
	}

	// The streamed document must match the plain endpoint's document — and
	// the stream's results must have populated the cache on the way out.
	plainResp, plain := get(t, srv.URL+"/v1/run?ids=alpha,beta&seed=42&replicas=3")
	if state := plainResp.Header.Get("X-Atlarge-Cache"); state != "hit" {
		t.Errorf("post-stream /v1/run cache state = %q, want hit", state)
	}
	var plainDoc atlarge.RunDocument
	if err := json.Unmarshal([]byte(plain), &plainDoc); err != nil {
		t.Fatal(err)
	}
	streamed, _ := json.Marshal(last.Document)
	direct, _ := json.Marshal(&plainDoc)
	if string(streamed) != string(direct) {
		t.Error("streamed result document differs from /v1/run document")
	}
}

// TestServeRunStreamBadQuery: validation failures surface before any
// streaming starts.
func TestServeRunStreamBadQuery(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/v1/run/stream?ids=nope")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, `"error"`) {
		t.Errorf("status = %d body %s", resp.StatusCode, body)
	}
}

// TestServeRunStreamSeedZero: seed 0 is a valid seed and the plan line must
// carry it explicitly rather than omitting the field.
func TestServeRunStreamSeedZero(t *testing.T) {
	srv := newTestServer(t)
	_, body := get(t, srv.URL+"/v1/run/stream?ids=alpha&seed=0")
	first, _, _ := strings.Cut(body, "\n")
	if !strings.Contains(first, `"seed":0`) {
		t.Errorf("plan line omits seed 0: %s", first)
	}
}

// sweepSpecBody is a small two-cell sweep used by the sweep and job tests.
const sweepSpecBody = `{"version": 2, "name": "api-async", "domain": "sched",
	"policy": "sjf", "workload": {"class": "syn", "jobs": 8},
	"cluster": {"machines": 2},
	"sweep": {"policy": ["sjf", "fcfs"]}}`

// postSweep posts a sweep spec and decodes the JSON envelope.
func postSweep(t *testing.T, url string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(sweepSpecBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	out := map[string]string{}
	_ = json.Unmarshal([]byte(body), &out)
	out["_body"] = body
	return resp.StatusCode, out
}

// TestServeAsyncSweepCancel: DELETE flips a running job to cancelled and
// its result becomes 410; without a state dir the outcome is in memory only.
func TestServeAsyncSweepCancel(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 1}))
	defer srv.Close()

	body := `{"kind": "sweep", "spec": ` + sweepSpecBody + `, "replicas": 64}`
	status, doc, raw := postJob(t, srv.URL, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+doc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st jobDoc
	if err := json.Unmarshal([]byte(readAll(t, resp)), &st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != jobCancelled && st.State != jobDone {
		t.Fatalf("cancelled job state = %q", st.State)
	}
	if st.State == jobCancelled {
		resp2, _ := get(t, srv.URL+"/v1/jobs/"+doc.ID+"/result")
		if resp2.StatusCode != http.StatusGone {
			t.Errorf("cancelled result: status %d, want 410", resp2.StatusCode)
		}
	}
}

// oversizedSweepSpec sweeps jobs × machines × cores over 65 values each:
// 274,625 cells, far past scenario.MaxCells.
func oversizedSweepSpec() string {
	values := make([]string, 65)
	for i := range values {
		values[i] = strconv.Itoa(i + 1)
	}
	list := "[" + strings.Join(values, ", ") + "]"
	return `{"version": 2, "name": "big", "domain": "sched", "policy": "sjf",
		"workload": {"class": "syn", "jobs": 8},
		"sweep": {"jobs": ` + list + `, "machines": ` + list + `, "cores": ` + list + `}}`
}

// assertNoJobs fails when the server holds any job: a refused request ran
// no work.
func assertNoJobs(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	var list struct{ Jobs []json.RawMessage }
	if err := json.Unmarshal([]byte(body), &list); err != nil || len(list.Jobs) != 0 {
		t.Errorf("refused requests left jobs behind (err %v): %s", err, body)
	}
}

// TestServeSweepCellBound: a spec whose axis cardinalities multiply past
// scenario.MaxCells is refused with a 400 on both sweep entry points before
// any work runs — including the degenerate many-axis case whose raw
// product would overflow — without expanding.
func TestServeSweepCellBound(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	spec := oversizedSweepSpec()
	for path, body := range map[string]string{
		"/v1/scenario/sweep": spec,
		"/v1/jobs":           `{"kind": "sweep", "spec": ` + spec + `}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, "more than 4096 scenarios") {
			t.Errorf("%s: oversized sweep: status %d body %s", path, resp.StatusCode, got)
		}
	}
	assertNoJobs(t, srv.URL)
}

// TestServeSweepSpecReplicaBound: a spec body declaring more replicas than
// the bound is rejected exactly like a huge ?replicas= query — the bound
// covers both sources, before any work is scheduled.
func TestServeSweepSpecReplicaBound(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	spec := `{"version": 2, "name": "hostile", "domain": "sched",
		"policy": "sjf", "workload": {"class": "syn", "jobs": 4},
		"replicas": 65}`
	for path, body := range map[string]string{
		"/v1/scenario/sweep": spec,
		"/v1/jobs":           `{"kind": "sweep", "spec": ` + spec + `}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, "replicas must be in 1..64") {
			t.Errorf("%s: status %d body %s, want 400 replica bound", path, resp.StatusCode, got)
		}
	}
	assertNoJobs(t, srv.URL)
	// The spec's own replica count still works when it is within bounds.
	ok := strings.Replace(spec, "65", "2", 1)
	resp, err := http.Post(srv.URL+"/v1/scenario/sweep", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"replicas": 2`) {
		t.Errorf("in-bounds spec replicas: status %d body %.200s", resp.StatusCode, body)
	}
}

// TestServeAsyncSweepTotalFromSpec: the job's total reflects the spec's
// replica count from the moment of acceptance when the request names none.
func TestServeAsyncSweepTotalFromSpec(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 2}))
	defer srv.Close()
	spec := `{"version": 2, "name": "tot", "domain": "sched",
		"policy": "sjf", "workload": {"class": "syn", "jobs": 4},
		"replicas": 3, "sweep": {"policy": ["sjf", "fcfs"]}}`
	status, doc, raw := postJob(t, srv.URL, `{"kind": "sweep", "spec": `+spec+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	if doc.Total != 6 { // 2 cells × 3 spec replicas
		t.Errorf("job total = %d, want 6 (from the spec's replicas)", doc.Total)
	}
	waitJobDone(t, srv.URL, doc.ID)
}

// TestServeAsyncSweepJobLimit: concurrent running jobs are bounded. The
// occupying job is planted directly in the table (a real sweep could finish
// before the second request lands, making the race untestable).
func TestServeAsyncSweepJobLimit(t *testing.T) {
	api := New(Config{Parallelism: 1, MaxJobs: 1})
	api.jobMu.Lock()
	api.jobs["job-held"] = &job{id: "job-held", cancel: func() {}, state: jobRunning}
	api.jobOrder = append(api.jobOrder, "job-held")
	api.jobMu.Unlock()
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, env, raw := doReq(t, "POST", srv.URL+"/v1/jobs", jobBody(61))
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != errJobLimit {
		t.Fatalf("second job: status %d body %s, want 429 %s", resp.StatusCode, raw, errJobLimit)
	}

	// Releasing the held job frees a slot.
	api.jobs["job-held"].finish(nil, nil)
	status, doc, raw := postJob(t, srv.URL, jobBody(61))
	if status != http.StatusAccepted {
		t.Fatalf("freed slot: status %d body %s, want 202", status, raw)
	}
	waitJobDone(t, srv.URL, doc.ID)
}
