package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// asAtlarge, set in a test binary's environment, makes the binary run as
// atlarge instead of running its tests, so TestE2ESmoke32 starts real
// atlarge processes without a build step.
const asAtlarge = "ATLARGE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asAtlarge) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	smoke32      = "../../examples/scenarios/smoke-32.json" // 4 policies × 4 loads × 2 replicas
	smoke32Tasks = 32
	// e2eWait bounds each child's life: a sweep that never finishes (a lost
	// claim nobody re-queues, a job nobody resumes) fails the test.
	e2eWait = 2 * time.Minute
)

var (
	listenLine    = regexp.MustCompile(`http://(\S+)\n`)
	firstProgress = regexp.MustCompile(`scenario sweep: `)
	redispatched  = regexp.MustCompile(`(\d+) task\(s\) re-dispatched`)
)

// TestE2ESmoke32 checks what only real processes show: an atlarge process
// SIGKILLed mid-sweep leaves work that a resumed sweep, a restarted server
// or the surviving workers finish byte-identically to one uninterrupted
// in-process run of smoke-32. Each kill goes out on the first sign of
// progress, and a subtest fails when the kill interrupted nothing.
func TestE2ESmoke32(t *testing.T) {
	wantJSON := runOut(t, "scenario", "sweep", smoke32, "--format", "json")
	wantCSV := runOut(t, "scenario", "sweep", smoke32, "--format", "csv")

	t.Run("sweep-resume", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "ckpt")
		sweep := start(t, nil, "scenario", "sweep", smoke32, "--parallel", "2",
			"--format", "json", "--progress", "--checkpoint", ckpt)
		sweep.await(t, firstProgress)
		sweep.kill()
		checkpointed(t, "sweep", filepath.Join(ckpt, "*", "task-*.json"))
		if runOut(t, "scenario", "sweep", smoke32, "--parallel", "8", "--format", "json", "--checkpoint", ckpt) != wantJSON {
			t.Error("resumed sweep JSON differs from the uninterrupted run")
		}
	})

	t.Run("serve-restart", func(t *testing.T) {
		state := filepath.Join(t.TempDir(), "state")
		tasks := filepath.Join(state, "*", "task-*.json")
		serve := func() (*child, string) {
			c := start(t, nil, "serve", "--addr", "127.0.0.1:0", "--parallel", "2", "--state-dir", state)
			return c, "http://" + c.await(t, listenLine)[1]
		}
		srv, url := serve()
		spec, _ := os.ReadFile(smoke32) // read by the reference run already
		var job struct{ ID string }
		code, raw := call(t, url+"/v1/jobs", `{"kind": "sweep", "spec": `+string(spec)+`}`)
		if json.Unmarshal(raw, &job); code != http.StatusAccepted || job.ID == "" {
			t.Fatalf("submit: status %d: %s", code, raw)
		}
		deadline := time.Now().Add(e2eWait)
		for n, _ := filepath.Glob(tasks); len(n) == 0 && time.Now().Before(deadline); n, _ = filepath.Glob(tasks) {
			time.Sleep(time.Millisecond)
		}
		srv.kill()
		checkpointed(t, "server", tasks)

		_, url = serve()
		var doc struct{ State string }
		for deadline = time.Now().Add(e2eWait); doc.State != "done"; time.Sleep(20 * time.Millisecond) {
			code, raw := call(t, url+"/v1/jobs/"+job.ID, "")
			json.Unmarshal(raw, &doc)
			if code != http.StatusOK || (doc.State != "running" && doc.State != "done") || time.Now().After(deadline) {
				t.Fatalf("job %s after the restart: status %d: %s", job.ID, code, raw)
			}
		}
		if _, got := call(t, url+"/v1/jobs/"+job.ID+"/result", ""); string(got) != wantJSON {
			t.Error("recovered job result differs from the uninterrupted run")
		}
	})

	t.Run("dist", func(t *testing.T) {
		var workers []*child
		var addrs []string
		for range 3 {
			w := start(t, nil, "worker", "--listen", "127.0.0.1:0", "--parallel", "2")
			workers, addrs = append(workers, w), append(addrs, w.await(t, listenLine)[1])
		}
		var out bytes.Buffer
		sweep := start(t, &out, "scenario", "sweep", smoke32, "--parallel", "2", "--format", "json",
			"--progress", "--workers", strings.Join(addrs, ","))
		sweep.await(t, firstProgress)
		workers[2].kill()
		rest, _ := io.ReadAll(sweep.pipe) // to the sweep's exit
		if err := sweep.Wait(); err != nil {
			t.Fatalf("%s: %v (%v):\n%s%s", sweep, err, sweep.ctx.Err(), sweep.seen, rest)
		}
		m := redispatched.FindSubmatch(rest)
		if m == nil {
			t.Fatalf("the killed worker cost no claims, so re-dispatch went unchecked:\n%s%s", sweep.seen, rest)
		}
		t.Logf("killed worker 3 at the first progress line: %s tasks re-dispatched", m[1])
		if out.String() != wantJSON {
			t.Error("3-worker sweep JSON differs from the in-process run")
		}
		if runOut(t, "scenario", "sweep", smoke32, "--parallel", "2", "--format", "csv", "--workers", addrs[0]) != wantCSV {
			t.Error("1-worker sweep CSV differs from the in-process run")
		}
	})
}

// runOut runs atlarge in this process and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runTo(&buf, args); err != nil {
		t.Fatalf("atlarge %s: %v", strings.Join(args, " "), err)
	}
	return buf.String()
}

// checkpointed counts the task files matching glob after a kill and fails
// unless the kill left some, but not all, of smoke-32's tasks to finish.
func checkpointed(t *testing.T, what, glob string) {
	t.Helper()
	files, _ := filepath.Glob(glob)
	t.Logf("killed the %s with %d/%d tasks checkpointed", what, len(files), smoke32Tasks)
	if len(files) == 0 || len(files) >= smoke32Tasks {
		t.Fatalf("the kill found %d/%d tasks checkpointed, so no partial resume is checked", len(files), smoke32Tasks)
	}
}

// call GETs url, or POSTs body to it when body is not empty, and returns
// the status code and the response body.
func call(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// child is one atlarge process run from the test binary.
type child struct {
	*exec.Cmd
	ctx  context.Context // ends e2eWait after the start, killing the child
	pipe *os.File        // read end of the child's stderr, and of its stdout unless captured apart
	seen []byte          // what await has read from pipe
}

// start runs atlarge with args as a child process. Its stdout goes to
// stdout when that is not nil, and to the child's pipe otherwise. The
// test's cleanup kills it and waits for it, so no child outlives the test.
func start(t *testing.T, stdout io.Writer, args ...string) *child {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), e2eWait)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	c := &child{Cmd: exec.CommandContext(ctx, os.Args[0], args...), ctx: ctx, pipe: r}
	c.Env = append(os.Environ(), asAtlarge+"=1")
	c.Stdout, c.Stderr = w, w
	if stdout != nil {
		c.Stdout = stdout
	}
	err = c.Start()
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.kill(); cancel(); r.Close() })
	return c
}

// kill sends SIGKILL and waits for the process to be gone.
func (c *child) kill() {
	c.Process.Kill()
	c.Wait()
}

// await reads the child's pipe until what it printed matches re, and
// returns the match. It fails the test when the child ends first.
func (c *child) await(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	for buf := make([]byte, 4096); ; {
		if m := re.FindStringSubmatch(string(c.seen)); m != nil {
			return m
		}
		n, err := c.pipe.Read(buf)
		c.seen = append(c.seen, buf[:n]...)
		if err != nil {
			t.Fatalf("%s ended (%v) before printing %q:\n%s", c, c.ctx.Err(), re, c.seen)
		}
	}
}
