package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/hypercube"
	"vmprim/internal/testutil"
)

// testSpec is the small workload the tests submit: every primitive on
// a d=4 cube, cheap enough to run many times on the 1-core CI host.
var testSpec = bench.RunSpec{Exp: "E1", D: 4, N: 64}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	// Registered before the close cleanup below so it runs after it
	// (cleanups are LIFO): by the time the leak check polls, Close has
	// already signalled the workers and every run's broadcaster.
	before := testutil.Snapshot()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		testutil.CheckLeaks(t, before)
	})
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submitAndWait posts spec and blocks on /wait, returning the run ID.
func submitAndWait(t *testing.T, base string, spec bench.RunSpec) string {
	t.Helper()
	st := postSpec(t, base, spec, http.StatusAccepted)
	resp := mustGet(t, base+"/runs/"+st.ID+"/wait", http.StatusOK)
	var fin runStatusJSON
	decodeBody(t, resp, &fin)
	if fin.State != StateDone {
		t.Fatalf("run %s finished %s: %s", st.ID, fin.State, fin.Error)
	}
	return st.ID
}

func postSpec(t *testing.T, base string, spec bench.RunSpec, wantStatus int) runStatusJSON {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /runs = %d, want %d: %s", resp.StatusCode, wantStatus, b)
	}
	var st runStatusJSON
	decodeBody(t, resp, &st)
	return st
}

func mustGet(t *testing.T, url string, wantStatus int) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantStatus, b)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp := mustGet(t, url, http.StatusOK)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Served artifacts must be the same documents the CLI writers produce
// for the same spec: profile, Chrome trace and critical-path JSON
// byte-identical, per-run metrics identical after dropping the
// host-nondeterministic scheduler counters.
func TestServedArtifactsMatchDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id := submitAndWait(t, ts.URL, testSpec)

	spec, err := testSpec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	m, err := hypercube.New(spec.D, spec.CostParams())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want, err := spec.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})
	if err != nil {
		t.Fatal(err)
	}

	var profBuf, traceBuf, cpBuf, metBuf bytes.Buffer
	if err := want.Profile.WriteJSON(&profBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.Profile.ChromeTrace(&traceBuf, 0); err != nil {
		t.Fatal(err)
	}
	if err := want.CritPath.WriteJSON(&cpBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.Metrics.WriteJSON(&metBuf); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		artifact string
		want     []byte
	}{
		{"profile", profBuf.Bytes()},
		{"trace", traceBuf.Bytes()},
		{"critpath", cpBuf.Bytes()},
	} {
		got := getBody(t, fmt.Sprintf("%s/runs/%s/%s", ts.URL, id, tc.artifact))
		if !bytes.Equal(got, tc.want) {
			t.Errorf("served %s differs from the CLI writer's output (%d vs %d bytes)",
				tc.artifact, len(got), len(tc.want))
		}
	}

	// The run executed on the server's first (fresh) pooled machine, so
	// its delta equals the direct run's cumulative snapshot — except the
	// host-scheduler counters, which are nondeterministic by design.
	got := getBody(t, fmt.Sprintf("%s/runs/%s/metrics", ts.URL, id))
	if diff := diffMetricsJSON(t, got, metBuf.Bytes()); diff != "" {
		t.Errorf("served per-run metrics differ from direct run: %s", diff)
	}
}

// diffMetricsJSON compares two metrics-snapshot JSON documents,
// ignoring the host-nondeterministic scheduler metrics, and returns a
// description of the first difference ("" when equal).
func diffMetricsJSON(t *testing.T, a, b []byte, ignore ...string) string {
	t.Helper()
	parse := func(raw []byte) map[string]json.RawMessage {
		var doc struct {
			Metrics []struct {
				Name string `json:"name"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		var full struct {
			Metrics []json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &full); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]json.RawMessage)
	metric:
		for i, m := range doc.Metrics {
			if hypercube.HostSchedMetricNames(m.Name) {
				continue
			}
			for _, pre := range ignore {
				if strings.HasPrefix(m.Name, pre) {
					continue metric
				}
			}
			out[m.Name] = full.Metrics[i]
		}
		return out
	}
	ma, mb := parse(a), parse(b)
	if len(ma) != len(mb) {
		return fmt.Sprintf("%d vs %d comparable metrics", len(ma), len(mb))
	}
	for name, ra := range ma {
		rb, ok := mb[name]
		if !ok {
			return "metric " + name + " missing from one side"
		}
		if !bytes.Equal(ra, rb) {
			return fmt.Sprintf("metric %s: %s vs %s", name, ra, rb)
		}
	}
	return ""
}

// A spec resubmitted to a warm server must reuse the pooled machine
// and serve bit-identical simulated artifacts.
func TestPooledRerunIsIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id1 := submitAndWait(t, ts.URL, testSpec)
	id2 := submitAndWait(t, ts.URL, testSpec)

	var st runStatusJSON
	decodeBody(t, mustGet(t, ts.URL+"/runs/"+id2, http.StatusOK), &st)
	if !st.PoolHit {
		t.Error("second run of the same spec did not hit the machine pool")
	}
	for _, artifact := range []string{"profile", "trace", "critpath"} {
		a := getBody(t, fmt.Sprintf("%s/runs/%s/%s", ts.URL, id1, artifact))
		b := getBody(t, fmt.Sprintf("%s/runs/%s/%s", ts.URL, id2, artifact))
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between identical runs on a pooled machine", artifact)
		}
	}
	// The buffer-pool counters depend on how warm the machine's free
	// lists are, so a fresh-machine first run and a pooled rerun differ
	// there by design; everything simulated must match exactly.
	am := getBody(t, fmt.Sprintf("%s/runs/%s/metrics", ts.URL, id1))
	bm := getBody(t, fmt.Sprintf("%s/runs/%s/metrics", ts.URL, id2))
	if diff := diffMetricsJSON(t, am, bm, "vmprim_pool_"); diff != "" {
		t.Errorf("per-run metric deltas differ between identical runs: %s", diff)
	}
}

// Retention: finished runs beyond the cap are evicted oldest-first,
// retained runs keep serving, and an evicted ID answers a structured
// 404 distinct from an unknown one.
func TestRunRetentionEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, RetainRuns: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submitAndWait(t, ts.URL, testSpec))
	}

	for _, id := range ids[:2] {
		resp := mustGet(t, ts.URL+"/runs/"+id, http.StatusNotFound)
		var e struct {
			Error apiError `json:"error"`
		}
		decodeBody(t, resp, &e)
		if e.Error.Code != "gone" {
			t.Errorf("evicted run %s answered code %q, want gone", id, e.Error.Code)
		}
		if e.Error.Message == "" {
			t.Errorf("evicted run %s has no error message", id)
		}
	}
	for _, id := range ids[2:] {
		if body := getBody(t, ts.URL+"/runs/"+id+"/profile"); len(body) == 0 {
			t.Errorf("retained run %s served an empty profile", id)
		}
	}
	resp := mustGet(t, ts.URL+"/runs/r-999999", http.StatusNotFound)
	var e struct {
		Error apiError `json:"error"`
	}
	decodeBody(t, resp, &e)
	if e.Error.Code != "not_found" {
		t.Errorf("unknown run answered code %q, want not_found", e.Error.Code)
	}

	var list struct {
		Runs []runStatusJSON `json:"runs"`
	}
	decodeBody(t, mustGet(t, ts.URL+"/runs", http.StatusOK), &list)
	if len(list.Runs) != 2 {
		t.Errorf("list shows %d runs after eviction, want 2", len(list.Runs))
	}
}

// Retention and the finish counters are applied before /wait wakes: a
// client that has just seen a run finish must find the backlog already
// trimmed to the retention bound and the run already counted.
func TestWaitSeesRetentionAndCounters(t *testing.T) {
	const retain = 2
	_, ts := newTestServer(t, Options{Workers: 1, RetainRuns: retain})
	for i := 1; i <= retain+3; i++ {
		submitAndWait(t, ts.URL, testSpec)

		var list struct {
			Runs []runStatusJSON `json:"runs"`
		}
		decodeBody(t, mustGet(t, ts.URL+"/runs", http.StatusOK), &list)
		if len(list.Runs) > retain {
			t.Fatalf("after run %d finished, /runs lists %d runs, want <= %d", i, len(list.Runs), retain)
		}
		scrape := string(getBody(t, ts.URL+"/metrics"))
		if want := fmt.Sprintf("\nvmprimd_runs_done_total %d\n", i); !strings.Contains(scrape, want) {
			t.Fatalf("after run %d finished, /metrics lacks %q", i, strings.TrimSpace(want))
		}
	}
}

// The same ordering without HTTP timing: while the registry is locked,
// finishRun must not be able to wake waiters, because retention comes
// first.
func TestFinishRunAppliesRetentionBeforeWaking(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, RetainRuns: 1})
	old := s.reg.add(testSpec, time.Now())
	s.finishRun(old, nil, nil, nil, nil)
	run := s.reg.add(testSpec, time.Now())

	s.reg.mu.Lock()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s.finishRun(run, nil, nil, nil, nil)
	}()
	select {
	case <-run.done:
		s.reg.mu.Unlock()
		t.Fatal("waiters woke before retention was applied")
	case <-time.After(50 * time.Millisecond):
	}
	s.reg.mu.Unlock()
	<-run.done
	if retained, _ := s.reg.counts(); retained != 1 {
		t.Errorf("woken waiter sees %d retained runs, want 1", retained)
	}
	if _, evicted := s.reg.get(old.ID); !evicted {
		t.Errorf("run %s not evicted when the next run's waiters woke", old.ID)
	}
	if got := s.met.runsDone.Value(); got != 2 {
		t.Errorf("runs_done = %d when waiters woke, want 2", got)
	}
	<-finished
}

// The events endpoint is a well-formed SSE stream: span events balance,
// a progress mark and link census arrive, and the final frame is
// `event: done` carrying the terminal status.
func TestEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id := submitAndWait(t, ts.URL, testSpec)

	resp := mustGet(t, ts.URL+"/runs/"+id+"/events", http.StatusOK)
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", got)
	}

	type frame struct{ event, data string }
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	cur := frame{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event == "" || cur.data == "" {
				t.Fatalf("malformed SSE frame %+v", cur)
			}
			frames = append(frames, cur)
			cur = frame{}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}

	opens, closes, progress, links := 0, 0, 0, 0
	for _, f := range frames[:len(frames)-1] {
		if !json.Valid([]byte(f.data)) {
			t.Fatalf("frame %q carries invalid JSON: %s", f.event, f.data)
		}
		switch f.event {
		case "span_open":
			opens++
		case "span_close":
			closes++
		case "progress":
			progress++
		case "link_congestion":
			links++
		default:
			t.Fatalf("unknown SSE event %q", f.event)
		}
	}
	if opens == 0 || opens != closes {
		t.Errorf("span events unbalanced: %d opens, %d closes", opens, closes)
	}
	if progress == 0 || links == 0 {
		t.Errorf("missing summary events: %d progress, %d link", progress, links)
	}
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("final frame is %q, want done", last.event)
	}
	var st runStatusJSON
	if err := json.Unmarshal([]byte(last.data), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.ID != id {
		t.Fatalf("done frame carries %+v", st)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// Satellite e2e scrape: /metrics speaks Prometheus text format 0.0.4,
// every line parses, and the exposition folds both the serving
// counters and the simulated per-run metrics.
func TestMetricsScrape(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	submitAndWait(t, ts.URL, testSpec)

	resp := mustGet(t, ts.URL+"/metrics", http.StatusOK)
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != promContentType {
		t.Fatalf("Content-Type = %q, want %q", got, promContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	values := map[string]float64{}
	types := map[string]string{}
	var histSeries []string
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("no value on line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(valStr, "%g", &v); err != nil && valStr != "+Inf" {
			t.Fatalf("bad value on line %q: %v", line, err)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			histSeries = append(histSeries, name)
			name = name[:i]
		}
		values[name] = v
	}

	// Serving counters and gauges.
	if v := values["vmprimd_runs_done_total"]; v < 1 {
		t.Errorf("vmprimd_runs_done_total = %g, want >= 1", v)
	}
	if _, ok := values["vmprimd_runs_inflight"]; !ok {
		t.Error("vmprimd_runs_inflight missing")
	}
	if types["vmprimd_runs_submitted_total"] != "counter" || types["vmprimd_queue_depth"] != "gauge" {
		t.Errorf("serving metric TYPEs wrong: %v %v",
			types["vmprimd_runs_submitted_total"], types["vmprimd_queue_depth"])
	}
	// Folded simulated metrics from the finished run.
	if v := values["vmprim_runs_total"]; v < 1 {
		t.Errorf("folded vmprim_runs_total = %g, want >= 1", v)
	}
	if v := values["vmprim_words_total"]; v <= 0 {
		t.Errorf("folded vmprim_words_total = %g, want > 0", v)
	}
	// Per-endpoint latency histogram: POST /runs must have observed at
	// least one request, with a +Inf bucket equal to its count.
	histName := "vmprimd_http_post_runs_duration_us"
	if types[histName] != "histogram" {
		t.Fatalf("%s TYPE = %q, want histogram", histName, types[histName])
	}
	if v := values[histName+"_count"]; v < 1 {
		t.Errorf("%s_count = %g, want >= 1", histName, v)
	}
	infSeen := false
	for _, series := range histSeries {
		if strings.HasPrefix(series, histName+"_bucket") && strings.Contains(series, `le="+Inf"`) {
			infSeen = true
		}
	}
	if !infSeen {
		t.Errorf("%s has no +Inf bucket", histName)
	}
}

// Bad submissions answer structured 400s; artifact requests against
// unfinished runs answer 409.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, body := range []string{
		`{"exp":"E9"}`,
		`{"exp":"E1","d":99}`,
		`{"exp":"E1","frobnicate":1}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error apiError `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, resp.StatusCode)
		}
		decodeBody(t, resp, &e)
		if e.Error.Code == "" || e.Error.Message == "" {
			t.Fatalf("POST %s: unstructured error %+v", body, e)
		}
	}
}
