package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/hypercube"
)

// The serve workload drives vmprimd, run as its own process on
// loopback, with an open loop: requests fall due on a seeded Poisson
// schedule and are sent over at most Conns keep-alive connections. A
// request submits a seeded small spec, waits for the run and fetches
// one of its documents, which must hash to the reference rendered
// directly at set-up. Latency runs from the due time to the last byte,
// so a stall also counts against the requests queued behind it.

// specRef is what a spec must serve: its simulated times and the
// SHA-256 of each document.
type specRef struct {
	TimesUs []float64
	Docs    map[string][32]byte
}

type serveRunner struct {
	e      *env
	specs  []bench.RunSpec
	bodies [][]byte // each spec's POST /runs body
	refs   []specRef
	rng    *rand.Rand
	deck   []int // undealt (spec, document) pairs, see draw
	cmd    *exec.Cmd
	waited chan struct{} // closed once cmd has exited and been reaped
	base   string
	client *http.Client
	// bounds is vmprimd's latency bucket ladder, read from /metrics.
	bounds []float64
	// Accumulated over the traced loops, for layers.
	traced struct {
		latUs, lateMs          []float64
		poolHits, poolAcquires float64
		queueMax               float64
	}
}

// serveSpecs is the spec mix: every experiment, dimension and cost
// model of the config, each experiment at its fixed small size.
func serveSpecs(cfg config) []bench.RunSpec {
	var specs []bench.RunSpec
	for i, exp := range cfg.Serve.Exps {
		for _, d := range cfg.Serve.Dims {
			for _, model := range cfg.Serve.Models {
				specs = append(specs, bench.RunSpec{Exp: exp, D: d, N: cfg.Serve.N[i], Model: model})
			}
		}
	}
	return specs
}

// renderRefs runs every spec directly, with the recorders vmprimd
// arms, and hashes the documents the server would render for it.
func renderRefs(specs []bench.RunSpec, docs []string) ([]specRef, error) {
	machines := map[string]*hypercube.Machine{}
	defer func() {
		for _, m := range machines {
			m.Close()
		}
	}()
	refs := make([]specRef, len(specs))
	for i, s := range specs {
		key := fmt.Sprintf("%d/%s", s.D, s.Model)
		m := machines[key]
		if m == nil {
			var err error
			if m, err = hypercube.New(s.D, s.CostParams()); err != nil {
				return nil, err
			}
			machines[key] = m
		}
		res, err := s.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})
		if err != nil {
			return nil, fmt.Errorf("reference %+v: %w", s, err)
		}
		refs[i] = specRef{Docs: map[string][32]byte{}}
		for _, t := range res.Times {
			refs[i].TimesUs = append(refs[i].TimesUs, float64(t))
		}
		for _, doc := range docs {
			h := sha256.New()
			if err := renderDoc(h, res, doc); err != nil {
				return nil, err
			}
			refs[i].Docs[doc] = [32]byte(h.Sum(nil))
		}
	}
	return refs, nil
}

// renderDoc writes one document with the obs writers vmprimd uses.
func renderDoc(w io.Writer, res *bench.ProfileResult, doc string) error {
	switch doc {
	case "profile":
		return res.Profile.WriteJSON(w)
	case "trace":
		return res.Profile.ChromeTrace(w, 0)
	case "critpath":
		return res.CritPath.WriteJSON(w)
	}
	return fmt.Errorf("unknown document %q", doc)
}

func setupServe(e *env) (runner, error) {
	cfg := e.cfg.Serve
	r := &serveRunner{e: e, specs: serveSpecs(e.cfg), rng: rand.New(rand.NewSource(e.seed))}
	for _, s := range r.specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, b)
	}
	var err error
	if r.refs, err = renderRefs(r.specs, cfg.Docs); err != nil {
		return nil, err
	}
	if err := r.start(); err != nil {
		return nil, err
	}
	if err := r.warmUp(); err != nil {
		r.close()
		return nil, err
	}
	scrape, err := r.scrape()
	if err == nil && len(scrape.bounds) == 0 {
		err = errors.New("/metrics has no request-latency histogram")
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.bounds = scrape.bounds
	return r, nil
}

// warmUpRounds is how many times set-up sends every (spec, document)
// pair before timing starts. A fresh vmprimd serves its first few
// hundred requests measurably slower (its heap, its pooled machines'
// buffer pools and the machine pool itself are still growing), which
// would otherwise land in the base-rate phase.
const warmUpRounds = 5

// warmUp sends warmUpRounds rounds of every (spec, document) pair as a
// closed loop over Conns connections and fails on the first error.
func (r *serveRunner) warmUp() error {
	conns, docs := r.e.cfg.Serve.Conns, len(r.e.cfg.Serve.Docs)
	total := warmUpRounds * len(r.specs) * docs
	errs := make([]error, conns)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for k := w; k < total && errs[w] == nil; k += conns {
				c := k % (len(r.specs) * docs)
				errs[w] = r.request(c/docs, c%docs, nil).err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// start launches vmprimd on a free loopback port and waits until
// /healthz answers.
func (r *serveRunner) start() error {
	if r.e.vmprimd == "" {
		return errors.New("serve needs -vmprimd")
	}
	if err := os.MkdirAll(r.e.out, 0o755); err != nil {
		return err
	}
	addrFile := filepath.Join(r.e.out, fmt.Sprintf("vmprimd-%d.addr", os.Getpid()))
	os.Remove(addrFile)
	r.cmd = exec.Command(r.e.vmprimd, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	r.cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := r.cmd.Start(); err != nil {
		return fmt.Errorf("starting vmprimd: %w", err)
	}
	r.waited = make(chan struct{})
	go func() {
		r.cmd.Wait()
		close(r.waited)
	}()
	conns := r.e.cfg.Serve.Conns
	r.client = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-r.waited:
			return errors.New("vmprimd exited during start-up")
		case <-time.After(5 * time.Millisecond):
		}
		b, err := os.ReadFile(addrFile)
		if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
			continue
		}
		r.base = "http://" + strings.TrimSpace(string(b))
		if resp, err := r.client.Get(r.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				os.Remove(addrFile)
				return nil
			}
		}
	}
	r.close()
	return errors.New("vmprimd did not become healthy within 30s")
}

// requestTimeout bounds each HTTP call; a request that exceeds it is a
// failure.
const requestTimeout = 20 * time.Second

// close stops vmprimd with SIGTERM (it drains and exits cleanly),
// waits for it, and reports its peak RSS.
func (r *serveRunner) close() (float64, error) {
	if r.cmd == nil || r.cmd.Process == nil {
		return 0, nil
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	r.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.waited:
	case <-time.After(20 * time.Second):
		r.cmd.Process.Kill()
		<-r.waited
		return 0, errors.New("vmprimd did not stop within 20s of SIGTERM")
	}
	ru, ok := r.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for vmprimd")
	}
	if !r.cmd.ProcessState.Success() {
		return 0, fmt.Errorf("vmprimd exited with %v", r.cmd.ProcessState)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// reqResult is the outcome of one request.
type reqResult struct {
	done time.Time // last byte of the document
	err  error
}

// request submits spec i, waits for the run and fetches document doc,
// checking the run's times and the document's hash. Spans hang under
// one request span whose id becomes the run id.
func (r *serveRunner) request(i, doc int, tr *Tracer) reqResult {
	ref := r.refs[i]
	docName := r.e.cfg.Serve.Docs[doc]
	root := tr.Begin("serve.request", -1, "")
	defer tr.End(root)

	sp := tr.Begin("serve.submit", root, "")
	var st struct {
		ID      string    `json:"id"`
		State   string    `json:"state"`
		TimesUs []float64 `json:"times_us"`
	}
	err := r.do("POST", "/runs", r.bodies[i], http.StatusAccepted, &st)
	tr.SetReq(sp, st.ID)
	tr.SetReq(root, st.ID)
	tr.End(sp)
	if err != nil {
		return reqResult{err: err}
	}
	id := st.ID

	sp = tr.Begin("serve.wait", root, id)
	err = r.do("GET", "/runs/"+id+"/wait", nil, http.StatusOK, &st)
	tr.End(sp)
	switch {
	case err != nil:
		return reqResult{err: err}
	case st.State != "done":
		return reqResult{err: fmt.Errorf("run %s ended %s", id, st.State)}
	case !slices.Equal(st.TimesUs, ref.TimesUs):
		return reqResult{err: fmt.Errorf("run %s times_us %v, reference %v", id, st.TimesUs, ref.TimesUs)}
	}

	sp = tr.Begin("serve.render", root, id)
	h := sha256.New()
	err = r.do("GET", "/runs/"+id+"/"+docName, nil, http.StatusOK, h)
	done := time.Now()
	tr.End(sp)
	if err != nil {
		return reqResult{err: err}
	}
	if [32]byte(h.Sum(nil)) != ref.Docs[docName] {
		return reqResult{err: fmt.Errorf("run %s %s document differs from the reference", id, docName)}
	}
	return reqResult{done: done}
}

// do makes one HTTP call and decodes a JSON answer into out, or
// streams the body into out when it is an io.Writer.
func (r *serveRunner) do(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if w, ok := out.(io.Writer); ok {
		_, err = io.Copy(w, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// phaseResult summarizes one open-loop phase at one offered rate.
type phaseResult struct {
	latMs   []float64 // due time to last byte, completed requests
	lateMs  []float64 // how late the generator released each request
	sent    int
	failed  int
	drainMs float64 // last completion after the phase's end
	rate    float64 // completions per second over the phase
	// queueMax is the most requests ever due but not yet taken by a
	// connection. vmprimd's own queue stays empty while no more runs
	// are in flight than it has workers, so with Conns <= workers this
	// client-side backlog is where queueing shows.
	queueMax float64
}

// phase offers rate requests per second for secs seconds on a seeded
// Poisson schedule, with Conns workers each owning one connection.
func (r *serveRunner) phase(rate, secs float64, tr *Tracer) phaseResult {
	cfg := r.e.cfg.Serve
	due := poissonSchedule(r.rng, rate, secs)
	type job struct{ i, spec, doc int }
	jobs := make(chan job, len(due)) // one slot per scheduled request
	results := make([]reqResult, len(due))
	dueAt := make([]time.Time, len(due))
	var wg sync.WaitGroup
	wg.Add(cfg.Conns)
	for w := 0; w < cfg.Conns; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				results[j.i] = r.request(j.spec, j.doc, tr)
			}
		}()
	}
	res := phaseResult{sent: len(due)}
	start := time.Now()
	for i, off := range due {
		at := start.Add(time.Duration(off * float64(time.Second)))
		time.Sleep(time.Until(at))
		res.lateMs = append(res.lateMs, float64(time.Since(at))/1e6)
		dueAt[i] = at
		c := r.draw()
		jobs <- job{i: i, spec: c / len(cfg.Docs), doc: c % len(cfg.Docs)}
		res.queueMax = max(res.queueMax, float64(len(jobs)))
	}
	close(jobs)
	wg.Wait()
	end := start.Add(time.Duration(secs * float64(time.Second)))
	last := start
	for i, q := range results {
		if q.err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "vmbench: serve:", q.err)
			continue
		}
		res.latMs = append(res.latMs, float64(q.done.Sub(dueAt[i]))/1e6)
		if q.done.After(last) {
			last = q.done
		}
	}
	res.drainMs = max(0, float64(last.Sub(end))/1e6)
	if span := last.Sub(start).Seconds(); span > 0 {
		res.rate = float64(len(res.latMs)) / span
	}
	return res
}

// draw deals the next (spec, document) pair, encoded spec·len(Docs)+doc,
// from a seeded shuffle of all pairs, reshuffled once all are dealt.
// Dealing rounds rather than drawing independently keeps the mix of
// cheap and expensive specs the same for every seed, so the latency
// percentiles measure the server, not the luck of the draw.
func (r *serveRunner) draw() int {
	if len(r.deck) == 0 {
		r.deck = r.rng.Perm(len(r.specs) * len(r.e.cfg.Serve.Docs))
	}
	c := r.deck[0]
	r.deck = r.deck[1:]
	return c
}

// meets reports whether a phase held the latency limit: every request
// completed, p99 within the limit, and the backlog at the phase's end
// drained within the limit too (a growing backlog does not).
func (p phaseResult) meets(limitMs float64) bool {
	return p.failed == 0 && len(p.latMs) > 0 && quantile(p.latMs, 0.99) <= limitMs && p.drainMs <= limitMs
}

// loop runs the base-rate phase for BaseShare of secs, then each rung
// of the rate ladder for an equal share of the rest. Latency is
// reported at the base rate; throughput is the completion rate of the
// highest rate (base or rung) that met the limit, or 0 if none did.
func (r *serveRunner) loop(secs float64, tr *Tracer) (loopStats, error) {
	cfg := r.e.cfg.Serve
	var st loopStats
	var before, after scrapeResult
	var err error
	if tr != nil {
		if before, err = r.scrape(); err != nil {
			return st, err
		}
	}
	base := r.phase(cfg.BaseRPS, secs*cfg.BaseShare, tr)
	if tr != nil {
		if after, err = r.scrape(); err != nil {
			return st, err
		}
		t := &r.traced
		t.queueMax = max(t.queueMax, base.queueMax)
		t.poolHits += after.poolHits - before.poolHits
		t.poolAcquires += after.poolHits - before.poolHits + after.poolMisses - before.poolMisses
		t.lateMs = append(t.lateMs, base.lateMs...)
		for _, ms := range base.latMs {
			t.latUs = append(t.latUs, ms*1e3)
		}
	}
	phases := []phaseResult{base}
	rung := secs * (1 - cfg.BaseShare) / float64(len(cfg.LadderRPS))
	for _, rate := range cfg.LadderRPS {
		phases = append(phases, r.phase(rate, rung, nil)) // layers read the base phase only
	}
	for _, p := range phases {
		fmt.Fprintf(os.Stderr, "vmbench: serve phase: %d sent, %d failed, %.1f done/s, p50 %.1f ms, p99 %.1f ms, drain %.1f ms, meets %v\n",
			p.sent, p.failed, p.rate, median(p.latMs), quantile(p.latMs, 0.99), p.drainMs, p.meets(cfg.LatencyLimitMs))
		st.attempted += int64(p.sent)
		st.failed += int64(p.failed)
		if p.meets(cfg.LatencyLimitMs) {
			st.opsPerS = max(st.opsPerS, p.rate)
		}
	}
	if len(base.latMs) == 0 {
		return st, errors.New("serve: no request completed at the base rate")
	}
	st.p50Ms = median(base.latMs)
	st.p99Ms = quantile(base.latMs, 0.99)
	return st, nil
}

// layers reports the serve.* phase latencies from the request spans,
// and the metrics.* histogram-estimate errors of the base-rate latency
// sample binned with vmprimd's own bucket ladder.
func (r *serveRunner) layers(spans []Span, lm metricSet) {
	for _, ph := range []string{"submit", "wait", "render"} {
		d := durByName(spans, "serve."+ph)
		for i := range d {
			d[i] /= 1e6
		}
		lm.set("serve."+ph+"_p50_ms", median(d), "ms")
		lm.set("serve."+ph+"_p99_ms", quantile(d, 0.99), "ms")
	}
	lm.set("serve.queue_depth_max", r.traced.queueMax, "count")
	lm.set("serve.pool_hit_ratio", r.traced.poolHits/r.traced.poolAcquires, "ratio")
	lm.set("serve.gen_late_p99_ms", quantile(r.traced.lateMs, 0.99), "ms")
	for _, q := range []float64{0.99, 0.95} {
		name := fmt.Sprintf("metrics.p%d_est_err", int(q*100))
		v, err := histQuantileErr(r.traced.latUs, r.bounds, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmbench:", name+":", err)
		}
		lm.set(name, v, "ratio")
	}
}

// scrapeResult is what the benchmark reads from vmprimd's /metrics.
type scrapeResult struct {
	poolHits, poolMisses float64
	bounds               []float64
}

// latencyHist is the per-endpoint histogram whose bucket ladder the
// histogram-error metrics use.
const latencyHist = "vmprimd_http_post_runs_duration_us"

func (r *serveRunner) scrape() (scrapeResult, error) {
	var out scrapeResult
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case name == "vmprimd_pool_hits_total":
			out.poolHits = v
		case name == "vmprimd_pool_misses_total":
			out.poolMisses = v
		case strings.HasPrefix(name, latencyHist+`_bucket{le="`):
			le := strings.TrimSuffix(strings.TrimPrefix(name, latencyHist+`_bucket{le="`), `"}`)
			if b, err := strconv.ParseFloat(le, 64); err == nil && le != "+Inf" {
				out.bounds = append(out.bounds, b)
			}
		}
	}
	return out, sc.Err()
}
