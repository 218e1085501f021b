package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vmprim/internal/bench"
)

// The tables workload regenerates all 15 evaluation tables through the
// public experiment registry and checks every cell against the golden
// values in golden/tables.json. Its inputs are the paper's fixed ones,
// so the seed does not change them. One closed-loop client.

//go:embed golden/tables.json
var tablesGoldenJSON []byte

// goldenTable is one table's expected header and formatted cells.
type goldenTable struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type tablesRunner struct {
	golden map[string]goldenTable
	exps   []bench.Experiment
}

func setupTables(e *env) (runner, error) {
	r := &tablesRunner{exps: bench.All()}
	if err := json.Unmarshal(tablesGoldenJSON, &r.golden); err != nil {
		return nil, fmt.Errorf("golden/tables.json: %w", err)
	}
	if len(r.golden) != len(r.exps) {
		return nil, fmt.Errorf("golden/tables.json has %d tables, registry has %d", len(r.golden), len(r.exps))
	}
	// Warm-up: one small table, so the first timed pass does not pay
	// for the runtime growing its heap and goroutine stacks.
	warm, ok := bench.ByID("E1")
	if !ok {
		return nil, fmt.Errorf("registry has no E1")
	}
	if _, err := warm.Run(); err != nil {
		return nil, fmt.Errorf("warm-up E1: %w", err)
	}
	return r, nil
}

// checkTable compares a regenerated table with its golden copy cell by
// cell and returns how many cells were checked and how many were
// wrong. Missing and extra cells count as wrong; so does a changed
// header cell.
func checkTable(t *bench.Table, g goldenTable) (checked, wrong int64) {
	cmp := func(got, want []string) {
		for i := 0; i < max(len(got), len(want)); i++ {
			checked++
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				wrong++
			}
		}
	}
	cmp(t.Columns, g.Columns)
	for i := 0; i < max(len(t.Rows), len(g.Rows)); i++ {
		var got, want []string
		if i < len(t.Rows) {
			got = t.Rows[i]
		}
		if i < len(g.Rows) {
			want = g.Rows[i]
		}
		cmp(got, want)
	}
	return checked, wrong
}

func goldenCells(g goldenTable) int64 {
	n := int64(len(g.Columns))
	for _, r := range g.Rows {
		n += int64(len(r))
	}
	return n
}

// loop regenerates whole passes of the 15 tables. A pass is one
// operation; another pass starts only while it is expected to end
// within secs, and there is always at least one.
func (r *tablesRunner) loop(secs float64, tr *Tracer) (loopStats, error) {
	var st loopStats
	var passes []float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds()+passes[len(passes)-1] <= secs {
		req := fmt.Sprintf("pass-%d", len(passes))
		ps := tr.Begin("tables.pass", -1, req)
		passTime := 0.0
		for _, x := range r.exps {
			sp := tr.Begin("bench."+x.ID, ps, req)
			t0 := time.Now()
			tab, err := x.Run()
			passTime += time.Since(t0).Seconds()
			cs := tr.Begin("check", sp, req)
			g := r.golden[x.ID]
			if err != nil {
				fmt.Fprintf(os.Stderr, "vmbench: %s: %v\n", x.ID, err)
				st.attempted += goldenCells(g)
				st.failed += goldenCells(g)
			} else {
				c, w := checkTable(tab, g)
				st.attempted += c
				st.failed += w
				if w > 0 {
					fmt.Fprintf(os.Stderr, "vmbench: %s: %d of %d cells differ from golden\n", x.ID, w, c)
				}
			}
			tr.End(cs)
			tr.End(sp)
		}
		tr.End(ps)
		passes = append(passes, passTime)
	}
	st.p50Ms = median(passes) * 1e3
	st.p99Ms = quantile(passes, 0.99) * 1e3
	st.opsPerS = float64(len(passes)) / sum(passes)
	return st, nil
}

// layers reports bench.<ID>_s: the median self time of each table's
// span, which excludes its golden check.
func (r *tablesRunner) layers(spans []Span, lm metricSet) {
	self := SelfTimes(spans)
	for _, x := range r.exps {
		lm.set("bench."+x.ID+"_s", median(selfByName(spans, self, "bench."+x.ID))/1e9, "s")
	}
}

func (r *tablesRunner) close() (float64, error) { return selfRSSMB(), nil }

// recordTables regenerates every table once and writes
// golden/tables.json into dir.
func recordTables(dir string) error {
	out := map[string]goldenTable{}
	for _, x := range bench.All() {
		tab, err := x.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", x.ID, err)
		}
		out[x.ID] = goldenTable{Columns: tab.Columns, Rows: tab.Rows}
	}
	return writeJSON(filepath.Join(dir, "tables.json"), out)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// recordGolden writes the golden files a workload checks against.
func recordGolden(workload, dir string) error {
	switch workload {
	case "tables":
		return recordTables(dir)
	case "bulk":
		return recordBulk(dir)
	default:
		return fmt.Errorf("workload %s has no golden file (serve renders its references at set-up)", workload)
	}
}
