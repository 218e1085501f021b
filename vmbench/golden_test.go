package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"vmprim/internal/bench"
)

func loadGolden(t *testing.T) map[string]goldenTable {
	t.Helper()
	var g map[string]goldenTable
	if err := json.Unmarshal(tablesGoldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckTableCountsCorruptedGolden(t *testing.T) {
	g := loadGolden(t)["E1"]
	tab := &bench.Table{ID: "E1", Columns: slices.Clone(g.Columns)}
	for _, r := range g.Rows {
		tab.Rows = append(tab.Rows, slices.Clone(r))
	}
	checked, wrong := checkTable(tab, g)
	if checked != goldenCells(g) || wrong != 0 {
		t.Fatalf("matching table: %d checked, %d wrong; want %d, 0", checked, wrong, goldenCells(g))
	}

	bad := goldenTable{Columns: g.Columns}
	for _, r := range g.Rows {
		bad.Rows = append(bad.Rows, slices.Clone(r))
	}
	bad.Rows[2][3] += "1"
	if _, wrong := checkTable(tab, bad); wrong != 1 {
		t.Errorf("one corrupted golden cell: %d wrong, want 1", wrong)
	}
	bad.Rows = bad.Rows[:len(bad.Rows)-1]
	if _, wrong := checkTable(tab, bad); wrong != 1+int64(len(g.Columns)) {
		t.Errorf("corrupted cell plus a missing golden row: %d wrong, want %d", wrong, 1+len(g.Columns))
	}
}

// TestGoldenTablesMatchExperimentsMD cross-checks the golden cells
// against every table block printed in EXPERIMENTS.md: each block's
// header must be the table's header and each of its rows one of the
// table's rows.
func TestGoldenTablesMatchExperimentsMD(t *testing.T) {
	doc, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		t.Skip("EXPERIMENTS.md not found:", err)
	}
	g := loadGolden(t)
	if len(g) != len(bench.All()) {
		t.Fatalf("golden has %d tables, registry %d", len(g), len(bench.All()))
	}
	fields := func(cells []string) string { return strings.Join(strings.Fields(strings.Join(cells, " ")), " ") }
	checked := 0
	for _, sec := range strings.Split(string(doc), "\n## ")[1:] {
		id, _, _ := strings.Cut(sec, " ")
		want, ok := g[id]
		if !ok {
			continue
		}
		var block []string
		for _, line := range strings.Split(sec, "\n") {
			if strings.HasPrefix(line, "    ") {
				block = append(block, strings.Join(strings.Fields(line), " "))
			} else if len(block) > 0 {
				break
			}
		}
		if len(block) == 0 {
			continue
		}
		if block[0] != fields(want.Columns) {
			t.Errorf("%s: EXPERIMENTS.md header %q, golden %q", id, block[0], fields(want.Columns))
		}
		rows := map[string]bool{}
		for _, r := range want.Rows {
			rows[fields(r)] = true
		}
		for _, line := range block[1:] {
			if !rows[line] {
				t.Errorf("%s: EXPERIMENTS.md row %q is not in the golden table", id, line)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Errorf("cross-checked only %d rows; EXPERIMENTS.md layout changed?", checked)
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	var cfg config
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		t.Fatal(err)
	}
	return &env{cfg: cfg, seed: 1, seconds: 1, out: t.TempDir()}
}

func TestBulkPassIsCorrect(t *testing.T) {
	r, err := setupBulk(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	st, err := r.loop(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted != 5 || st.failed != 0 {
		t.Errorf("one pass: %d attempted, %d failed; want 5, 0", st.attempted, st.failed)
	}
}

func TestBulkCountsCorruptedGolden(t *testing.T) {
	r, err := setupBulk(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	br := r.(*bulkRunner)
	br.golden.SimUs["ReduceRows"]++
	st, err := r.loop(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted != 5 || st.failed != 1 {
		t.Errorf("corrupted ReduceRows sim time: %d attempted, %d failed; want 5, 1", st.attempted, st.failed)
	}
	// A result that disagrees with the serial reference fails too.
	br.golden.SimUs["ReduceRows"]--
	br.colSum[0]++
	if st, _ = r.loop(0, nil); st.failed != 1 {
		t.Errorf("corrupted reference column sum: %d failed, want 1", st.failed)
	}
}

// TestProbeCountersRepeat checks that the per-layer counters read from
// the machine are exact counts: two probe runs agree bit for bit.
func TestProbeCountersRepeat(t *testing.T) {
	sh := probeShape{D: 4, N: 32, Payload: 8}
	var runs [2]metricSet
	for i := range runs {
		runs[i] = metricSet{}
		if err := probeCore(sh, runs[i], new([]fitRow)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"hypercube.msgs_per_op", "hypercube.words_per_op", "hypercube.flops_per_op"} {
		a, b := runs[0][name].Value, runs[1][name].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
}
