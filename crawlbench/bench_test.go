package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"focus/internal/crawler"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

// smokeScale shrinks every workload's web and budget for the smoke test.
const smokeScale = 20

// TestSmokeEveryMetricEmitted runs every workload at tiny size, untraced
// and traced, and checks that the last line names every metric with its
// unit and that the oracles pass.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0",
				"--trace", trace, "--scale", fmt.Sprint(smokeScale)}
			if code := run(args, &out, io.Discard); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.Name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got finalLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.Name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < minReps {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d",
					w.Name, trace, got.Correct, got.Attempted, got.Failed)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(got.Metrics), len(want))
			}
			for _, spec := range want {
				m, ok := got.Metrics[spec.Name]
				if !ok || m.Unit != spec.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %q", w.Name, trace, spec.Name, m, spec.Unit)
				}
				if !strings.Contains(out.String(), spec.Name) {
					t.Errorf("%s trace %s: %s not printed", w.Name, trace, spec.Name)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, "spans-"+w.Name+".jsonl")); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", w.Name, err)
		}
	}
}

// TestBenchmarkSpecMatches checks BENCHMARK.json against the metrics and
// workloads the program emits.
func TestBenchmarkSpecMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, have []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		have = append(have, w.Name+": "+w.Why)
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program has %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program has %v", spec.PerLayer, perLayer)
	}
}

// TestOraclesCatchCorruption runs a tiny durable, distilling crawl, checks
// that every oracle passes on its real output, then feeds each oracle one
// corrupted input and expects it to fail.
func TestOraclesCatchCorruption(t *testing.T) {
	w, _ := workloadByName("monitored-durable")
	r, err := setup(w, 5, smokeScale, t.TempDir(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	res, err := r.cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	log := r.cr.HarvestLog()
	ok := r.fetch.successes()
	attempts, failures := r.fetch.attempts.Load(), r.fetch.failures.Load()
	var edges []edge
	err = r.cr.Links().Scan(func(_ relstore.RID, tu relstore.Tuple) (bool, error) {
		e := linkgraph.EdgeOf(tu)
		edges = append(edges, edge{e.Src, e.Dst})
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := r.cr.Links().Rows()
	want := expectedEdges(ok)
	buckets, err := r.cr.HarvestByWindow(100)
	if err != nil {
		t.Fatal(err)
	}
	census, err := r.cr.CensusByClass()
	if err != nil {
		t.Fatal(err)
	}
	var wc, cc []int64
	for _, b := range buckets {
		wc = append(wc, b.Count)
	}
	for _, c := range census {
		cc = append(cc, c.Count)
	}
	tb, err := r.cr.Tables()
	if err != nil {
		t.Fatal(err)
	}
	hubs, err := scoreSum("HUBS", tb.Hubs)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := scoreSum("AUTH", tb.Auth)
	if err != nil {
		t.Fatal(err)
	}
	snap, pub := r.cr.DistillEpochs()
	if res.Visited < 10 || len(edges) < 10 || pub == 0 {
		t.Fatalf("tiny crawl too small to test the oracles: %+v, %d edges, %d epochs", res, len(edges), pub)
	}

	// Every oracle passes on the real output.
	for name, err := range map[string]error{
		"harvest":  checkHarvest(log, res.Visited, ok),
		"fetches":  checkFetchCounts(res, attempts, failures),
		"links":    checkLinks(rows, edges, want),
		"monitors": checkMonitorTotals(wc, cc, res.Visited),
		"scores":   checkScores(hubs, auth, snap, pub),
		"reopen":   checkReopen(res.Visited, res.Visited),
	} {
		if err != nil {
			t.Errorf("%s oracle fails on the real crawl: %v", name, err)
		}
	}

	dupLog := slices.Clone(log)
	dupLog[1].OID, dupLog[1].URL = dupLog[0].OID, dupLog[0].URL
	strangerLog := slices.Clone(log)
	strangerLog[0].URL = "http://nowhere.test/x"
	strangerLog[0].OID = crawler.OIDOf(strangerLog[0].URL)
	miscountRes := res
	miscountRes.Failed++
	for name, err := range map[string]error{
		"harvest: one entry short":         checkHarvest(log[1:], res.Visited, ok),
		"harvest: duplicate oid":           checkHarvest(dupLog, res.Visited, ok),
		"harvest: page never fetched":      checkHarvest(strangerLog, res.Visited, ok),
		"harvest: one fetch missing":       checkHarvest(log, res.Visited, ok[1:]),
		"fetches: one attempt unseen":      checkFetchCounts(res, attempts+1, failures),
		"fetches: failure miscounted":      checkFetchCounts(miscountRes, attempts, failures),
		"links: edge missing":              checkLinks(rows-1, edges[1:], want),
		"links: edge duplicated":           checkLinks(rows, append(slices.Clone(edges[1:]), edges[2]), want),
		"links: stray edge":                checkLinks(rows, append(slices.Clone(edges[1:]), edge{-1, -2}), want),
		"monitors: window count off":       checkMonitorTotals(append(slices.Clone(wc[1:]), wc[0]-1), cc, res.Visited),
		"monitors: census count off":       checkMonitorTotals(wc, append(slices.Clone(cc[1:]), cc[0]+1), res.Visited),
		"scores: hubs not normalized":      checkScores(hubs+1e-6, auth, snap, pub),
		"scores: auth not normalized":      checkScores(hubs, auth-1e-6, snap, pub),
		"scores: epoch left unpublished":   checkScores(hubs, auth, pub+1, pub),
		"reopen: checkpoint behind Result": checkReopen(res.Visited-1, res.Visited),
	} {
		if err == nil {
			t.Errorf("%s: oracle passed a corrupted input", name)
		}
	}
}
