package main

import (
	"math"
	"sort"
)

// metricSpec names a metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics a user of the crawler sees, reported by every
// untraced run on every workload. Failed fetches are bounded through
// fetch_ok_frac, the successful share: the failed share is about 4% of a
// run's few thousand attempts, and its run-to-run noise (about 10%) is as
// wide as any relative bound it could carry. The failed share itself is
// printed, and is the per-layer crawler.fetch_fail_frac.
var endToEnd = []metricSpec{
	{"pages_per_cpu_sec", "1/s"},
	{"harvest_rate", "frac"},
	{"setup_s", "s"},
	{"fetch_ok_frac", "frac"},
	{"peak_heap_mb", "MB"},
	{"monitor_p50_ms", "ms"},
	{"monitor_p95_ms", "ms"},
}

// perLayer are the metrics of the one traced run.
var perLayer = []metricSpec{
	{"webgraph.fetch_us_per_visit", "us"},
	{"crawler.worker_us_per_visit", "us"},
	{"crawler.unattributed_us_per_visit", "us"},
	{"crawler.retries", "count"},
	{"crawler.dead", "count"},
	{"crawler.fetch_fail_frac", "frac"},
	{"crawler.monitor_harvest_ms", "ms"},
	{"crawler.monitor_census_ms", "ms"},
	{"crawler.monitor_tophubs_ms", "ms"},
	{"monitor.gen_late_ms", "ms"},
	{"monitor.samples", "count"},
	{"textproc.tokenize_us_per_page", "us"},
	{"classifier.classify_us_per_page", "us"},
	{"classifier.batch_classify_us_per_page", "us"},
	{"classifier.doc_ingest_us_per_page", "us"},
	{"classifier.graded_frac", "frac"},
	{"linkgraph.apply_us_per_page", "us"},
	{"linkgraph.sweep_us_per_page", "us"},
	{"linkgraph.probes_per_sweep", "count"},
	{"linkgraph.edges_per_visit", "count"},
	{"distiller.epochs", "count"},
	{"distiller.compute_ms_per_epoch", "ms"},
	{"distiller.stall_ms", "ms"},
	{"distiller.epoch_lag_mean", "count"},
	{"distiller.join_scan_ms", "ms"},
	{"distiller.join_sort_ms", "ms"},
	{"distiller.join_update_ms", "ms"},
	{"relstore.pool_hits_per_visit", "count"},
	{"relstore.pool_miss_ratio", "frac"},
	{"relstore.pool_evictions_per_visit", "count"},
	{"relstore.disk_reads_per_visit", "count"},
	{"relstore.disk_writes_per_visit", "count"},
	{"relstore.disk_read_us", "us"},
	{"relstore.disk_write_us", "us"},
	{"relstore.syncs", "count"},
	{"relstore.sync_ms", "ms"},
	{"relstore.checkpoints", "count"},
	{"relstore.store_kb_per_visit", "KiB"},
	{"go.alloc_kb_per_visit", "KiB"},
	{"go.allocs_per_visit", "count"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_frac", "frac"},
}

// absentWhy explains a per-layer metric that the workload's crawl cannot
// produce; such a metric is reported as 0.
func absentWhy(w workload, name string, m map[string]float64) string {
	switch name {
	case "distiller.compute_ms_per_epoch", "distiller.epoch_lag_mean":
		if w.DistillEvery == 0 {
			return "no distillation in this workload"
		}
	case "relstore.disk_read_us":
		if m["relstore.disk_reads_per_visit"] == 0 {
			return "no page reads: the pool holds the whole store"
		}
	case "relstore.disk_write_us":
		if m["relstore.disk_writes_per_visit"] == 0 {
			return "no page writes during the crawl"
		}
	case "linkgraph.probes_per_sweep":
		if m["linkgraph.probes_per_sweep"] == 0 {
			return "no incoming-weight sweeps ran"
		}
	}
	return ""
}

// summary aggregates the repetitions of one run into the end-to-end
// metrics: medians over repetitions for throughput, set-up time and
// memory; pooled over every visit, fetch or monitor round of the run for
// the harvest rate, the failure fraction and the latency percentiles.
// Throughput and set-up time are taken in process CPU time (see cpu.go).
type summary struct {
	Metrics  map[string]float64
	Samples  int     // monitor rounds behind the latency percentiles
	Beyond95 int     // of which lie beyond p95
	GenLate  float64 // mean generator lateness, ms
	Failed   int     // monitor rounds that errored
	Fetches  int64   // fetch attempts, all repetitions
	FailFrac float64 // failed share of Fetches
	// Wall-clock pages per second and set-up seconds, medians.
	WallPPS, WallSetup float64
}

func summarize(reps []*repResult) summary {
	var pps, wallPPS, setupS, wallSetup, heap []float64
	var fetches, failedFetches, visited int64
	var relSum float64
	var lat []float64
	s := summary{Metrics: map[string]float64{}}
	var late float64
	for _, r := range reps {
		pps = append(pps, float64(r.Res.Visited)/r.RunCPU.Seconds())
		wallPPS = append(wallPPS, float64(r.Res.Visited)/r.Run.Seconds())
		relSum += r.Harvest * float64(r.Res.Visited)
		visited += r.Res.Visited
		setupS = append(setupS, r.SetupCPU.Seconds())
		wallSetup = append(wallSetup, r.Setup.Seconds())
		heap = append(heap, float64(r.PeakHeap)/(1<<20))
		fetches += r.Res.Fetches
		failedFetches += r.Res.Failed
		for _, rd := range r.Rounds {
			if rd.Err != nil {
				s.Failed++
				lat = append(lat, math.Inf(1))
			} else {
				lat = append(lat, ms(rd.Latency))
			}
			late += ms(rd.Late)
		}
	}
	m := s.Metrics
	m["pages_per_cpu_sec"] = median(pps)
	s.WallPPS, s.WallSetup = median(wallPPS), median(wallSetup)
	if visited > 0 {
		m["harvest_rate"] = relSum / float64(visited)
	}
	m["setup_s"] = median(setupS)
	if fetches > 0 {
		s.FailFrac = float64(failedFetches) / float64(fetches)
		m["fetch_ok_frac"] = 1 - s.FailFrac
	}
	s.Fetches = fetches
	m["peak_heap_mb"] = median(heap)
	m["monitor_p50_ms"] = quantile(lat, 0.5)
	m["monitor_p95_ms"] = quantile(lat, 0.95)
	s.Samples = len(lat)
	for _, v := range lat {
		if v > m["monitor_p95_ms"] {
			s.Beyond95++
		}
	}
	if len(lat) > 0 {
		s.GenLate = late / float64(len(lat))
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	if math.IsInf(s[lo+1], 1) {
		return s[lo+1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
