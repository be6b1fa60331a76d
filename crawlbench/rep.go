package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"focus/internal/crawler"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

// closedLoopRounds is how many at-rest monitor rounds a crawl without the
// open-loop client runs after Run returns.
const closedLoopRounds = 60

// repResult is one set-up-and-crawl repetition.
type repResult struct {
	Setup    time.Duration
	SetupCPU time.Duration // process CPU time during set-up
	Run      time.Duration
	RunCPU   time.Duration // process CPU time (user+system) during Run
	Res      crawler.Result
	Harvest  float64 // mean R(d) over the harvest log
	Graded   float64 // share of visits with 0.01 < R(d) < 0.99
	PeakHeap uint64  // bytes
	Rounds   []round

	AllocBytes, AllocObjects, GCCycles uint64
	Pool                               relstore.BufStats
	StorePages                         int64
	Sweeps, SweepProbes, Edges         int64
	Epochs                             [2]int64 // snapshotted, published

	// Oracle failures; any makes the run incorrect.
	Failures []string

	// Traced repetition only.
	Layers map[string]float64
	tr     *tracer
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() (allocBytes, allocObjects, gcCycles uint64) {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// sampleHeap records the peak of live heap objects until stop closes.
func sampleHeap(stop <-chan struct{}, peak *uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > *peak {
			*peak = v
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// runRep sets up a fresh system, crawls it, and checks the output. With
// traced set it also records spans and derives the per-layer numbers.
func runRep(w workload, seed int64, scale int, dir string, traced bool) (*repResult, error) {
	var tr *tracer
	keep := 0
	if traced {
		tr = newTracer()
		// Keep a few hundred pages for the replay: enough for stable
		// per-page means, few enough that their tokens stay small on
		// doc-heavy.
		keep = int(w.Budget/int64(scale)/400) + 1
	}
	out := &repResult{tr: tr}
	// Start every repetition from the same heap state: the previous
	// repetition's system is garbage by now.
	runtime.GC()
	t0, c0 := time.Now(), processCPU()
	r, err := setup(w, seed, scale, dir, tr, keep)
	out.Setup, out.SetupCPU = time.Since(t0), processCPU()-c0
	if err != nil {
		return nil, err
	}
	defer r.close()

	runID, endRun := tr.begin("crawler.run", 0, 0)
	r.fetch.parent.Store(runID)
	r.disk.parent.Store(runID)
	r.db.Pool().ResetStats()
	ab0, ao0, gc0 := readRuntime()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sampleHeap(stop, &out.PeakHeap)
	}()
	if w.Monitor {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.Rounds = openLoopMonitor(r.cr, tr, runID, stop)
		}()
	}
	cpu0 := processCPU()
	start := time.Now()
	res, runErr := r.cr.Run()
	out.Run = time.Since(start)
	out.RunCPU = processCPU() - cpu0
	endRun()
	close(stop)
	wg.Wait()
	ab1, ao1, gc1 := readRuntime()
	out.AllocBytes, out.AllocObjects, out.GCCycles = ab1-ab0, ao1-ao0, gc1-gc0
	out.Pool = r.db.Pool().Stats()
	r.fetch.parent.Store(0)
	r.disk.parent.Store(0)
	if runErr != nil {
		return nil, fmt.Errorf("run: %w", runErr)
	}
	out.Res = res
	out.StorePages = r.db.Disk().NumPages()
	out.Sweeps, out.SweepProbes = r.cr.Links().SweepStats()
	out.Edges = r.cr.Links().Rows()
	out.Epochs[0], out.Epochs[1] = r.cr.DistillEpochs()

	log := r.cr.HarvestLog()
	graded := 0
	for _, h := range log {
		out.Harvest += h.Relevance
		if h.Relevance > 0.01 && h.Relevance < 0.99 {
			graded++
		}
	}
	if len(log) > 0 {
		out.Harvest /= float64(len(log))
		out.Graded = float64(graded) / float64(len(log))
	}
	if !w.Monitor {
		// The crawl's garbage is collected first, so the at-rest rounds
		// measure the queries and not the crawl's leftover GC work.
		runtime.GC()
		postID, endPost := tr.begin("crawler.monitor_at_rest", 0, 0)
		out.Rounds = closedLoopMonitor(r.cr, tr, postID, closedLoopRounds)
		endPost()
	}

	if err := out.check(r, log); err != nil {
		return nil, err
	}
	if traced {
		if out.Layers, err = traceLayers(r, out); err != nil {
			return nil, err
		}
	}
	if w.Disk == durableDisk {
		if err := out.reopenDurable(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check runs the oracle checks over the finished crawl. A failed check is
// recorded in Failures; only an error reading the crawl's state aborts.
func (out *repResult) check(r *rig, log []crawler.HarvestPoint) error {
	fail := func(err error) {
		if err != nil {
			out.Failures = append(out.Failures, err.Error())
		}
	}
	ok := r.fetch.successes()
	fail(checkHarvest(log, out.Res.Visited, ok))
	fail(checkFetchCounts(out.Res, r.fetch.attempts.Load(), r.fetch.failures.Load()))

	var got []edge
	err := r.cr.Links().Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		e := linkgraph.EdgeOf(t)
		got = append(got, edge{e.Src, e.Dst})
		return false, nil
	})
	if err != nil {
		return fmt.Errorf("scan LINK: %w", err)
	}
	fail(checkLinks(r.cr.Links().Rows(), got, expectedEdges(ok)))

	buckets, err := r.cr.HarvestByWindow(100)
	if err != nil {
		return fmt.Errorf("HarvestByWindow: %w", err)
	}
	census, err := r.cr.CensusByClass()
	if err != nil {
		return fmt.Errorf("CensusByClass: %w", err)
	}
	var wc, cc []int64
	for _, b := range buckets {
		wc = append(wc, b.Count)
	}
	for _, c := range census {
		cc = append(cc, c.Count)
	}
	fail(checkMonitorTotals(wc, cc, out.Res.Visited))

	if r.ccfg.DistillEvery > 0 {
		tb, err := r.cr.Tables()
		if err != nil {
			return fmt.Errorf("crawler tables: %w", err)
		}
		hubSum, err := scoreSum("HUBS", tb.Hubs)
		if err != nil {
			return err
		}
		authSum, err := scoreSum("AUTH", tb.Auth)
		if err != nil {
			return err
		}
		fail(checkScores(hubSum, authSum, out.Epochs[0], out.Epochs[1]))
	}
	return nil
}

func scoreSum(name string, tb *relstore.Table) (float64, error) {
	var s float64
	err := tb.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		s += t[1].Float()
		return false, nil
	})
	if err != nil {
		return 0, fmt.Errorf("scan %s: %w", name, err)
	}
	return s, nil
}

// reopenDurable takes a final checkpoint, closes the durable file,
// reopens it and checks the checkpointed crawler state it reads back.
func (out *repResult) reopenDurable(r *rig) error {
	if err := r.cr.Checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	if err := r.db.Close(); err != nil {
		return fmt.Errorf("close durable file: %w", err)
	}
	r.db = nil
	db, err := relstore.OpenFile(r.path, relstore.Options{Frames: r.w.Frames})
	if err != nil {
		return fmt.Errorf("reopen durable file: %w", err)
	}
	defer db.Close()
	st, err := crawler.ReadCheckpoint(db)
	if err != nil {
		return fmt.Errorf("read checkpoint: %w", err)
	}
	if err := checkReopen(st.Visited, out.Res.Visited); err != nil {
		out.Failures = append(out.Failures, err.Error())
	}
	return nil
}
