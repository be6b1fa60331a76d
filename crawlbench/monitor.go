package main

import (
	"runtime"
	"time"

	"focus/internal/crawler"
)

// monitorPeriod is the open-loop monitor client's schedule.
const monitorPeriod = 50 * time.Millisecond

// round is one monitor round: the three §3.7 queries in sequence.
type round struct {
	// Latency runs from when the round was due to when its last query
	// returned. Err marks a round whose queries failed; it counts as
	// failed and as missing any latency limit.
	Latency time.Duration
	Late    time.Duration // how late the client started it
	Lag     int64         // snapshotted minus published distill epochs
	Err     error
}

var queryNames = [3]string{"harvest", "census", "tophubs"}

// monitorRound runs HarvestByWindow(100), CensusByClass and TopHubURLs(10)
// and reads the distiller's epoch counters, the way an operator's monitor
// polls a live crawl.
func monitorRound(cr *crawler.Crawler, tr *tracer, parent int64, due time.Time) round {
	rd := round{Late: time.Since(due)}
	id, endRound := tr.begin("crawler.monitor_round", parent, 0)
	queries := [3]func() error{
		func() error { _, err := cr.HarvestByWindow(100); return err },
		func() error { _, err := cr.CensusByClass(); return err },
		func() error { _, err := cr.TopHubURLs(10); return err },
	}
	for i, q := range queries {
		_, end := tr.begin("crawler.monitor_"+queryNames[i], id, 0)
		err := q()
		end()
		if err != nil && rd.Err == nil {
			rd.Err = err
		}
	}
	snap, pub := cr.DistillEpochs()
	rd.Lag = snap - pub
	endRound()
	rd.Latency = time.Since(due)
	return rd
}

// openLoopMonitor runs a round every monitorPeriod, on a fixed schedule,
// until stop closes. A round due while the previous one still runs starts
// as soon as it can and is timed from when it was due, so a stall shows up
// in the latency of every round it delays.
func openLoopMonitor(cr *crawler.Crawler, tr *tracer, parent int64, stop <-chan struct{}) []round {
	var out []round
	start := time.Now()
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * monitorPeriod)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return out
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		out = append(out, monitorRound(cr, tr, parent, due))
	}
}

// closedLoopMonitor runs n rounds back to back against a finished crawl:
// the at-rest cost of the same queries. Nothing else runs then, so a
// round's latency is its own CPU time, which is what each round records;
// wall time would add only the machine's other tenants.
func closedLoopMonitor(cr *crawler.Crawler, tr *tracer, parent int64, n int) []round {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]round, 0, n)
	for i := 0; i < n; i++ {
		c0 := threadCPU()
		rd := monitorRound(cr, tr, parent, time.Now())
		rd.Latency = threadCPU() - c0
		out = append(out, rd)
	}
	return out
}
