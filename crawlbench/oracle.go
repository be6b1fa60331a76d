package main

import (
	"fmt"
	"math"

	"focus/internal/crawler"
)

// The oracle checks compare the crawl's output with what the benchmark
// itself saw at the program's boundary. Each takes plain values, so the
// smoke test can feed it one corrupted input and watch it fail.

// edge is one (src, dst) pair of the LINK relation.
type edge struct{ src, dst int64 }

// checkHarvest: the harvest log has one entry per visit, with distinct
// oids, and every entry is a page a successful wrapped Fetch returned.
func checkHarvest(log []crawler.HarvestPoint, visited int64, ok []fetched) error {
	if int64(len(log)) != visited {
		return fmt.Errorf("harvest log has %d entries, Result.Visited is %d", len(log), visited)
	}
	if int64(len(ok)) != visited {
		return fmt.Errorf("%d successful fetches, Result.Visited is %d", len(ok), visited)
	}
	fetchedURL := make(map[string]bool, len(ok))
	for _, f := range ok {
		fetchedURL[f.URL] = true
	}
	seen := make(map[int64]bool, len(log))
	for _, h := range log {
		if seen[h.OID] {
			return fmt.Errorf("oid %d appears twice in the harvest log", h.OID)
		}
		seen[h.OID] = true
		if !fetchedURL[h.URL] {
			return fmt.Errorf("harvested %s was never returned by a successful fetch", h.URL)
		}
		if crawler.OIDOf(h.URL) != h.OID {
			return fmt.Errorf("harvested %s carries oid %d, want %d", h.URL, h.OID, crawler.OIDOf(h.URL))
		}
	}
	return nil
}

// checkFetchCounts: the crawler's attempt and failure counts agree with
// the fetch wrapper's.
func checkFetchCounts(res crawler.Result, attempts, failures int64) error {
	if res.Fetches != attempts || res.Failed != failures {
		return fmt.Errorf("Result reports %d fetches/%d failed, the fetcher saw %d/%d",
			res.Fetches, res.Failed, attempts, failures)
	}
	return nil
}

// expectedEdges is the set of distinct non-self (src, dst) pairs over the
// outlinks of every successfully fetched page.
func expectedEdges(ok []fetched) map[edge]bool {
	want := make(map[edge]bool)
	for _, f := range ok {
		src := crawler.OIDOf(f.URL)
		for _, out := range f.Outlinks {
			if dst := crawler.OIDOf(out); dst != src {
				want[edge{src, dst}] = true
			}
		}
	}
	return want
}

// checkLinks: the LINK relation holds exactly the expected edge set, and
// its row count has no duplicates.
func checkLinks(rows int64, got []edge, want map[edge]bool) error {
	if rows != int64(len(want)) {
		return fmt.Errorf("LINK has %d rows, the fetched outlinks give %d distinct edges", rows, len(want))
	}
	seen := make(map[edge]bool, len(got))
	for _, e := range got {
		if !want[e] {
			return fmt.Errorf("LINK holds edge %d->%d that no fetched page links", e.src, e.dst)
		}
		if seen[e] {
			return fmt.Errorf("LINK holds edge %d->%d twice", e.src, e.dst)
		}
		seen[e] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("LINK scan found %d distinct edges, want %d", len(seen), len(want))
	}
	return nil
}

// checkMonitorTotals: the final §3.7 monitor queries account for every
// visited page.
func checkMonitorTotals(windowCounts, censusCounts []int64, visited int64) error {
	sum := func(xs []int64) (s int64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	if s := sum(windowCounts); s != visited {
		return fmt.Errorf("HarvestByWindow counts sum to %d, Result.Visited is %d", s, visited)
	}
	if s := sum(censusCounts); s != visited {
		return fmt.Errorf("CensusByClass counts sum to %d, Result.Visited is %d", s, visited)
	}
	return nil
}

// checkScores: published HUBS and AUTH are normalized, and no epoch is
// left between snapshot and publish once Run has returned.
func checkScores(hubSum, authSum float64, snapshotted, published int64) error {
	if math.Abs(hubSum-1) > 1e-9 || math.Abs(authSum-1) > 1e-9 {
		return fmt.Errorf("published scores sum to hubs %.12f, auth %.12f; want 1", hubSum, authSum)
	}
	if snapshotted != published {
		return fmt.Errorf("%d distill epochs snapshotted but %d published", snapshotted, published)
	}
	return nil
}

// checkReopen: the durable file, reopened after the final checkpoint,
// carries the crawl's visit count.
func checkReopen(reopenedVisited, visited int64) error {
	if reopenedVisited != visited {
		return fmt.Errorf("reopened checkpoint has Visited %d, Result.Visited is %d", reopenedVisited, visited)
	}
	return nil
}
