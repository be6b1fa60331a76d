package main

import (
	"sync"
	"sync/atomic"

	"focus/internal/crawler"
	"focus/internal/relstore"
)

// fetched is what one successful wrapped Fetch returned, kept for the
// oracle checks. Tokens are kept only for the pages the traced run replays.
type fetched struct {
	URL      string
	ServerID int32
	Outlinks []string
	Tokens   []string
}

// fetchRecorder wraps the crawler.Fetcher handed to the crawler. It counts
// attempts and failures, remembers every successful page's URL and
// outlinks for the oracles, and in the traced run records one span per
// Fetch under the crawl's span.
type fetchRecorder struct {
	inner crawler.Fetcher
	tr    *tracer
	// parent is the span the fetches run under (the crawl's Run span).
	parent atomic.Int64
	// keepTokensEvery samples pages for the layer replay: every k-th
	// successful fetch keeps its tokens (0 keeps none).
	keepTokensEvery int

	attempts atomic.Int64
	failures atomic.Int64
	mu       sync.Mutex
	ok       []fetched
}

func (f *fetchRecorder) Fetch(url string) (*crawler.Fetch, error) {
	oid := int64(0)
	if f.tr != nil {
		oid = crawler.OIDOf(url)
	}
	_, end := f.tr.begin("webgraph.fetch", f.parent.Load(), oid)
	res, err := f.inner.Fetch(url)
	end()
	f.attempts.Add(1)
	if err != nil {
		f.failures.Add(1)
		return nil, err
	}
	rec := fetched{URL: res.URL, ServerID: res.ServerID, Outlinks: res.Outlinks}
	f.mu.Lock()
	if f.keepTokensEvery > 0 && len(f.ok)%f.keepTokensEvery == 0 {
		rec.Tokens = res.Tokens
	}
	f.ok = append(f.ok, rec)
	f.mu.Unlock()
	return res, nil
}

// successes returns the recorded successful fetches; call after Run.
func (f *fetchRecorder) successes() []fetched {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ok
}

// diskRecorder wraps the disk under the buffer pool. In the traced run it
// records one span per page read, page write and sync under the span in
// parent (the crawl's Run span while the crawl runs); untraced it only
// forwards.
type diskRecorder struct {
	relstore.DurableDisk
	tr     *tracer
	parent atomic.Int64
}

func (d *diskRecorder) ReadPage(pid relstore.PageID, buf []byte) error {
	_, end := d.tr.begin("relstore.read_page", d.parent.Load(), 0)
	defer end()
	return d.DurableDisk.ReadPage(pid, buf)
}

func (d *diskRecorder) WritePage(pid relstore.PageID, buf []byte) error {
	_, end := d.tr.begin("relstore.write_page", d.parent.Load(), 0)
	defer end()
	return d.DurableDisk.WritePage(pid, buf)
}

func (d *diskRecorder) Sync() error {
	_, end := d.tr.begin("relstore.sync", d.parent.Load(), 0)
	defer end()
	return d.DurableDisk.Sync()
}
