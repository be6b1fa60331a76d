package main

import (
	"fmt"
	"time"

	"focus/internal/classifier"
	"focus/internal/crawler"
	"focus/internal/distiller"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
	"focus/internal/textproc"
)

// replayBatch is the batch size of the replayed BulkClassifyStream calls,
// the ClassifyBatch of the doc-heavy workload.
const replayBatch = 16

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceLayers derives the per-layer numbers of the traced repetition from
// its spans, the crawl's public statistics, and a single-threaded replay
// of the sampled pages through each layer's public calls.
func traceLayers(r *rig, out *repResult) (map[string]float64, error) {
	tr := out.tr
	visited := float64(out.Res.Visited)
	if visited == 0 {
		return nil, fmt.Errorf("traced crawl visited no pages")
	}
	m := map[string]float64{}
	runSpans := tr.byName("crawler.run")
	if len(runSpans) != 1 {
		return nil, fmt.Errorf("traced run has %d crawl spans", len(runSpans))
	}
	runID := runSpans[0].ID
	under := func(name string) (time.Duration, int) {
		var d time.Duration
		n := 0
		for _, s := range tr.byName(name) {
			if s.Parent == runID {
				d += s.dur()
				n++
			}
		}
		return d, n
	}

	fetchT, _ := under("webgraph.fetch")
	m["webgraph.fetch_us_per_visit"] = us(fetchT) / visited
	workerT := time.Duration(workers) * runSpans[0].dur()
	m["crawler.worker_us_per_visit"] = us(workerT) / visited
	m["crawler.retries"] = float64(out.Res.Retries)
	m["crawler.dead"] = float64(out.Res.Dead)
	if out.Res.Fetches > 0 {
		m["crawler.fetch_fail_frac"] = float64(out.Res.Failed) / float64(out.Res.Fetches)
	}

	// Monitor query cost, p50 per query, from the query spans.
	for _, q := range queryNames {
		var ds []float64
		for _, s := range tr.byName("crawler.monitor_" + q) {
			ds = append(ds, ms(s.dur()))
		}
		m["crawler.monitor_"+q+"_ms"] = quantile(ds, 0.5)
	}

	stages, err := replay(r, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range stages {
		m[k] = v
	}
	m["crawler.unattributed_us_per_visit"] = m["crawler.worker_us_per_visit"] -
		m["webgraph.fetch_us_per_visit"] - m["textproc.tokenize_us_per_page"] -
		m["classifier.classify_us_per_page"] - m["classifier.doc_ingest_us_per_page"] -
		m["linkgraph.apply_us_per_page"] - m["linkgraph.sweep_us_per_page"]
	if out.Sweeps > 0 {
		m["linkgraph.probes_per_sweep"] = float64(out.SweepProbes) / float64(out.Sweeps)
	}
	m["linkgraph.edges_per_visit"] = float64(out.Edges) / visited
	m["classifier.graded_frac"] = out.Graded

	m["distiller.epochs"] = float64(out.Res.Distills)
	if out.Res.Distills > 0 {
		m["distiller.compute_ms_per_epoch"] = ms(out.Res.DistillCompute) / float64(out.Res.Distills)
	}
	m["distiller.stall_ms"] = ms(out.Res.DistillStall)
	var lag float64
	for _, rd := range out.Rounds {
		lag += float64(rd.Lag)
	}
	if len(out.Rounds) > 0 {
		m["distiller.epoch_lag_mean"] = lag / float64(len(out.Rounds))
	}
	tb, err := r.cr.Tables()
	if err != nil {
		return nil, fmt.Errorf("crawler tables: %w", err)
	}
	_, endJoin := tr.begin("distiller.run_join", 0, 0)
	bd, err := distiller.RunJoin(r.db, tb, distiller.Config{})
	endJoin()
	if err != nil {
		return nil, fmt.Errorf("RunJoin: %w", err)
	}
	m["distiller.join_scan_ms"] = ms(bd.Scan)
	m["distiller.join_sort_ms"] = ms(bd.Sort)
	m["distiller.join_update_ms"] = ms(bd.Update)

	p := out.Pool
	m["relstore.pool_hits_per_visit"] = float64(p.Hits) / visited
	if p.Hits+p.Misses > 0 {
		m["relstore.pool_miss_ratio"] = float64(p.Misses) / float64(p.Hits+p.Misses)
	}
	m["relstore.pool_evictions_per_visit"] = float64(p.Evictions) / visited
	readT, reads := under("relstore.read_page")
	writeT, writes := under("relstore.write_page")
	syncT, syncs := under("relstore.sync")
	m["relstore.disk_reads_per_visit"] = float64(reads) / visited
	m["relstore.disk_writes_per_visit"] = float64(writes) / visited
	if reads > 0 {
		m["relstore.disk_read_us"] = us(readT) / float64(reads)
	}
	if writes > 0 {
		m["relstore.disk_write_us"] = us(writeT) / float64(writes)
	}
	m["relstore.syncs"] = float64(syncs)
	m["relstore.sync_ms"] = ms(syncT)
	m["relstore.checkpoints"] = float64(out.Res.Checkpoints)
	m["relstore.store_kb_per_visit"] = float64(out.StorePages) * relstore.PageSize / 1024 / visited

	m["go.alloc_kb_per_visit"] = float64(out.AllocBytes) / 1024 / visited
	m["go.allocs_per_visit"] = float64(out.AllocObjects) / visited
	m["go.gc_cycles"] = float64(out.GCCycles)
	return m, nil
}

// replay feeds the sampled pages of the traced crawl, one at a time,
// through the public calls of textproc, classifier and linkgraph, timing
// each stage with its own spans. The figures are stage costs on one
// thread, not in-crawl times.
func replay(r *rig, tr *tracer) (map[string]float64, error) {
	var pages []fetched
	for _, f := range r.fetch.successes() {
		if f.Tokens != nil {
			pages = append(pages, f)
		}
	}
	if len(pages) == 0 {
		return nil, fmt.Errorf("traced crawl kept no pages to replay")
	}
	rootID, endRoot := tr.begin("replay", 0, 0)
	defer endRoot()
	db := relstore.Open(relstore.Options{Frames: 4096})
	defer db.Close()
	doc, err := db.CreateTable("DOCUMENT", classifier.DocSchema())
	if err != nil {
		return nil, err
	}
	links, err := linkgraph.New(db, workers)
	if err != nil {
		return nil, err
	}
	model := r.model
	keepWeight := func(e linkgraph.Edge) (float64, error) { return e.WgtFwd, nil }
	batch := make([]classifier.BatchDoc, 0, len(pages))
	for _, f := range pages {
		oid := crawler.OIDOf(f.URL)
		_, end := tr.begin("textproc.tokenize", rootID, oid)
		vec := textproc.VectorOfTokens(f.Tokens)
		end()
		_, end = tr.begin("classifier.classify", rootID, oid)
		post := model.Classify(vec)
		rel := model.Relevance(post)
		_ = model.BestLeaf(post)
		end()
		_, end = tr.begin("classifier.insert_doc", rootID, oid)
		err := classifier.InsertDoc(doc, oid, vec)
		end()
		if err != nil {
			return nil, fmt.Errorf("InsertDoc: %w", err)
		}
		var b linkgraph.Batch
		for _, o := range f.Outlinks {
			if dst := crawler.OIDOf(o); dst != oid {
				b.Add(linkgraph.Edge{Src: oid, SidSrc: f.ServerID, Dst: dst,
					SidDst: crawler.SIDOf(o), WgtFwd: rel, WgtRev: rel})
			}
		}
		_, end = tr.begin("linkgraph.apply", rootID, oid)
		_, err = links.Apply(&b, keepWeight)
		end()
		if err != nil {
			return nil, fmt.Errorf("Apply: %w", err)
		}
		_, end = tr.begin("linkgraph.sweep", rootID, oid)
		err = links.UpdateIncomingFwd(oid, rel)
		end()
		if err != nil {
			return nil, fmt.Errorf("UpdateIncomingFwd: %w", err)
		}
		batch = append(batch, classifier.BatchDoc{DID: oid, Vec: vec})
	}
	for i := 0; i < len(batch); i += replayBatch {
		j := min(i+replayBatch, len(batch))
		_, end := tr.begin("classifier.batch_classify", rootID, 0)
		_, err := model.BulkClassifyStream(batch[i:j], classifier.BulkOptions{})
		end()
		if err != nil {
			return nil, fmt.Errorf("BulkClassifyStream: %w", err)
		}
	}
	n := float64(len(pages))
	perPage := func(name string) float64 {
		d, _ := tr.total(name)
		return us(d) / n
	}
	return map[string]float64{
		"textproc.tokenize_us_per_page":         perPage("textproc.tokenize"),
		"classifier.classify_us_per_page":       perPage("classifier.classify"),
		"classifier.doc_ingest_us_per_page":     perPage("classifier.insert_doc"),
		"classifier.batch_classify_us_per_page": perPage("classifier.batch_classify"),
		"linkgraph.apply_us_per_page":           perPage("linkgraph.apply"),
		"linkgraph.sweep_us_per_page":           perPage("linkgraph.sweep"),
	}, nil
}
