package main

import (
	"fmt"
	"os"
	"path/filepath"

	"focus/internal/classifier"
	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/eval"
	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/webgraph"
)

// Every workload crawls for the same topic from the same number of seeds
// with two workers (the size of the 2-core box the baseline was taken on).
const (
	topic   = "cycling"
	seeds   = 20
	workers = 2
)

type diskKind int

const (
	memDisk     diskKind = iota // relstore.NewMemDisk
	fileDisk                    // relstore.OpenFileDisk, ordinary pool
	durableDisk                 // relstore.OpenDurable over a FileDisk
)

// workload is one fixed crawl configuration. Pages and Budget are divided
// by the run's scale (1 for measurement, larger for the smoke test).
type workload struct {
	Name            string
	Why             string
	Web             func(seed int64, pages int) webgraph.Config
	Pages           int
	Budget          int64
	Frames          int
	Disk            diskKind
	ClassifyBatch   int
	DistillEvery    int64
	CheckpointEvery int64
	// Monitor runs the open-loop §3.7 monitor client beside the crawl.
	Monitor bool
}

func defaultWeb(seed int64, pages int) webgraph.Config {
	return webgraph.Config{Seed: seed, NumPages: pages, TopicWeights: map[string]float64{topic: 3}}
}

var workloads = []workload{
	{
		Name:   "link-heavy",
		Why:    "hub-dense web in a pool that fits: B+tree descents, LINK Apply and frontier work dominate, with no pool misses",
		Web:    eval.LinkHeavyWeb,
		Pages:  6000,
		Budget: 1000,
		Frames: 4096,
	},
	{
		Name:          "doc-heavy",
		Why:           "long link-light pages, batched classify: tokenize, classify and DOCUMENT ingest dominate, and DOCUMENT outgrows the 16 MiB pool",
		Web:           eval.DocHeavyWeb,
		Pages:         20000,
		Budget:        2500,
		Frames:        4096,
		ClassifyBatch: 16,
	},
	{
		Name:   "disk-resident",
		Why:    "the link-heavy crawl over a file with a 256-frame pool: the pool's miss path and page I/O dominate",
		Web:    eval.LinkHeavyWeb,
		Pages:  6000,
		Budget: 1000,
		Frames: 256,
		Disk:   fileDisk,
	},
	{
		Name:            "monitored-durable",
		Why:             "durable file with checkpoints every 500 visits, HITS every 300, and an open-loop monitor every 50 ms beside the crawl",
		Web:             defaultWeb,
		Pages:           20000,
		Budget:          1500,
		Frames:          4096,
		Disk:            durableDisk,
		DistillEvery:    300,
		CheckpointEvery: 500,
		Monitor:         true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rig is one freshly set-up system: the trained model, the crawl database
// over a wrapped disk, and a seeded crawler over a wrapped fetcher of the
// generated web.
type rig struct {
	w     workload
	model *classifier.Model
	db    *relstore.DB
	cr    *crawler.Crawler
	fetch *fetchRecorder
	disk  *diskRecorder
	path  string // database file, "" for memory
	ccfg  crawler.Config
}

// setup builds a rig: web generation, training, crawler construction and
// seeding — the set-up the setup_s metric times. dir holds the database
// file of file-backed workloads.
func setup(w workload, seed int64, scale int, dir string, tr *tracer, keepTokensEvery int) (*rig, error) {
	r := &rig{w: w}
	_, end := tr.begin("webgraph.generate", 0, 0)
	web, err := webgraph.Generate(w.Web(seed, w.Pages/scale))
	end()
	if err != nil {
		return nil, fmt.Errorf("generate web: %w", err)
	}
	tree := web.Cfg.Tree
	node := tree.ByName(topic)
	if node == nil {
		return nil, fmt.Errorf("taxonomy has no topic %q", topic)
	}
	if tree.Mark(node.ID) != taxonomy.MarkGood {
		if err := tree.MarkGood(node.ID); err != nil {
			return nil, err
		}
	}

	var base relstore.DurableDisk = relstore.NewMemDisk()
	if w.Disk != memDisk {
		r.path = filepath.Join(dir, w.Name+".db")
		fd, err := relstore.OpenFileDisk(r.path)
		if err != nil {
			return nil, err
		}
		base = fd
	}
	r.disk = &diskRecorder{DurableDisk: base, tr: tr}
	opts := relstore.Options{Disk: r.disk, Frames: w.Frames}
	if w.Disk == durableDisk {
		if r.db, err = relstore.OpenDurable(r.disk, opts); err != nil {
			base.Close()
			r.close()
			return nil, err
		}
	} else {
		r.db = relstore.Open(opts)
	}
	// As in core.NewSystemOnWeb, an in-memory crawl trains into its own
	// DB; a file-backed one trains into a side in-memory DB, so the file
	// and its small pool hold only crawl relations.
	trainDB := r.db
	if w.Disk != memDisk {
		trainDB = relstore.Open(relstore.Options{Frames: 4096})
	}
	_, end = tr.begin("classifier.train", 0, 0)
	examples := classifier.Examples{}
	for _, leaf := range tree.Leaves() {
		examples[leaf.ID] = web.ExampleDocs(leaf.ID, 25)
	}
	r.model, err = classifier.Train(trainDB, tree, examples, classifier.TrainConfig{})
	end()
	if err != nil {
		r.close()
		return nil, fmt.Errorf("train: %w", err)
	}

	r.ccfg = crawler.Config{
		Workers:         workers,
		MaxFetches:      w.Budget / int64(scale),
		ClassifyBatch:   w.ClassifyBatch,
		DistillEvery:    w.DistillEvery / int64(scale),
		CheckpointEvery: w.CheckpointEvery / int64(scale),
	}
	if w.Disk == durableDisk {
		r.ccfg.CheckpointExtra = web.ExportFetchState
	}
	r.fetch = &fetchRecorder{inner: core.NewFetcher(web), tr: tr, keepTokensEvery: keepTokensEvery}
	_, end = tr.begin("crawler.new", 0, 0)
	r.cr, err = crawler.New(r.db, r.model, r.fetch, r.ccfg)
	end()
	if err != nil {
		r.close()
		return nil, fmt.Errorf("new crawler: %w", err)
	}
	_, end = tr.begin("crawler.seed", 0, 0)
	err = r.cr.Seed(web.Seeds(node.ID, seeds))
	end()
	if err != nil {
		r.close()
		return nil, fmt.Errorf("seed: %w", err)
	}
	return r, nil
}

// close releases the database and removes its file.
func (r *rig) close() {
	if r.db != nil {
		r.db.Close()
		r.db = nil
	}
	if r.path != "" {
		os.Remove(r.path)
	}
}
