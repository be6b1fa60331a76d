package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"focus/internal/classifier"
	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/webgraph"
)

// PoolScalingConfig drives the buffer-pool sharding study: the PR 5
// disk-resident sweep workload (a link-heavy focused crawl against a pool
// sized well below its working set, with simulated page-read latency) run
// at several pool shard counts and pool sizes, plus a cold-B+tree-probe
// microbench over the same grid. The paper's Figure 8(b) sweeps pool size
// because page traffic governs throughput in the disk-resident regime;
// this study measures what the pool's own concurrency costs there. Every
// shard count does its miss I/O off the latch, so independent misses
// overlap even in one shard; more shards split the latch that hits and
// victim selection take.
type PoolScalingConfig struct {
	Web     webgraph.Config
	Topic   string
	Seeds   int
	Budget  int64
	Workers int
	// Shards lists the pool shard counts to sweep (default 1, 4, 16; the
	// 1-point is the baseline every gain is computed against).
	Shards []int
	// Frames lists the pool sizes in 4 KiB frames (default 128, 256 —
	// both far below the crawl's working set). Total frames are equal
	// across shard counts: sharding repartitions, never enlarges.
	Frames []int
	// LinkStripes fixes the LINK store striping (default 32, the PR 5
	// sweet spot; the dst-routed sweep is on, so stripe count itself adds
	// no per-visit cost).
	LinkStripes int
	// DiskLatency is the simulated per-page-I/O delay (default 5µs; as in
	// the sweep study, sleep granularity dominates the configured value,
	// so absolute pages/sec is regime-relative — the sharded/serial ratio
	// and the I/O counts are the signal).
	DiskLatency time.Duration
	// ProbeKeys is the key count per per-worker B+tree in the microbench
	// (default 16384 — a few hundred pages per tree, so probes miss).
	ProbeKeys int
	// Probes is the number of random Get probes per worker (default 1000).
	Probes int
	// DBPath, when set, backs each crawl leg with a real durable file
	// ("<DBPath>.f<frames>.p<shards>", removed after measurement) instead
	// of the latency-simulated memory disk. Durable legs run the no-steal
	// pool, so the leg's frame count is clamped up to 2048 and the crawl
	// checkpoints every 200 visits; the probe microbench stays on the
	// memory disk either way (it has no crawl relations to persist).
	DBPath string
}

func (c PoolScalingConfig) withDefaults() PoolScalingConfig {
	if c.Topic == "" {
		c.Topic = "cycling"
	}
	if c.Seeds <= 0 {
		c.Seeds = 20
	}
	if c.Budget <= 0 {
		c.Budget = 900
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 4, 16}
	}
	if len(c.Frames) == 0 {
		c.Frames = []int{128, 256}
	}
	if c.LinkStripes <= 0 {
		c.LinkStripes = 32
	}
	if c.DiskLatency == 0 {
		c.DiskLatency = 5 * time.Microsecond
	} else if c.DiskLatency < 0 {
		c.DiskLatency = 0 // explicit zero: no simulated disk pause
	}
	if c.ProbeKeys <= 0 {
		c.ProbeKeys = 16384
	}
	if c.Probes <= 0 {
		c.Probes = 1000
	}
	if c.Web.NumPages <= 0 {
		// The sweep study's web: a small page population at hub density,
		// so the LINK relation dominates the I/O working set and the
		// buffer pool is the contended resource.
		tw := c.Web.TopicWeights
		c.Web = LinkHeavyWeb(c.Web.Seed, 1500)
		if tw != nil {
			c.Web.TopicWeights = tw
		}
	}
	return c
}

// PoolCrawlStats is one crawl's measurement at a fixed (frames, shards).
type PoolCrawlStats struct {
	Visited     int64         `json:"visited"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	PagesPerSec float64       `json:"pages_per_sec"`
	// DiskReads/DiskWrites count physical page I/O during the crawl;
	// Hits/Misses are the pool's own counters (misses ≈ reads —
	// single-flight makes them equal up to write-backs).
	DiskReads  int64 `json:"disk_reads"`
	DiskWrites int64 `json:"disk_writes"`
	Hits       int64 `json:"pool_hits"`
	Misses     int64 `json:"pool_misses"`
}

// PoolProbeStats is the cold-B+tree microbench at one (frames, shards):
// Workers goroutines each probing a private tree through one shared pool.
type PoolProbeStats struct {
	Probes       int64         `json:"probes"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	ProbesPerSec float64       `json:"probes_per_sec"`
	DiskReads    int64         `json:"disk_reads"`
}

// PoolScalingPoint is one grid cell of the study.
type PoolScalingPoint struct {
	Frames int            `json:"frames"`
	Shards int            `json:"shards"`
	Crawl  PoolCrawlStats `json:"crawl"`
	Probe  PoolProbeStats `json:"probe"`
	// CrawlGain / ProbeGain are this point's throughput over the
	// single-shard baseline at the same pool size.
	CrawlGain float64 `json:"crawl_gain"`
	ProbeGain float64 `json:"probe_gain"`
}

// PoolScalingResult carries the study.
type PoolScalingResult struct {
	Workers int                `json:"workers"`
	Points  []PoolScalingPoint `json:"points"`
}

// RunPoolScaling measures disk-resident crawl throughput and cold-probe
// throughput as the buffer pool is sharded, at equal total frames. One
// fresh system per crawl over the same synthetic web, as RunSweepScaling
// does; latency applies to the measured phases only, never to web
// generation or classifier training.
func RunPoolScaling(cfg PoolScalingConfig) (*PoolScalingResult, error) {
	cfg = cfg.withDefaults()
	web, err := webgraph.Generate(cfg.Web)
	if err != nil {
		return nil, err
	}
	crawlRun := func(frames, shards int) (PoolCrawlStats, error) {
		web.ResetFetches()
		tree := web.Cfg.Tree
		node := tree.ByName(cfg.Topic)
		if node == nil {
			return PoolCrawlStats{}, fmt.Errorf("eval: unknown topic %q", cfg.Topic)
		}
		if tree.Mark(node.ID) != taxonomy.MarkGood {
			if err := tree.MarkGood(node.ID); err != nil {
				return PoolCrawlStats{}, err
			}
		}
		ccfg := crawler.Config{
			Workers:       cfg.Workers,
			LinkStripes:   cfg.LinkStripes,
			MaxFetches:    cfg.Budget,
			SkipDocuments: true,
		}
		var db, trainDB *relstore.DB
		var mem *relstore.MemDisk
		if cfg.DBPath != "" {
			path := fmt.Sprintf("%s.f%d.p%d", cfg.DBPath, frames, shards)
			legFrames := frames
			if legFrames < 2048 {
				legFrames = 2048 // no-steal pool: the dirtied set must fit
			}
			db, err = relstore.CreateFile(path, relstore.Options{Frames: legFrames, PoolShards: shards})
			if err != nil {
				return PoolCrawlStats{}, err
			}
			defer os.Remove(path)
			defer db.Close()
			trainDB = relstore.Open(relstore.Options{Frames: frames})
			ccfg.CheckpointEvery = 200
		} else {
			mem = relstore.NewMemDisk()
			db = relstore.Open(relstore.Options{Disk: mem, Frames: frames, PoolShards: shards})
			trainDB = db
		}
		examples := classifier.Examples{}
		for _, leaf := range tree.Leaves() {
			examples[leaf.ID] = web.ExampleDocs(leaf.ID, 25)
		}
		model, err := classifier.Train(trainDB, tree, examples, classifier.TrainConfig{})
		if err != nil {
			return PoolCrawlStats{}, err
		}
		cr, err := crawler.New(db, model, core.NewFetcher(web), ccfg)
		if err != nil {
			return PoolCrawlStats{}, err
		}
		if err := cr.Seed(web.Seeds(node.ID, cfg.Seeds)); err != nil {
			return PoolCrawlStats{}, err
		}
		db.Disk().Stats().Reset()
		db.Pool().ResetStats()
		if mem != nil {
			mem.SetLatency(cfg.DiskLatency)
		}
		res, err := cr.Run()
		if mem != nil {
			mem.SetLatency(0)
		}
		if err != nil {
			return PoolCrawlStats{}, err
		}
		reads, writes := db.Disk().Stats().Snapshot()
		pst := db.Pool().Stats()
		st := PoolCrawlStats{
			Visited:    res.Visited,
			Elapsed:    res.Elapsed,
			DiskReads:  reads,
			DiskWrites: writes,
			Hits:       pst.Hits,
			Misses:     pst.Misses,
		}
		if res.Elapsed > 0 {
			st.PagesPerSec = float64(res.Visited) / res.Elapsed.Seconds()
		}
		return st, nil
	}
	probeRun := func(frames, shards int) (PoolProbeStats, error) {
		disk := relstore.NewMemDisk()
		bp := relstore.NewBufferPoolSharded(disk, frames, shards)
		trees := make([]*relstore.BTree, cfg.Workers)
		key := func(w, i int) []byte {
			return relstore.EncodeKey(relstore.I64(int64(w)), relstore.I64(int64(i)))
		}
		for w := range trees {
			tr, err := relstore.NewBTree(bp)
			if err != nil {
				return PoolProbeStats{}, err
			}
			for i := 0; i < cfg.ProbeKeys; i++ {
				rid := relstore.RID{Page: relstore.PageID(i + 1), Slot: uint16(w)}
				if err := tr.Insert(key(w, i), relstore.EncodeRID(rid)); err != nil {
					return PoolProbeStats{}, err
				}
			}
			trees[w] = tr
		}
		// Cool the pool: flush, then rebuild the frames, so every probe run
		// starts with the trees entirely on disk.
		if err := bp.FlushAll(); err != nil {
			return PoolProbeStats{}, err
		}
		if err := bp.Resize(frames); err != nil {
			return PoolProbeStats{}, err
		}
		disk.Stats().Reset()
		disk.SetLatency(cfg.DiskLatency)
		var wg sync.WaitGroup
		errs := make(chan error, cfg.Workers)
		start := time.Now()
		for w := range trees {
			wg.Add(1)
			go func(w int, tr *relstore.BTree) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
				for p := 0; p < cfg.Probes; p++ {
					i := rng.Intn(cfg.ProbeKeys)
					_, ok, err := tr.Get(key(w, i))
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						errs <- fmt.Errorf("eval: probe lost key %d/%d", w, i)
						return
					}
				}
			}(w, trees[w])
		}
		wg.Wait()
		elapsed := time.Since(start)
		disk.SetLatency(0)
		close(errs)
		if err := <-errs; err != nil {
			return PoolProbeStats{}, err
		}
		reads, _ := disk.Stats().Snapshot()
		st := PoolProbeStats{
			Probes:    int64(cfg.Workers) * int64(cfg.Probes),
			Elapsed:   elapsed,
			DiskReads: reads,
		}
		if elapsed > 0 {
			st.ProbesPerSec = float64(st.Probes) / elapsed.Seconds()
		}
		return st, nil
	}
	out := &PoolScalingResult{Workers: cfg.Workers}
	for _, frames := range cfg.Frames {
		var base *PoolScalingPoint
		for _, shards := range cfg.Shards {
			p := PoolScalingPoint{Frames: frames, Shards: shards}
			if p.Crawl, err = crawlRun(frames, shards); err != nil {
				return nil, err
			}
			if p.Probe, err = probeRun(frames, shards); err != nil {
				return nil, err
			}
			out.Points = append(out.Points, p)
			pt := &out.Points[len(out.Points)-1]
			if shards == 1 {
				base = pt
			}
			if base != nil {
				if base.Crawl.PagesPerSec > 0 {
					pt.CrawlGain = pt.Crawl.PagesPerSec / base.Crawl.PagesPerSec
				}
				if base.Probe.ProbesPerSec > 0 {
					pt.ProbeGain = pt.Probe.ProbesPerSec / base.Probe.ProbesPerSec
				}
			}
		}
	}
	return out, nil
}

// PointAt returns the point at the given pool size and shard count, if any.
func (r *PoolScalingResult) PointAt(frames, shards int) (PoolScalingPoint, bool) {
	for _, p := range r.Points {
		if p.Frames == frames && p.Shards == shards {
			return p, true
		}
	}
	return PoolScalingPoint{}, false
}

// WriteJSON emits the study as indented JSON — the BENCH_pool.json artifact
// CI archives so the pool-scaling trajectory is machine-readable across
// commits.
func (r *PoolScalingResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints the grid plus headline gain lines.
func (r *PoolScalingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Buffer-pool sharding (%d workers, disk-resident link-heavy crawl + cold B+tree probes)\n", r.Workers)
	fmt.Fprintf(w, "%8s %7s %8s %12s %10s %10s %8s %14s %10s %8s\n",
		"frames", "shards", "visited", "pages/sec", "reads", "writes", "gain", "probes/sec", "p-reads", "p-gain")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %7d %8d %12.1f %10d %10d %7.2fx %14.0f %10d %7.2fx\n",
			p.Frames, p.Shards, p.Crawl.Visited, p.Crawl.PagesPerSec, p.Crawl.DiskReads,
			p.Crawl.DiskWrites, p.CrawlGain, p.Probe.ProbesPerSec, p.Probe.DiskReads, p.ProbeGain)
	}
}
