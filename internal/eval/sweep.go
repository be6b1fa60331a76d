package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"focus/internal/classifier"
	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/webgraph"
)

// SweepScalingConfig drives the incoming-weight sweep study: the same
// link-heavy focused crawl run at several LINK stripe counts at a fixed
// worker count. The per-visit UpdateIncomingFwd is dst-routed — it locks
// and descends only the stripes holding edges into the visited page — so
// its cost should stay flat in stripe count, the striping that exists for
// parallelism; the study shows whether it does.
//
// The study runs in the paper's disk-resident regime, like the Figure 8
// experiments: a buffer pool sized well below the crawl's working set plus
// simulated per-page-I/O latency, the setting the 1999 system actually
// lived in (its crawl graphs exceeded the memory shared with classifier
// and distiller). That is where a sweep probing edge-free stripes would
// hurt most — every such probe drags a stripe's bydst pages through the
// pool — so saved descents show up as saved page reads, not just saved
// memcpys.
type SweepScalingConfig struct {
	Web     webgraph.Config
	Topic   string
	Seeds   int
	Budget  int64
	Workers int
	// Stripes lists the LinkStripes values to sweep (default 1, 8, 32, 128).
	Stripes []int
	// Frames sizes the buffer pool (default max(128, Budget/5) 4 KiB
	// frames — deliberately far below the crawl's working set so bydst
	// descents miss; see above).
	Frames int
	// DiskLatency is the simulated per-page-I/O delay (default 5µs). The
	// wall cost of a miss is dominated by sleep granularity rather than
	// the configured value, so treat absolute pages/sec as
	// regime-relative; the trend across stripe counts, the probes per
	// sweep and the I/O counts are the meaningful outputs.
	DiskLatency time.Duration
	// DBPath, when set, backs each run's crawl relations with a real
	// durable file (one per leg, "<DBPath>.s<stripes>", removed
	// after measurement) instead of the latency-simulated memory disk:
	// page I/O is then genuine file I/O. Durable legs run the no-steal
	// pool, so Frames is clamped up to 2048 and the crawl checkpoints
	// every 200 visits to keep the dirtied working set bounded; the
	// checkpoint writes are part of what the reads/writes columns report.
	DBPath string
}

func (c SweepScalingConfig) withDefaults() SweepScalingConfig {
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
	if len(c.Stripes) == 0 {
		c.Stripes = []int{1, 8, 32, 128}
	}
	if c.Frames <= 0 {
		c.Frames = int(c.Budget / 5)
		if c.Frames < 128 {
			c.Frames = 128
		}
	}
	if c.DiskLatency == 0 {
		c.DiskLatency = 5 * time.Microsecond
	} else if c.DiskLatency < 0 {
		c.DiskLatency = 0 // explicit zero: no simulated disk pause
	}
	if c.Web.NumPages <= 0 {
		// A small page population with LinkHeavyWeb's hub density: the
		// CRAWL relation stays pool-resident while the LINK relation — the
		// biggest relation on this workload — dominates the I/O working
		// set, so the study isolates what the sweep itself costs. The
		// caller's seed and topic weighting survive the substitution.
		tw := c.Web.TopicWeights
		c.Web = LinkHeavyWeb(c.Web.Seed, 1500)
		if tw != nil {
			c.Web.TopicWeights = tw
		}
	}
	return c
}

// SweepScalingPoint is one crawl's measurement at a fixed stripe count.
type SweepScalingPoint struct {
	Stripes     int           `json:"stripes"`
	Visited     int64         `json:"visited"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	PagesPerSec float64       `json:"pages_per_sec"`
	// Sweeps counts UpdateIncomingFwd calls (one per visit plus barrier
	// drains); StripeProbes the stripe locks + bydst descents they cost.
	Sweeps         int64   `json:"sweeps"`
	StripeProbes   int64   `json:"stripe_probes"`
	ProbesPerSweep float64 `json:"probes_per_sweep"`
	// DiskReads counts page reads during the crawl. DiskWrites counts page
	// writes; on
	// the memory disk those are pool write-backs, on a DBPath file they
	// are checkpoint flushes plus write-backs.
	DiskReads  int64 `json:"disk_reads"`
	DiskWrites int64 `json:"disk_writes"`
}

// SweepScalingResult carries the study.
type SweepScalingResult struct {
	Workers int                 `json:"workers"`
	Frames  int                 `json:"frames"`
	Points  []SweepScalingPoint `json:"points"`
}

// RunSweepScaling measures focused-crawl throughput, sweep probe counts,
// and page reads as the LINK stripe count grows, one fresh system per run over the same synthetic web. The system is composed
// by hand (as RunDistillerPerf does) so the buffer pool and disk latency
// are under the study's control; latency applies to the crawl only, not to
// web generation or classifier training.
func RunSweepScaling(cfg SweepScalingConfig) (*SweepScalingResult, error) {
	cfg = cfg.withDefaults()
	web, err := webgraph.Generate(cfg.Web)
	if err != nil {
		return nil, err
	}
	run := func(stripes int) (SweepScalingPoint, error) {
		web.ResetFetches()
		tree := web.Cfg.Tree
		node := tree.ByName(cfg.Topic)
		if node == nil {
			return SweepScalingPoint{}, fmt.Errorf("eval: unknown topic %q", cfg.Topic)
		}
		if tree.Mark(node.ID) != taxonomy.MarkGood {
			if err := tree.MarkGood(node.ID); err != nil {
				return SweepScalingPoint{}, err
			}
		}
		ccfg := crawler.Config{
			Workers:       cfg.Workers,
			LinkStripes:   stripes,
			MaxFetches:    cfg.Budget,
			SkipDocuments: true,
		}
		var db, trainDB *relstore.DB
		var mem *relstore.MemDisk
		if cfg.DBPath != "" {
			path := fmt.Sprintf("%s.s%d", cfg.DBPath, stripes)
			frames := cfg.Frames
			if frames < 2048 {
				frames = 2048 // no-steal pool: the dirtied set must fit
			}
			db, err = relstore.CreateFile(path, relstore.Options{Frames: frames})
			if err != nil {
				return SweepScalingPoint{}, err
			}
			defer os.Remove(path)
			defer db.Close()
			trainDB = relstore.Open(relstore.Options{Frames: cfg.Frames})
			ccfg.CheckpointEvery = 200
		} else {
			mem = relstore.NewMemDisk()
			db = relstore.Open(relstore.Options{Disk: mem, Frames: cfg.Frames})
			trainDB = db
		}
		examples := classifier.Examples{}
		for _, leaf := range tree.Leaves() {
			examples[leaf.ID] = web.ExampleDocs(leaf.ID, 25)
		}
		model, err := classifier.Train(trainDB, tree, examples, classifier.TrainConfig{})
		if err != nil {
			return SweepScalingPoint{}, err
		}
		cr, err := crawler.New(db, model, core.NewFetcher(web), ccfg)
		if err != nil {
			return SweepScalingPoint{}, err
		}
		if err := cr.Seed(web.Seeds(node.ID, cfg.Seeds)); err != nil {
			return SweepScalingPoint{}, err
		}
		db.Disk().Stats().Reset()
		if mem != nil {
			mem.SetLatency(cfg.DiskLatency)
		}
		res, err := cr.Run()
		if mem != nil {
			mem.SetLatency(0)
		}
		if err != nil {
			return SweepScalingPoint{}, err
		}
		sweeps, probes := cr.Links().SweepStats()
		reads, writes := db.Disk().Stats().Snapshot()
		st := SweepScalingPoint{
			Stripes:      stripes,
			Visited:      res.Visited,
			Elapsed:      res.Elapsed,
			Sweeps:       sweeps,
			StripeProbes: probes,
			DiskReads:    reads,
			DiskWrites:   writes,
		}
		if res.Elapsed > 0 {
			st.PagesPerSec = float64(res.Visited) / res.Elapsed.Seconds()
		}
		if sweeps > 0 {
			st.ProbesPerSweep = float64(probes) / float64(sweeps)
		}
		return st, nil
	}
	out := &SweepScalingResult{Workers: cfg.Workers, Frames: cfg.Frames}
	for _, stripes := range cfg.Stripes {
		p, err := run(stripes)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// PointAt returns the point measured at the given stripe count, if any.
func (r *SweepScalingResult) PointAt(stripes int) (SweepScalingPoint, bool) {
	for _, p := range r.Points {
		if p.Stripes == stripes {
			return p, true
		}
	}
	return SweepScalingPoint{}, false
}

// WriteJSON emits the study as indented JSON — the BENCH_sweep.json
// artifact CI archives so the sweep-cost trajectory is machine-readable
// across commits.
func (r *SweepScalingResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints the sweep table plus the headline flatness line.
func (r *SweepScalingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Incoming-weight sweep scaling (%d workers, link-heavy web, %d-frame pool)\n",
		r.Workers, r.Frames)
	fmt.Fprintf(w, "%8s %8s %10s %12s %12s %10s %10s\n",
		"stripes", "visited", "elapsed", "pages/sec", "probes/sweep", "reads", "writes")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %8d %10s %12.1f %12.2f %10d %10d\n",
			p.Stripes, p.Visited, rnd(p.Elapsed),
			p.PagesPerSec, p.ProbesPerSweep, p.DiskReads, p.DiskWrites)
	}
	if p8, ok8 := r.PointAt(8); ok8 {
		if p32, ok32 := r.PointAt(32); ok32 && p8.PagesPerSec > 0 {
			fmt.Fprintf(w, "pages/sec at 32 stripes vs 8: %.2f (1.00 = perfectly flat)\n",
				p32.PagesPerSec/p8.PagesPerSec)
		}
	}
}
