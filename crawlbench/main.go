// Command crawlbench is the repository's benchmark: focused crawls of fixed
// workloads, each on a freshly built system in this process, with the
// crawl's output checked against oracles. It measures only from outside
// the program: it wraps the crawler.Fetcher and relstore disk it hands in,
// reads public statistics, and times its own calls into each layer.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash crawlbench/run.sh --workload link-heavy --seed 1 --seconds 30 --trace 0
//
// --workload all runs every workload in turn. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it reports the per-layer metrics of
// one extra traced repetition, whose spans it writes to
// .bench_out/spans-<workload>.jsonl. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}. A failed
// oracle check makes correct false and the exit status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// heldOutSeed is kept out of tuning: a later change claiming a gain shows
// it on this seed too.
const heldOutSeed = 9001

// minReps is the fewest repetitions a run makes, so set-up time and the
// per-repetition medians rest on several samples.
const minReps = 3

// outDir holds spans, per-run results and scratch database files,
// relative to the working directory (the repository root).
const outDir = ".bench_out"

type options struct {
	seed    int64
	seconds float64
	traced  bool
	scale   int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload's run.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Env       map[string]string      `json:"env"`
	Metrics   map[string]metricValue `json:"metrics"`
	Absent    map[string]string      `json:"absent,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Reps      []repSummary           `json:"reps"`
}

type repSummary struct {
	Seed        int64   `json:"seed"`
	SetupS      float64 `json:"setup_s"`
	RunS        float64 `json:"run_s"`
	RunCPUS     float64 `json:"run_cpu_s"`
	SetupCPUS   float64 `json:"setup_cpu_s"`
	Visited     int64   `json:"visited"`
	Fetches     int64   `json:"fetches"`
	Failed      int64   `json:"failed_fetches"`
	PagesPerSec float64 `json:"pages_per_sec"`
	Harvest     float64 `json:"harvest_rate"`
	Traced      bool    `json:"traced"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crawlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measure for this long per workload")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced repetition")
	scale := fs.Int("scale", 1, "divide web sizes and budgets by this (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := workloadByName(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(stderr, "crawlbench: unknown workload %q\n", *name)
		return 2
	}
	if *scale < 1 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "crawlbench: bad --scale, --seconds or --trace")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: *scale}
	env := envInfo()
	fmt.Fprintf(stdout, "env: go=%s nproc=%s gomaxprocs=%s cpu=%q workers=%d seed=%d held_out_seed=%d\n",
		env["go"], env["nproc"], env["gomaxprocs"], env["cpu"], workers, opt.seed, heldOutSeed)

	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "crawlbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	final := finalLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range list {
		res, err := runWorkload(w, opt, tmp, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "crawlbench: %s: %v\n", w.Name, err)
			return 1
		}
		res.Env = env
		if err := writeJSON(filepath.Join(outDir,
			fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, opt.seed, *trace)), res); err != nil {
			fmt.Fprintf(stderr, "crawlbench: %v\n", err)
			return 1
		}
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(list) > 1 {
				k = w.Name + ":" + k
			}
			final.Metrics[k] = v
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "crawlbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload repeats set-up-and-crawl for about opt.seconds (at least
// minReps times), each repetition on its own web drawn from the
// seed, and reports the end-to-end metrics — or, traced, adds one traced
// repetition and reports its per-layer metrics.
func runWorkload(w workload, opt options, tmp string, stdout io.Writer) (*workloadResult, error) {
	out := &workloadResult{Workload: w.Name, Metrics: map[string]metricValue{}}
	var reps []*repResult
	start := time.Now()
	repSeed := func(k int) int64 { return opt.seed*1000 + int64(k) }
	// After minReps, a repetition starts only if one more of average
	// length still ends within opt.seconds, so a run measures for about
	// opt.seconds instead of overshooting by up to a whole repetition.
	for k := 0; ; k++ {
		if elapsed := time.Since(start); k >= minReps &&
			elapsed+elapsed/time.Duration(k) > time.Duration(opt.seconds*float64(time.Second)) {
			break
		}
		r, err := runRep(w, repSeed(k), opt.scale, tmp, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		out.account(r, repSeed(k))
	}
	sum := summarize(reps)
	fmt.Fprintf(stdout, "workload %s: %d repetitions in %.1fs, seed %d, trace %v\n  why: %s\n",
		w.Name, len(reps), time.Since(start).Seconds(), opt.seed, opt.traced, w.Why)
	loop := "closed loop after each crawl"
	if w.Monitor {
		loop = fmt.Sprintf("open loop every %v during each crawl", monitorPeriod)
	}
	fmt.Fprintf(stdout, "  monitor: %d rounds (%s), %d beyond p95, %d errored, generator late %.3f ms on average\n",
		sum.Samples, loop, sum.Beyond95, sum.Failed, sum.GenLate)
	fmt.Fprintf(stdout, "  wall clock: pages_per_sec %.1f, setup %.3f s (medians)\n", sum.WallPPS, sum.WallSetup)
	fmt.Fprintf(stdout, "  fetches: %d attempts, fetch_fail_frac %.4f\n", sum.Fetches, sum.FailFrac)
	if sum.Beyond95 < 10 {
		fmt.Fprintf(stdout, "  note: fewer than ten rounds lie beyond monitor_p95_ms; read it as a maximum\n")
	}

	if !opt.traced {
		for _, spec := range endToEnd {
			out.Metrics[spec.Name] = metricValue{finite(sum.Metrics[spec.Name]), spec.Unit}
		}
	} else {
		t, err := runRep(w, repSeed(0), opt.scale, tmp, true)
		if err != nil {
			return nil, err
		}
		out.account(t, repSeed(0))
		layers := t.Layers
		var late float64
		for _, rd := range t.Rounds {
			late += ms(rd.Late)
		}
		if len(t.Rounds) > 0 {
			layers["monitor.gen_late_ms"] = late / float64(len(t.Rounds))
		}
		layers["monitor.samples"] = float64(len(t.Rounds))
		tracedPPS := float64(t.Res.Visited) / t.RunCPU.Seconds()
		layers["trace.overhead_frac"] = 1 - tracedPPS/sum.Metrics["pages_per_cpu_sec"]
		out.Absent = map[string]string{}
		for _, spec := range perLayer {
			if why := absentWhy(w, spec.Name, layers); why != "" {
				out.Absent[spec.Name] = why
			}
			out.Metrics[spec.Name] = metricValue{finite(layers[spec.Name]), spec.Unit}
		}
		if err := t.tr.write(filepath.Join(outDir, "spans-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if v, ok := out.Metrics[spec.Name]; ok {
			fmt.Fprintf(stdout, "  %-40s %14.4f %s\n", spec.Name, v.Value, v.Unit)
		}
		if why, ok := out.Absent[spec.Name]; ok {
			fmt.Fprintf(stdout, "  absent: %s reported as 0: %s\n", spec.Name, why)
		}
	}
	for _, f := range out.Failures {
		fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", f)
	}
	return out, nil
}

// account records one repetition: the crawl and each monitor round are
// operations, failed when an oracle check fails or a round errors.
func (out *workloadResult) account(r *repResult, seed int64) {
	out.Reps = append(out.Reps, summarizeRep(r, seed))
	out.Attempted += 1 + len(r.Rounds)
	if len(r.Failures) > 0 {
		out.Failed++
		out.Failures = append(out.Failures, r.Failures...)
	}
	for _, rd := range r.Rounds {
		if rd.Err != nil {
			out.Failed++
			out.Failures = append(out.Failures, "monitor round: "+rd.Err.Error())
		}
	}
}

func summarizeRep(r *repResult, seed int64) repSummary {
	return repSummary{
		Seed: seed, SetupS: r.Setup.Seconds(), RunS: r.Run.Seconds(), RunCPUS: r.RunCPU.Seconds(), SetupCPUS: r.SetupCPU.Seconds(),
		Visited: r.Res.Visited, Fetches: r.Res.Fetches, Failed: r.Res.Failed, PagesPerSec: float64(r.Res.Visited) / r.Run.Seconds(),
		Harvest: r.Harvest, Traced: r.tr != nil,
	}
}

// finite keeps JSON encodable: an errored monitor round makes a latency
// percentile infinite, which is reported as the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// envInfo records the machine every result was measured on.
func envInfo() map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		cpu = "unreadable"
	}
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        cpu,
	}
}
