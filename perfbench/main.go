// Command perfbench is the repository's serving benchmark. It replays a
// seeded, closed-loop request sequence against freshly spawned
// cmd/serve (and, for the fleet workload, cmd/gateway) binaries, checks
// every response, and prints the end-to-end metrics; with -trace 1 it
// instead runs the same traffic in-process with spans at the layers'
// public seams and prints the per-layer breakdown.
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Workloads, metrics and their bounds are listed in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, written beside the binaries:
// the printed result plus diagnostics that carry no bound.
type record struct {
	Workload    string             `json:"workload"`
	Why         string             `json:"why"`
	Trace       bool               `json:"trace"`
	Env         envStamp           `json:"env"`
	Ops         int                `json:"ops"`
	Clients     int                `json:"clients"`
	Result      result             `json:"result"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Counters    *counters          `json:"counters,omitempty"`
	Digest      string             `json:"digest,omitempty"`
	Violations  []string           `json:"violations,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// rounds is how many times a run spawns its servers: each round spawns
// a fresh set (one setup_s sample), warms it, and measures the next
// contiguous slice of the sequence, so setup_s is a median and no
// process state outlives one slice.
const rounds = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: design, explore, durable or fleet")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 10, "nominal measured seconds; sets the sequence length")
		trace   = flag.Int("trace", 0, "1 = traced in-process run printing per-layer metrics")
		root    = flag.String("root", ".", "checkout root")
		bin     = flag.String("bin", "", "directory of the prebuilt serve and gateway binaries")
		write   = flag.Bool("write-digests", false, "recompute perfbench/digests.json and exit")
	)
	flag.Parse()
	buildDir := filepath.Join(*root, ".bench_build")
	if *bin == "" {
		*bin = filepath.Join(buildDir, "bin")
	}
	if *write {
		if err := writeDigests(context.Background(), *bin, filepath.Join(*root, "perfbench", "digests.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *seconds > goldenSeconds {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be from 1 to %d, the longest run digests.json covers\n", goldenSeconds)
		os.Exit(2)
	}
	w, err := buildWorkload(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var rec *record
	if *trace == 1 {
		rec, err = runTraced(w, *seed, buildDir)
	} else {
		rec, err = runServed(w, *bin, buildDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Env = stamp(*seed, *bin, "serve", "gateway")
	if err := writeRecord(buildDir, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(os.Stdout, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runServed is the untraced run: in each round, spawn the topology's
// binaries, warm them, replay the round's slice of the sequence, and
// read the processes' CPU and peak RSS; then check every response.
func runServed(w *workload, binDir, buildDir string) (*record, error) {
	ctx := context.Background()
	var template string
	if w.topology == topoDurable {
		var err error
		if template, err = prepareDurable(ctx, w, buildDir); err != nil {
			return nil, err
		}
	}
	runDir := filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)

	ring := walkRing()
	var (
		setups, rss, rates, cpus []float64
		p50s, p90s               []float64
		hashes, walks            []float64
		idles, steals            []float64
		samples                  []sample
		wall                     time.Duration
		win                      window
	)
	for r, chunk := range w.chunks() {
		dataDir := ""
		if template != "" {
			dataDir = filepath.Join(runDir, fmt.Sprint(r))
			if err := copyDir(template, dataDir); err != nil {
				return nil, err
			}
		}
		cal := calibrate(ring)
		hashes, walks = append(hashes, ms(cal.hash)), append(walks, ms(cal.walk))
		got, err := runRound(ctx, w, binDir, dataDir, chunk, &win)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		ok := 0
		for _, s := range got.samples {
			if s.err == "" {
				ok++
			}
		}
		st := summarize(got.samples, got.wall)
		setups = append(setups, got.setup.Seconds())
		rss = append(rss, float64(got.usage.hwmKiB)/1024)
		rates = append(rates, float64(ok)/got.wall.Seconds())
		cpus = append(cpus, ms(got.usage.cpu)/float64(len(chunk)))
		p50s = append(p50s, st[classOptimize].P50)
		p90s = append(p90s, st[classOptimize].P90)
		idles = append(idles, got.host.idle)
		steals = append(steals, got.host.steal)
		samples = append(samples, got.samples...)
		wall += got.wall
	}

	c := win.counters()
	rec := &record{Workload: w.name, Why: w.why, Ops: len(w.ops), Clients: clients(), Counters: &c}
	rec.Violations = checkCounters(w.name, w.ops, c)
	st := summarize(samples, wall)
	failed := 0
	for _, s := range samples {
		if s.err != "" {
			failed++
			if len(rec.Errors) < 10 {
				rec.Errors = append(rec.Errors, s.err)
			}
		}
	}
	bad, err := checkDigests(w.ops, samples)
	if err != nil {
		return nil, err
	}
	rec.Violations = append(rec.Violations, bad...)
	rec.Digest = sequenceDigest(samples)

	// Each metric is the median of its per-round values, so one round
	// disturbed by a neighbour on the host does not move it. The p90 is
	// printed and recorded but not gated: on a 2-CPU VM it follows the
	// host's vCPU wake-up latency (fleet's swings 1.1-2.1 ms between
	// runs of one commit), not the program.
	rec.Result = result{
		Correct:   len(rec.Violations) == 0 && failed == 0,
		Attempted: len(samples),
		Failed:    failed,
		Metrics: map[string]metric{
			"ops_per_s":       {median(rates), "1/s"},
			"optimize_p50_ms": {median(p50s), "ms"},
			"cpu_ms_per_op":   {median(cpus), "ms"},
			"rss_peak_mb":     {median(rss), "MB"},
			"setup_s":         {median(setups), "s"},
		},
	}
	rec.Diagnostics = classDiagnostics(st, failed, len(samples))
	// The host's own figures per round, so drift of the machine shows
	// in the record: the calibration loops just before the round, and
	// the idle and steal shares of all CPUs while it ran.
	rounds := map[string][]float64{"setup_s": setups, "rss_peak_mb": rss,
		"ops_per_s": rates, "cpu_ms_per_op": cpus, "optimize_p50_ms": p50s, "optimize_p90_ms": p90s,
		"host.hash_ms": hashes, "host.walk_ms": walks, "host.idle_share": idles, "host.steal_share": steals}
	for name, v := range rounds {
		for i := range v {
			rec.Diagnostics[fmt.Sprintf("round%d.%s", i, name)] = v[i]
		}
	}
	for _, name := range []string{"host.hash_ms", "host.walk_ms", "host.idle_share", "host.steal_share"} {
		rec.Diagnostics[name] = median(rounds[name])
	}
	rec.Diagnostics["wall_s"] = wall.Seconds()
	return rec, nil
}

// roundResult is what one round measured.
type roundResult struct {
	setup, wall time.Duration
	usage       procUsage // CPU over the measured window; peak RSS at its end
	host        hostShare // the whole machine over the measured window
	samples     []sample
}

// runRound spawns a fresh topology, warms it, replays ops, and adds the
// window's /metrics deltas to win.
func runRound(ctx context.Context, w *workload, binDir, dataDir string, ops []op, win *window) (*roundResult, error) {
	fs, setup, err := spawn(binDir, w.topology, dataDir)
	if err != nil {
		return nil, err
	}
	defer fs.kill()
	if err := warm(ctx, fs.base, w.warmup); err != nil {
		return nil, err
	}
	before, gwBefore, err := scrapeSet(fs)
	if err != nil {
		return nil, err
	}
	u0, err := fs.usage()
	if err != nil {
		return nil, err
	}
	h0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	samples, wall := runLoop(ctx, fs.base, ops, false)
	h1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	u1, err := fs.usage()
	if err != nil {
		return nil, err
	}
	after, gwAfter, err := scrapeSet(fs)
	if err != nil {
		return nil, err
	}
	fs.stop(10 * time.Second)
	win.add(before, after, gwBefore, gwAfter)
	return &roundResult{
		setup: setup, wall: wall, samples: samples,
		usage: procUsage{cpu: u1.cpu - u0.cpu, hwmKiB: u1.hwmKiB},
		host:  h1.since(h0),
	}, nil
}

// classDiagnostics names the per-class latency metrics of the issued
// classes, with the tails and sample counts that carry no bound.
func classDiagnostics(st [numClasses]classStats, failed, attempted int) map[string]float64 {
	d := map[string]float64{"failed_share": float64(failed) / float64(attempted)}
	for c, s := range st {
		if s.Attempted == 0 {
			continue
		}
		name := classNames[c]
		if class(c) == classJob {
			name = "job_turnaround"
			d["job_accept_p50_ms"] = s.AcceptP50
			d["jobs.first_row_p50_ms"] = s.FirstRowP50
		}
		d[name+"_p50_ms"] = s.P50
		d[name+"_p90_ms"] = s.P90
		d[name+"_p99_ms"] = s.P99
		d[name+"_max_ms"] = s.Max
		d[name+"_count"] = float64(s.Attempted)
	}
	return d
}

func scrapeSet(fs *fleetSet) ([]series, series, error) {
	var out []series
	for _, a := range fs.shards {
		s, err := scrape(a)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	if fs.gw == "" {
		return out, nil, nil
	}
	gw, err := scrape(fs.gw)
	return out, gw, err
}

func writeRecord(buildDir string, rec *record) error {
	dir := filepath.Join(buildDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t-%d.json",
		rec.Workload, rec.Env.Seed, rec.Trace, time.Now().UnixNano()))
	return os.WriteFile(path, data, 0o644)
}

// printTable prints every metric by name and unit, then the diagnostics.
func printTable(out io.Writer, rec *record) {
	fmt.Fprintf(out, "workload %s  seed %d  ops %d  clients %d  nproc %d  GOMAXPROCS %d  %s  kernel %s\n",
		rec.Workload, rec.Env.Seed, rec.Ops, rec.Clients, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Kernel)
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(rec.Diagnostics))
	for k := range rec.Diagnostics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", k, rec.Diagnostics[k], diagUnit(k))
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(out, "  VIOLATION:", v)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(out, "  FAILED:", e)
	}
}

func diagUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_per_op"):
		return "ms"
	case strings.HasSuffix(name, "_count"), name == "spans":
		return "count"
	case strings.HasSuffix(name, "ops_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "rss_peak_mb"):
		return "MB"
	case name == "failed_share", strings.HasSuffix(name, "_share"):
		return "1"
	}
	return "s"
}
