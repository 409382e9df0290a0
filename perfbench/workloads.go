package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"multisite/internal/benchdata"
	"multisite/internal/cli"
	"multisite/internal/server"
	"multisite/internal/soc"
)

// class is one request class. Each latency metric covers exactly one
// class, and a workload mixes classes only where each has one cost peak.
type class int

const (
	classOptimize class = iota // POST /v1/optimize
	classSweep                 // POST /v1/sweep, read to the last NDJSON byte
	classJob                   // POST /v1/jobs, then GET .../result to its end
	numClasses
)

var classNames = [numClasses]string{"optimize", "sweep", "job"}

// op is one operation of a workload's request sequence. Bodies are
// generated before the timer starts; the program only ever sees them.
type op struct {
	class class
	path  string
	body  []byte
	rows  int // NDJSON rows a sweep or job result must deliver
}

// workload is one traffic mix: its topology, its fixed seeded request
// sequence, and the distinct requests a warm-up issues before timing.
type workload struct {
	name     string
	why      string
	topology topology
	ops      []op
	warmup   []op
	// prepare lists the requests that build the durable data dir.
	prepare []op
}

// topology is the set of processes a workload runs against.
type topology int

const (
	topoSingle  topology = iota // one in-memory serve
	topoDurable                 // one serve -data-dir over a prepared dir
	topoFleet                   // two serve -peers shards behind a gateway
)

// Shared shapes of the generated traffic.
const (
	designChip     = "d695"    // wrapper tables are 99% of its cold cost
	exploreChip    = "pnx8550" // one chip: its hits form a single cost peak
	exploreSweep   = 0.2       // share of explore operations that are sweeps
	sweepRows      = 40        // rows of an explore sweep
	explorePoints  = 48        // distinct explore optimize points
	exploreSweeps  = 4         // distinct explore sweep bases
	durablePoints  = 64        // distinct durable optimize keys
	durableJobs    = 8         // distinct durable sweep-job specs
	durableJobRows = 8         // rows of a durable sweep job
	durableJobMix  = 0.25      // share of durable operations that are jobs
	// durableCacheEntries keeps L1 far below the durable key set, so
	// reads keep falling through to verified disk reads.
	durableCacheEntries = 16
)

var workloadNames = []string{"design", "explore", "durable", "fleet"}

var workloadWhy = map[string]string{
	"design":  "every request uploads a never-seen chip revision, so SOC parse, wrapper tables and Step 1+2 do the work and no cache hits",
	"explore": "warm point optimizes and 40-row sweeps, all byte hits, so the HTTP handler, L1 hits and NDJSON streaming do the work",
	"durable": "L1 smaller than the key set over a prepared data dir, so verified disk reads, journal fsync and the job pool do the work",
	"fleet":   "the explore requests through the gateway to two shards, so only the gateway hop and the ring differ from explore",
}

// nominalRates set the sequence length: a run of S seconds issues
// ceil(S × rate) operations, close to S seconds of work on a 2-CPU host.
// The sequence is then a pure function of (workload, seed, seconds),
// never of the program's speed, so state that grows with traffic is
// identical from run to run.
var nominalRates = map[string]float64{
	"design":  25,
	"explore": 1800,
	"durable": 2000,
	"fleet":   1800, // fleet sends explore's sequence
}

// buildWorkload generates a workload's inputs from the seed alone.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	rate, ok := nominalRates[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	n := int(math.Ceil(float64(seconds) * rate))
	w := &workload{name: name, why: workloadWhy[name]}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "design":
		w.topology = topoSingle
		revs, err := chipRevisions(designChip, n+3)
		if err != nil {
			return nil, err
		}
		rng.Shuffle(len(revs), func(i, j int) { revs[i], revs[j] = revs[j], revs[i] })
		for i, text := range revs {
			o := mustOp(classOptimize, "/v1/optimize", server.ScenarioRequest{SOCText: text}, 0)
			if i < 3 {
				w.warmup = append(w.warmup, o)
			} else {
				w.ops = append(w.ops, o)
			}
		}
	case "explore", "fleet":
		// fleet replays explore's exact sequence so their bodies can be
		// compared byte for byte and their difference is the hop.
		w.topology = topoSingle
		if name == "fleet" {
			w.topology = topoFleet
		}
		points := gridPoints([]int{320, 384, 448, 512}, depthGrid(6<<20, 512<<10, explorePoints/4))
		var opts, sweeps []op
		for _, p := range points {
			opts = append(opts, mustOp(classOptimize, "/v1/optimize",
				server.ScenarioRequest{SOC: exploreChip, Channels: p.channels, Depth: cli.Size(p.depth)}, 0))
		}
		for i := 0; i < exploreSweeps; i++ {
			req := server.SweepRequest{
				ScenarioRequest: server.ScenarioRequest{SOC: exploreChip, Channels: 384 + 32*i},
				Depths:          depthGrid(6<<20, 256<<10, sweepRows),
			}
			sweeps = append(sweeps, mustOp(classSweep, "/v1/sweep", req, sweepRows))
		}
		w.warmup = append(append(w.warmup, opts...), sweeps...)
		for i := 0; i < n; i++ {
			if rng.Float64() < exploreSweep {
				w.ops = append(w.ops, sweeps[rng.Intn(len(sweeps))])
			} else {
				w.ops = append(w.ops, opts[rng.Intn(len(opts))])
			}
		}
	case "durable":
		w.topology = topoDurable
		points := gridPoints([]int{320, 384, 448, 512}, depthGrid(6<<20, 512<<10, durablePoints/4))
		var opts, jobs []op
		for _, p := range points {
			opts = append(opts, mustOp(classOptimize, "/v1/optimize",
				server.ScenarioRequest{SOC: exploreChip, Channels: p.channels, Depth: cli.Size(p.depth)}, 0))
		}
		for i := 0; i < durableJobs; i++ {
			sweep := server.SweepRequest{
				ScenarioRequest: server.ScenarioRequest{SOC: exploreChip, Channels: 320 + 16*i},
				Depths:          depthGrid(int64(7<<20+i*(128<<10)), 1<<20, durableJobRows),
			}
			inner, err := json.Marshal(sweep)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, mustOp(classJob, "/v1/jobs",
				server.JobSubmitRequest{Type: "sweep", Request: inner}, durableJobRows))
		}
		w.prepare = append(append(w.prepare, opts...), jobs...)
		// The warm-up touches code paths only; L1 holds 16 entries, so it
		// cannot pre-warm the measured reads.
		w.warmup = append(w.warmup, opts[0], jobs[0])
		for i := 0; i < n; i++ {
			if rng.Float64() < durableJobMix {
				w.ops = append(w.ops, jobs[rng.Intn(len(jobs))])
			} else {
				w.ops = append(w.ops, opts[rng.Intn(len(opts))])
			}
		}
	}
	return w, nil
}

func mustOp(c class, path string, body any, rows int) op {
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return op{class: c, path: path, body: data, rows: rows}
}

// designRoundOps caps the uploads one design round sends: every upload
// pins its wrapper tables in the server for the life of the process
// (about 8 MB per d695 revision), so a round must stay small.
const designRoundOps = 50

// chunks splits the sequence into contiguous per-round slices.
func (w *workload) chunks() [][]op {
	n := rounds
	if w.name == "design" {
		n = max(n, (len(w.ops)+designRoundOps-1)/designRoundOps)
	}
	var out [][]op
	for r := 0; r < n; r++ {
		if part := w.ops[r*len(w.ops)/n : (r+1)*len(w.ops)/n]; len(part) > 0 {
			out = append(out, part)
		}
	}
	return out
}

type point struct {
	channels int
	depth    int64
}

// gridPoints is every (channels, depth) tester point of the grid. The
// working set is the same for every seed, so the seed changes only the
// order of requests and never the cost of a run.
func gridPoints(channels []int, depths []int64) []point {
	var out []point
	for _, c := range channels {
		for _, d := range depths {
			out = append(out, point{c, d})
		}
	}
	return out
}

func depthGrid(start, step int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*step
	}
	return out
}

// chipRevisions returns the first n revisions of a built-in chip in a
// fixed order, each differing from it in one module's pattern count:
// pass k raises each testable module's count by k in turn. Distinct
// (module, pattern count) pairs guarantee distinct canonical content
// hashes, and the first n are the same for every seed and a prefix of
// every longer run's, so digests.json covers them all.
func chipRevisions(name string, n int) ([]string, error) {
	base := benchdata.Shared(name)
	if base == nil {
		return nil, fmt.Errorf("no built-in chip %q", name)
	}
	var testable []int
	for i, m := range base.Modules {
		if m.Patterns > 0 {
			testable = append(testable, i)
		}
	}
	out := make([]string, 0, n)
	for k := 1; len(out) < n; k++ {
		for _, mi := range testable {
			if len(out) == n {
				break
			}
			chip := *base
			chip.Modules = append([]soc.Module(nil), base.Modules...)
			chip.Modules[mi].Patterns += k
			out = append(out, soc.WriteString(&chip))
		}
	}
	return out, nil
}
