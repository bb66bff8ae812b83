// Command perfbench is the repository's benchmark. It generates one
// workload's kernels and launches from a seed, simulates them through the
// public API with the default engine, checks every simulation against
// the naive reference engine, and prints the metrics BENCHMARK.json names
// as one JSON object on the last line of standard output.
//
//	go run . --workload stream --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics from untraced runs. --trace 1
// prints the per-layer metrics: half the time runs untraced, half traced
// (spans around the benchmark's calls, pprof labels and a CPU profile
// folded into the repository's modules). README.md in this directory
// maps every metric to its layer and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"github.com/nuba-gpu/nuba"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream, gather, sparse or sweep")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured host seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := programCount(*name); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0 or 1, and no other arguments")
		return 2
	}
	b, err := newBench(context.Background(), *name, *seed, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 0 {
		rep, err = endToEnd(b, budget)
	} else {
		rep, err = perLayer(b, budget, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// sample is one simulation's spans, as the benchmark sees them around its
// own calls: setupSystem from entering the run to entering the launch
// builder, setupInputs the builder (input generation, kernel compile,
// buffer placement), simulate from leaving the builder to the run's
// return. Those three are wall time; setupCPU and simulateCPU are the CPU
// time the simulation spent in the same spans.
type sample struct {
	setupSystem, setupInputs, simulate time.Duration
	setupCPU, simulateCPU              time.Duration
	cycles                             int64
}

// round is one unit of measured work: one simulation, or one sweep.
type round struct {
	samples           []sample
	wall, cpu         time.Duration // wall and process CPU time of the round's jobs
	attempted, failed int
	out               any // what check compares with the reference
}

// bench is a workload to measure. Its naive-engine reference is computed
// once, after the timed rounds, so that neither their timing, setup_s
// nor peak_rss_mb includes it; rounds keep what the check needs.
type bench interface {
	// round runs one measured round under the default engine; tr is nil
	// for untraced rounds.
	round(tr *tracer) (round, error)
	// prepare computes the naive reference.
	prepare() error
	// check compares a round with the reference: it counts the failed
	// simulations and drops their samples.
	check(r *round)
	// reference returns the naive reference's statistics (summed over
	// the sweep's distinct jobs) and the share of figure cells the memo
	// served (0 off the sweep).
	reference() (stats *nuba.Stats, memoHitFrac float64)
}

func newBench(ctx context.Context, name string, seed int64, log io.Writer) (bench, error) {
	if name == "sweep" {
		return newSweepBench(ctx, seed, log)
	}
	return newSingleBench(ctx, name, seed, log)
}

// phase runs rounds until the budget would be overrun (at least
// minRounds), with a collected heap before each so every round starts
// alike.
func phase(b bench, budget time.Duration, minRounds int, tr *tracer) ([]round, error) {
	var rounds []round
	start := time.Now()
	var last time.Duration
	for len(rounds) < minRounds || time.Since(start)+last <= budget {
		runtime.GC()
		t := time.Now()
		r, err := b.round(tr)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		rounds = append(rounds, r)
	}
	return rounds, nil
}

func endToEnd(b bench, budget time.Duration) (*report, error) {
	rounds, err := phase(b, budget, 3, nil)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	if err := verify(b, rounds); err != nil {
		return nil, err
	}
	rep := newReport(rounds)
	rep.set("sim_cycles_per_s", median(each(rounds, cyclesPerSimSecond)), "1/s")
	rep.set("sweep_jobs_per_s", median(each(rounds, jobsPerSecond)), "1/s")
	rep.set("setup_s", median(setups(rounds)), "s")
	rep.set("peak_rss_mb", rss, "MB")
	return rep, nil
}

// verify computes the reference and checks every round against it.
func verify(b bench, sets ...[]round) error {
	if err := b.prepare(); err != nil {
		return err
	}
	for _, rounds := range sets {
		for i := range rounds {
			b.check(&rounds[i])
		}
	}
	return nil
}

func newReport(rounds []round) *report {
	rep := &report{Metrics: map[string]metric{}}
	for _, r := range rounds {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// cyclesPerSimSecond is simulated cycles per CPU second of the simulate
// spans of a round.
func cyclesPerSimSecond(r round) float64 {
	var cycles int64
	var sim time.Duration
	for _, s := range r.samples {
		cycles += s.cycles
		sim += s.simulateCPU
	}
	return float64(cycles) / sim.Seconds()
}

// jobsPerSecond is completed simulations per process CPU second of a
// round.
func jobsPerSecond(r round) float64 { return float64(len(r.samples)) / r.cpu.Seconds() }

// Host time is CPU time: on a shared virtual machine the hypervisor
// withholds the CPU for stretches of a run (steal time), which the wall
// clock counts as the program's. Thread CPU time needs the calling
// goroutine locked to its thread for the span.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", clock, errno))
	}
	return time.Duration(ts.Nano())
}

// each applies f to every round that completed a simulation.
func each(rounds []round, f func(round) float64) []float64 {
	var out []float64
	for _, r := range rounds {
		if len(r.samples) > 0 {
			out = append(out, f(r))
		}
	}
	return out
}

func setups(rounds []round) []float64 {
	var out []float64
	for _, r := range rounds {
		for _, s := range r.samples {
			out = append(out, s.setupCPU.Seconds())
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// outcome is what the check needs of one simulation: its digest, or why
// it failed without one (an error, which a recovered panic and a
// canceled run surface as, or a run stopped at MaxCycles).
func outcome(res *nuba.Result, err error) any {
	switch {
	case err != nil:
		return err.Error()
	case res.System.HitMaxCycles():
		return "hit MaxCycles"
	}
	return digestOf(res)
}

// failure describes why a simulation with outcome out failed, or ""
// when it matches the reference.
func failure(out any, ref digest) string {
	d, ok := out.(digest)
	if !ok {
		return out.(string)
	}
	if x := d.diff(ref); x != "" {
		return "differs from the naive engine at " + x
	}
	return ""
}

// modelled are the per-layer modelled counts: exact functions of a run's
// statistics, so they repeat exactly at a seed.
var modelled = []struct {
	name, unit string
	value      func(s *nuba.Stats) float64
}{
	{"smcore.ipc", "instr/cycle", (*nuba.Stats).IPC},
	{"cache.l1_hit_rate", "ratio", func(s *nuba.Stats) float64 { return ratio(s.L1Hits, s.L1Accesses) }},
	{"noc.remote_frac", "ratio", func(s *nuba.Stats) float64 { return ratio(s.RemoteAccesses, s.LocalAccesses+s.RemoteAccesses) }},
	{"noc.bytes_per_cycle", "B/cycle", func(s *nuba.Stats) float64 { return ratio(s.NoCBytes, s.Cycles) }},
	{"llc.hit_rate", "ratio", (*nuba.Stats).LLCHitRate},
	{"llc.replicated_frac", "ratio", func(s *nuba.Stats) float64 { return ratio(s.ReplicatedAccesses, s.LocalAccesses+s.RemoteAccesses) }},
	{"dram.bursts_per_cycle", "1/cycle", func(s *nuba.Stats) float64 { return ratio(s.DRAMReads+s.DRAMWrites, s.Cycles) }},
	{"dram.row_hit_rate", "ratio", func(s *nuba.Stats) float64 { return ratio(s.DRAMRowHits, s.DRAMRowHits+s.DRAMRowMisses) }},
	{"dram.write_frac", "ratio", func(s *nuba.Stats) float64 { return ratio(s.DRAMWrites, s.DRAMReads+s.DRAMWrites) }},
	{"vm.l1tlb_miss_rate", "ratio", func(s *nuba.Stats) float64 { return ratio(s.TLBMisses, s.TLBAccesses) }},
	{"vm.page_walks_per_kcycle", "1/kcycle", func(s *nuba.Stats) float64 { return 1000 * ratio(s.PageWalks, s.Cycles) }},
	{"mdr.replicating_epoch_frac", "ratio", func(s *nuba.Stats) float64 { return ratio(s.MDREpochsReplicating, s.MDRDecisions) }},
	{"core.avg_mem_latency_cycles", "cycles", (*nuba.Stats).AvgMemLatency},
	{"core.sim_cycles", "cycles", func(s *nuba.Stats) float64 { return float64(s.Cycles) }},
}

func ratio(a, b int64) float64 { return div(float64(a), float64(b)) }

// div is a / b, or 0 when nothing was measured (b == 0).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
