package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/experiments"
)

// spec is everything one workload hands the simulator at one seed.
type spec struct {
	Config   nuba.Config
	Programs []program
}

// generate returns every input the workload hands the simulator at a
// seed: its configuration and its programs.
func generate(name string, seed int64) (*spec, error) {
	n, err := programCount(name)
	if err != nil {
		return nil, err
	}
	cfg, err := workloadConfig()
	if err != nil {
		return nil, err
	}
	s := &spec{Config: cfg}
	for i := 0; i < n; i++ {
		p, err := genProgram(name, seed, i)
		if err != nil {
			return nil, err
		}
		s.Programs = append(s.Programs, p)
	}
	return s, nil
}

// describe renders everything a seed hands the simulator: the config,
// the kernel text and launch parameters, and the launches as built (with
// the kernels' compiled form and samples of every value model).
func describe(t *testing.T, name string, seed int64) string {
	t.Helper()
	s, err := generate(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%#v\n", s.Config.Fingerprint(), s.Programs)
	for _, p := range s.Programs {
		next := uint64(1 << 40)
		ls, err := p.launches(func(size uint64) uint64 { base := next; next += size + 4096; return base })
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ls {
			fmt.Fprintf(&b, "%#v %d %d %v\n", *l.Kernel, l.GridDim, l.CTAThreads, l.Scalars)
			for _, bd := range l.Buffers {
				fmt.Fprintf(&b, "  %#x %d", bd.Base, bd.Size)
				if bd.Value != nil {
					for i := int64(0); i < 4; i++ {
						fmt.Fprintf(&b, " %d", bd.Value(i*977))
					}
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, b := describe(t, name, 7), describe(t, name, 7)
		if a != b {
			t.Errorf("%s: two generations at seed 7 differ", name)
		}
		if describe(t, name, 8) == a {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", name)
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestHeldOutSeed runs the command on a seed used nowhere else, in both
// modes, and checks it prints exactly the metrics BENCHMARK.json names.
func TestHeldOutSeed(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for trace, want := range [][]string{endToEnd, perLayer} {
		var out, log bytes.Buffer
		args := []string{"--workload", "sparse", "--seed", "90210", "--seconds", "1", "--trace", fmt.Sprint(trace)}
		if code := run(args, &out, &log); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, code, log.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Errorf("trace %d: correct %v attempted %d failed %d\n%s", trace, rep.Correct, rep.Attempted, rep.Failed, log.String())
		}
		var got []string
		for k := range rep.Metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("trace %d: metrics\n%v\nwant\n%v", trace, got, want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "sparse", "--seconds", "0"},
		{"--workload", "sparse", "--trace", "2"},
	} {
		var out, log bytes.Buffer
		if code := run(args, &out, &log); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestChargingRules folds one canned stack per rule.
func TestChargingRules(t *testing.T) {
	const m = repoModule + "/internal/"
	for _, c := range []struct {
		want  string
		stack []string
	}{
		// Rule 1: a wake-hint method anywhere in the stack, even below
		// an inner repository frame, and in generic or closure form.
		{"engine", []string{"runtime.memmove", m + "sim.(*Queue[go.shape.*uint8]).Len", m + "llc.(*Slice).NextEvent", m + "core.(*GPU).quiet"}},
		{"engine", []string{m + "sim.(*Link[go.shape.*github.com/nuba-gpu/nuba/internal/sim.MemReq]).Pending", m + "core.(*GPU).quiet"}},
		{"engine", []string{m + "smcore.(*SM).NextWake.func1", m + "smcore.(*SM).NextWake"}},
		// Rule 2: the innermost repository frame's module.
		{"smcore", []string{"runtime.mallocgc", "runtime.newobject", m + "smcore.(*SM).newReq", m + "core.(*GPU).step"}},
		{"sim", []string{m + "sim.(*Queue[go.shape.*uint8]).Push", m + "noc.(*Crossbar).Tick"}},
		{"experiments", []string{"runtime.chanrecv", m + "experiments.(*Runner).Prefetch.func1"}},
		{"other", []string{m + "energy.Compute", m + "core.(*GPU).collect"}},
		{"other", []string{repoModule + ".execute", repoModule + ".Run"}},
		{"other", []string{"fmt.Sprintf", "main.genProgram"}},
		// Not a wake hint: a function, not a method, of that name.
		{"kir", []string{m + "kir.Pending", m + "core.(*GPU).step"}},
		// Rule 3: no repository frame.
		{"runtime", []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spinFor(d time.Duration) (n int) {
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseProfile decodes a real runtime/pprof CPU profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("span", spanSimulate), func(context.Context) { spinFor(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled, spin int64
	for _, s := range samples {
		if s.span == spanSimulate {
			labelled += s.ns
		}
		for _, fn := range s.stack {
			if fn == "github.com/nuba-gpu/nuba/perfbench.spinFor" || fn == "main.spinFor" {
				if layerOf(s.stack) == "other" {
					spin += s.ns
				}
				break
			}
		}
	}
	if labelled < int64(100*time.Millisecond) || spin < int64(100*time.Millisecond) {
		t.Errorf("300ms labelled spin decoded as %v labelled, %v in spinFor (%d samples)", time.Duration(labelled), time.Duration(spin), len(samples))
	}
}

func TestDigestNamesFirstDifference(t *testing.T) {
	cfg, err := workloadConfig()
	if err != nil {
		t.Fatal(err)
	}
	p, err := genProgram("sweep", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nuba.Run(context.Background(), cfg, nuba.Benchmark{}, nuba.WithLaunches(func(sys *nuba.System) ([]*nuba.Launch, error) {
		return p.launches(sys.NewBuffer)
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(res)
	if d := digestOf(res).diff(want); d != "" {
		t.Fatalf("digest differs from itself: %s", d)
	}
	res.Stats.DRAMWrites++
	if d := digestOf(res).diff(want); !strings.HasPrefix(d, "Stats.DRAMWrites: ") {
		t.Errorf("diff = %q, want the DRAMWrites field", d)
	}
	if failure(outcome(res, nil), want) == "" {
		t.Error("a changed statistic passed the correctness gate")
	}
}

func TestSweepCheck(t *testing.T) {
	ref := &nuba.Stats{Cycles: 1000}
	done := func(abbr string, cycles int64) *job {
		return &job{
			ev:     experiments.Event{Config: "C", Bench: abbr, Cycles: cycles, IPC: ref.IPC(), LocalFrac: ref.LocalFraction()},
			sample: sample{simulate: time.Millisecond, cycles: cycles},
		}
	}
	b := &sweepBench{log: io.Discard, jobs: make([]experiments.Job, 2), ref: map[string]*nuba.Stats{"C|G00": ref, "C|G01": ref}, text: "naive report"}
	for _, c := range []struct {
		name         string
		out          sweepOut
		failed, kept int
	}{
		{"match", sweepOut{text: "naive report", jobs: []*job{done("G00", 1000), done("G01", 1000)}}, 0, 2},
		{"cycles differ", sweepOut{text: "naive report", jobs: []*job{done("G00", 1000), done("G01", 1001)}}, 1, 1},
		{"job missing", sweepOut{text: "naive report", jobs: []*job{done("G00", 1000)}}, 1, 1},
		{"report differs", sweepOut{text: "other report", jobs: []*job{done("G00", 1000), done("G01", 1000)}}, 2, 0},
	} {
		r := round{attempted: 2, out: c.out}
		b.check(&r)
		if r.failed != c.failed || len(r.samples) != c.kept {
			t.Errorf("%s: failed %d, kept %d samples; want %d and %d", c.name, r.failed, len(r.samples), c.failed, c.kept)
		}
	}
}
