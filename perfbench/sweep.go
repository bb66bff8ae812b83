package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/nuba-gpu/nuba"
	"github.com/nuba-gpu/nuba/internal/experiments"
	"github.com/nuba-gpu/nuba/internal/kir"
	"github.com/nuba-gpu/nuba/internal/workload"
)

// sweepBench measures the sweep workload: each round renders fig11 and
// fig12 over the seeded programs through a fresh experiments.Runner with
// Jobs = the host's CPU count, so the memo starts empty every round.
//
// The runner hands back rendered reports and per-job completion events,
// not Results. So every round's reports must equal the reports a
// naive-engine runner renders, and each job is checked on what its event
// carries (cycles, IPC, local fraction) against a naive-engine run of the
// same (configuration, program).
type sweepBench struct {
	ctx   context.Context
	seed  int64
	log   io.Writer
	exps  []experiments.Experiment
	jobs  []experiments.Job      // the distinct jobs the two figures plan
	cells int                    // figure cells the two experiments request per round
	ref   map[string]*nuba.Stats // naive reference by configuration name | program
	text  string                 // the naive engine's reports
}

// sweepOut is what a round keeps for the check.
type sweepOut struct {
	text     string
	jobs     []*job
	failures []experiments.JobFailure
}

func newSweepBench(ctx context.Context, seed int64, log io.Writer) (*sweepBench, error) {
	b := &sweepBench{ctx: ctx, seed: seed, log: log, ref: map[string]*nuba.Stats{}}
	for _, name := range []string{"fig11", "fig12"} {
		e, err := experiments.ByName(name)
		if err != nil {
			return nil, err
		}
		b.exps = append(b.exps, e)
	}
	plan := experiments.NewRunner(experiments.Options{Benchmarks: b.benchmarks(nil), Scale: gpuScale})
	fingerprints := map[string]string{}
	for _, e := range b.exps {
		for _, j := range e.Plan(plan) {
			b.cells++
			key := j.Config.Name() + "|" + j.Bench.Abbr
			fp := j.Config.Fingerprint()
			if prev, ok := fingerprints[key]; ok {
				if prev != fp {
					return nil, fmt.Errorf("sweep: two configurations share the name %s", j.Config.Name())
				}
				continue
			}
			fingerprints[key] = fp
			b.jobs = append(b.jobs, j)
		}
	}
	return b, nil
}

// benchmarks returns the seeded programs as suite entries whose builders
// generate their own input; spans, when non-nil, times each job.
func (b *sweepBench) benchmarks(spans *jobSpans) []nuba.Benchmark {
	var out []nuba.Benchmark
	for i := 0; i < sweepPrograms; i++ {
		i, abbr := i, fmt.Sprintf("G%02d", i)
		out = append(out, nuba.Benchmark{Name: "sweep " + abbr, Abbr: abbr, Build: func(alloc workload.Alloc) ([]*kir.Launch, error) {
			j := spans.built()
			p, err := genProgram("sweep", b.seed, i)
			if err != nil {
				return nil, err
			}
			ls, err := p.launches(alloc)
			spans.simulating(j)
			return ls, err
		}})
	}
	return out
}

// render executes both experiments on r and returns their reports.
func (b *sweepBench) render(r *experiments.Runner) (string, error) {
	var text string
	for _, e := range b.exps {
		rep, err := r.Execute(b.ctx, e)
		if err != nil {
			return "", fmt.Errorf("sweep: %s: %w", e.Name, err)
		}
		text += rep.Text
	}
	return text, nil
}

func (b *sweepBench) round(tr *tracer) (round, error) {
	spans := &jobSpans{tr: tr, running: map[int]*job{}}
	r := experiments.NewRunner(experiments.Options{
		Benchmarks: b.benchmarks(spans),
		Scale:      gpuScale,
		Jobs:       runtime.NumCPU(),
		Trace:      spans.start,
		OnEvent:    spans.done,
	})
	tr.begin()
	t0, c0 := time.Now(), cpuTime(clockProcessCPU)
	text, err := b.render(r)
	rd := round{wall: time.Since(t0), cpu: cpuTime(clockProcessCPU) - c0, attempted: len(b.jobs)}
	tr.end()
	if err != nil {
		return round{}, err
	}
	for _, j := range spans.finished {
		rd.samples = append(rd.samples, j.sample)
	}
	rd.out = sweepOut{text: text, jobs: spans.finished, failures: r.Failures()}
	return rd, nil
}

// prepare simulates every distinct job once under the naive engine, one
// nuba.RunSuite per configuration, and renders the naive engine's
// reports.
func (b *sweepBench) prepare() error {
	var names []string
	byConfig := map[string][]experiments.Job{}
	for _, j := range b.jobs {
		name := j.Config.Name()
		if byConfig[name] == nil {
			names = append(names, name)
		}
		byConfig[name] = append(byConfig[name], j)
	}
	var cycles int64
	for _, name := range names {
		jobs := byConfig[name]
		var benches []nuba.Benchmark
		for _, j := range jobs {
			benches = append(benches, j.Bench)
		}
		results, err := nuba.RunSuite(b.ctx, jobs[0].Config, benches, nuba.WithEngine(nuba.EngineNaive))
		if err != nil {
			return fmt.Errorf("sweep: naive reference on %s: %w", name, err)
		}
		for i, res := range results {
			if res.System.HitMaxCycles() {
				return fmt.Errorf("sweep: naive reference %s on %s hit MaxCycles", benches[i].Abbr, name)
			}
			b.ref[name+"|"+benches[i].Abbr] = res.Stats
			cycles += res.Stats.Cycles
		}
	}
	naive := experiments.NewRunner(experiments.Options{Benchmarks: b.benchmarks(nil), Scale: gpuScale, Jobs: runtime.NumCPU(), Engine: nuba.EngineNaive})
	text, err := b.render(naive)
	if err != nil {
		return fmt.Errorf("naive reference: %w", err)
	}
	if f := naive.Failures(); len(f) > 0 {
		return fmt.Errorf("sweep: naive reference %s on %s: %s", f[0].Bench, f[0].Config, f[0].Err)
	}
	b.text = text
	fmt.Fprintf(b.log, "perfbench: sweep seed %d: naive reference %d jobs, %d cycles, %d figure cells\n", b.seed, len(b.jobs), cycles, b.cells)
	return nil
}

func (b *sweepBench) check(r *round) {
	out := r.out.(sweepOut)
	fail := func(format string, args ...any) {
		fmt.Fprintf(b.log, "perfbench: sweep seed %d: FAILED: %s\n", b.seed, fmt.Sprintf(format, args...))
		r.failed++
	}
	r.samples = nil
	for _, f := range out.failures {
		fail("%s on %s: %s", f.Bench, f.Config, f.Err)
	}
	for _, j := range out.jobs {
		ref := b.ref[j.ev.Config+"|"+j.ev.Bench]
		switch {
		case ref == nil || j.sample.simulate == 0:
			fail("unplanned or unbuilt job %s on %s", j.ev.Bench, j.ev.Config)
		case j.ev.Cycles != ref.Cycles || j.ev.IPC != ref.IPC() || j.ev.LocalFrac != ref.LocalFraction():
			fail("%s on %s differs from the naive engine: cycles %d/%d ipc %v/%v local %v/%v",
				j.ev.Bench, j.ev.Config, j.ev.Cycles, ref.Cycles, j.ev.IPC, ref.IPC(), j.ev.LocalFrac, ref.LocalFraction())
		default:
			r.samples = append(r.samples, j.sample)
		}
	}
	if missing := r.attempted - len(out.jobs) - len(out.failures); missing > 0 {
		fail("%d planned jobs never completed", missing)
		r.failed += missing - 1
	}
	if out.text != b.text {
		fail("reports differ from the naive engine's")
		r.samples, r.failed = nil, r.attempted
	}
	r.failed = min(r.failed, r.attempted)
}

func (b *sweepBench) reference() (*nuba.Stats, float64) {
	var sum nuba.Stats
	for _, s := range b.ref {
		sum.Add(s)
	}
	return &sum, 1 - float64(len(b.ref))/float64(b.cells)
}

// jobSpans times the runner's jobs. The runner calls its Trace hook on a
// pool worker right before nuba.Run; the job's builder and its
// completion event follow on the same goroutine. start locks that
// goroutine to its thread until the event, so the thread identifies the
// job and its CPU clock times the job's spans. A job that fails sends no
// event and leaves its goroutine locked, which costs the pool only a
// thread.
type jobSpans struct {
	tr       *tracer
	mu       sync.Mutex
	running  map[int]*job // by thread
	finished []*job
}

type job struct {
	ev                  experiments.Event
	start, built, ready time.Time
	startCPU, readyCPU  time.Duration
	sample              sample
}

func (s *jobSpans) start(cfgName, abbr string) *nuba.TraceOptions {
	runtime.LockOSThread()
	s.tr.label(spanSystem)
	j := &job{start: time.Now(), startCPU: cpuTime(clockThreadCPU)}
	s.mu.Lock()
	s.running[syscall.Gettid()] = j
	s.mu.Unlock()
	return nil
}

// built marks entry to a job's builder. The naive reference builds with
// a nil jobSpans and times nothing.
func (s *jobSpans) built() *job {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.tr.label(spanInputs)
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.running[syscall.Gettid()]
	if j != nil {
		j.built = now
	}
	return j
}

func (s *jobSpans) simulating(j *job) {
	if j == nil {
		return
	}
	s.tr.label(spanSimulate)
	j.ready, j.readyCPU = time.Now(), cpuTime(clockThreadCPU)
}

func (s *jobSpans) done(ev experiments.Event) {
	now, cpu := time.Now(), cpuTime(clockThreadCPU)
	tid := syscall.Gettid()
	runtime.UnlockOSThread()
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.running[tid]
	delete(s.running, tid)
	if j == nil || j.ready.IsZero() {
		j = &job{} // never built: the check counts it as failed
	} else {
		j.sample = sample{
			setupSystem: j.built.Sub(j.start), setupInputs: j.ready.Sub(j.built), simulate: now.Sub(j.ready),
			setupCPU: j.readyCPU - j.startCPU, simulateCPU: cpu - j.readyCPU,
			cycles: ev.Cycles,
		}
	}
	j.ev = ev
	s.finished = append(s.finished, j)
}
