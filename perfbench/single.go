package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/nuba-gpu/nuba"
)

// singleBench measures a one-simulation workload (stream, gather,
// sparse): each round is one nuba.Run with WithLaunches on one goroutine,
// on a freshly built GPU.
type singleBench struct {
	ctx      context.Context
	name     string
	seed     int64
	cfg      nuba.Config
	log      io.Writer
	ref      digest
	refStats *nuba.Stats
}

func newSingleBench(ctx context.Context, name string, seed int64, log io.Writer) (*singleBench, error) {
	cfg, err := workloadConfig()
	if err != nil {
		return nil, err
	}
	return &singleBench{ctx: ctx, name: name, seed: seed, cfg: cfg, log: log}, nil
}

// simulate runs the workload once (under the default engine unless opts
// select another), timing the spans around the calls. Nothing else runs
// in the process meanwhile, so the spans' CPU time is the process's: it
// holds the simulation's work on every thread, garbage collection
// included.
func (b *singleBench) simulate(tr *tracer, opts ...nuba.RunOption) (sample, *nuba.Result, error) {
	var s sample
	var t0, t1, t2 time.Time
	var c2 time.Duration
	build := func(sys *nuba.System) ([]*nuba.Launch, error) {
		t1 = time.Now()
		tr.label(spanInputs)
		p, err := genProgram(b.name, b.seed, 0)
		if err != nil {
			return nil, err
		}
		ls, err := p.launches(sys.NewBuffer)
		tr.label(spanSimulate)
		tr.begin()
		t2, c2 = time.Now(), cpuTime(clockProcessCPU)
		return ls, err
	}
	tr.label(spanSystem)
	t0, c0 := time.Now(), cpuTime(clockProcessCPU)
	res, err := nuba.Run(b.ctx, b.cfg, nuba.Benchmark{Abbr: b.name}, append(opts, nuba.WithLaunches(build))...)
	t3, c3 := time.Now(), cpuTime(clockProcessCPU)
	tr.end()
	s.setupSystem, s.setupInputs, s.simulate = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	s.setupCPU, s.simulateCPU = c2-c0, c3-c2
	if res != nil {
		s.cycles = res.Stats.Cycles
	}
	return s, res, err
}

func (b *singleBench) round(tr *tracer) (round, error) {
	t0, c0 := time.Now(), cpuTime(clockProcessCPU)
	s, res, err := b.simulate(tr)
	return round{samples: []sample{s}, wall: time.Since(t0), cpu: cpuTime(clockProcessCPU) - c0, attempted: 1, out: outcome(res, err)}, nil
}

func (b *singleBench) prepare() error {
	_, res, err := b.simulate(nil, nuba.WithEngine(nuba.EngineNaive))
	out := outcome(res, err)
	ref, ok := out.(digest)
	if !ok {
		return fmt.Errorf("%s: naive reference: %v", b.name, out)
	}
	b.ref, b.refStats = ref, res.Stats
	fmt.Fprintf(b.log, "perfbench: %s seed %d: naive reference %d cycles, digest %s\n", b.name, b.seed, res.Stats.Cycles, b.ref.short())
	return nil
}

func (b *singleBench) check(r *round) {
	if why := failure(r.out, b.ref); why != "" {
		fmt.Fprintf(b.log, "perfbench: %s seed %d: FAILED: %s\n", b.name, b.seed, why)
		r.samples, r.failed = nil, 1
	}
}

func (b *singleBench) reference() (*nuba.Stats, float64) { return b.refStats, 0 }
