package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// The traced half of a --trace 1 run. Spans are the benchmark's own
// timestamps around its calls into the public API; the same boundaries
// set a pprof "span" label on the simulating goroutine, so the CPU
// profile's samples can be charged to the simulate span alone.

const (
	spanSystem   = "setup_system"
	spanInputs   = "setup_inputs"
	spanSimulate = "simulate"
)

// tracer sets span labels and accumulates runtime/metrics deltas over the
// measured windows, which the benchmark's own goroutine opens and closes.
// A nil tracer (untraced rounds) does nothing.
type tracer struct {
	labels map[string]context.Context

	start                  [4]float64
	allocBytes, allocObjs  float64
	gcSeconds, busySeconds float64
}

func newTracer() *tracer {
	t := &tracer{labels: map[string]context.Context{}}
	for _, s := range []string{spanSystem, spanInputs, spanSimulate} {
		t.labels[s] = pprof.WithLabels(context.Background(), pprof.Labels("span", s))
	}
	return t
}

// label marks the calling goroutine as inside span.
func (t *tracer) label(span string) {
	if t != nil {
		pprof.SetGoroutineLabels(t.labels[span])
	}
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime returns allocated bytes, allocated objects, GC CPU seconds
// and busy (non-idle) CPU seconds so far.
func readRuntime() [4]float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return [4]float64{val(0), val(1), val(2), val(3) - val(4)}
}

// begin and end bracket one measured window (a simulate span, or a whole
// sweep round); windows must not overlap.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	t.start = readRuntime()
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := readRuntime()
	t.allocBytes += now[0] - t.start[0]
	t.allocObjs += now[1] - t.start[1]
	t.gcSeconds += now[2] - t.start[2]
	t.busySeconds += now[3] - t.start[3]
}

// perLayer runs half the budget untraced and half traced, and reports the
// per-layer metrics.
func perLayer(b bench, budget time.Duration, log io.Writer) (*report, error) {
	untraced, err := phase(b, budget/2, 2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	// The profile samples at pprof's default 100 Hz: faster rates are
	// silently capped by the kernel's timer tick on common Linux builds,
	// which would undercount every layer.
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := phase(b, budget/2, 2, tr)
	pprof.StopCPUProfile()
	pprof.SetGoroutineLabels(context.Background())
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := verify(b, untraced, traced); err != nil {
		return nil, err
	}

	rep := newReport(append(append([]round(nil), untraced...), traced...))
	var cycles int64
	var jobs int
	var simulateCPU time.Duration
	var spans [3][]float64
	for _, r := range traced {
		for _, s := range r.samples {
			cycles += s.cycles
			simulateCPU += s.simulateCPU
			jobs++
			spans[0] = append(spans[0], s.setupSystem.Seconds())
			spans[1] = append(spans[1], s.setupInputs.Seconds())
			spans[2] = append(spans[2], s.simulate.Seconds())
		}
	}
	simNs, allNs := map[string]float64{}, map[string]float64{}
	var simSum float64
	for _, s := range samples {
		l := layerOf(s.stack)
		allNs[l] += float64(s.ns)
		if s.span == spanSimulate {
			simNs[l] += float64(s.ns)
			simSum += float64(s.ns)
		}
	}
	perCycle := func(x float64) float64 { return div(x, float64(cycles)) }
	for _, l := range hostLayers {
		rep.set(l+".host_ns_per_cycle", perCycle(simNs[l]), "ns")
	}
	rep.set("experiments.host_s_per_job", div(allNs["experiments"]/1e9, float64(jobs)), "s")
	rep.set("span.setup_system_s", median(spans[0]), "s")
	rep.set("span.setup_inputs_s", median(spans[1]), "s")
	rep.set("span.simulate_s", median(spans[2]), "s")
	rep.set("runtime.alloc_bytes_per_cycle", perCycle(tr.allocBytes), "B")
	rep.set("runtime.alloc_objects_per_cycle", perCycle(tr.allocObjs), "count")
	rep.set("runtime.gc_cpu_frac", div(tr.gcSeconds, tr.busySeconds), "ratio")
	ref, memoHits := b.reference()
	for _, m := range modelled {
		rep.set(m.name, m.value(ref), m.unit)
	}
	rep.set("experiments.memo_hit_frac", memoHits, "ratio")
	overhead := div(median(each(untraced, cyclesPerSimSecond)), median(each(traced, cyclesPerSimSecond))) - 1
	rep.set("trace.overhead_frac", overhead, "ratio")
	rep.set("experiments.pool_busy_frac", median(each(traced, poolBusy)), "ratio")
	// The profile's samples labelled simulate should add up to the CPU
	// time of the simulate spans, within the measured tracing overhead
	// or the sampling error of that many samples (two standard errors).
	gap := div(simSum, float64(simulateCPU.Nanoseconds())) - 1
	rep.set("trace.layer_sum_gap_frac", gap, "ratio")
	tolerance := math.Max(math.Abs(overhead), 2/math.Sqrt(simSum/1e7))
	verdict := "within"
	if math.Abs(gap) > tolerance {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(log, "perfbench: per-layer host time sums to %.3fs of %.3fs simulate-span CPU time: gap %+.3f, %s tolerance %.3f (trace overhead %+.3f)\n",
		simSum/1e9, simulateCPU.Seconds(), gap, verdict, tolerance, overhead)
	rep.set("failed_run_frac", div(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	return rep, nil
}

// poolBusy is the share of the host's CPUs a round kept busy: process CPU
// time over wall time times the CPU count. On the sweep it shows a worker
// pool that idles, which the CPU-time throughput does not.
func poolBusy(r round) float64 {
	return div(r.cpu.Seconds(), float64(runtime.NumCPU())*r.wall.Seconds())
}
