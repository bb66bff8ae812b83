package main

import (
	"fmt"
	"strings"

	"github.com/nuba-gpu/nuba"
)

// The seeded input generator. A seed draws every workload's parameters
// from ranges that fix the workload's character (which simulator layers
// it loads), so a held-out seed exercises the same layers on different
// addresses, sizes and data. The simulator only ever receives the
// generated kernel text, launches and configuration.

// gpuScale sizes every workload's GPU: NUBAConfig().Scale(0.25) is 16 SMs
// in 8 partitions with LAB placement and MDR replication.
const gpuScale = 0.25

// ctaThreads is the CTA size of the dense workloads (8 warps), as in the
// suite's templates.
const ctaThreads = 256

// rng is a splitmix64 stream: tiny, and identical on every platform and
// Go version, so a seed names the same inputs forever.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	r := &rng{s: uint64(seed)}
	for _, c := range []byte(stream) {
		r.s = mix(r.s ^ uint64(c))
	}
	return r
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// intn draws uniformly from [lo, hi].
func (r *rng) intn(lo, hi int64) int64 { return lo + int64(r.next()%uint64(hi-lo+1)) }

// frac draws uniformly from [lo, hi) on a 1/1024 lattice, so drawn
// ratios print exactly.
func (r *rng) frac(lo, hi float64) float64 { return lo + (hi-lo)*float64(r.next()%1024)/1024 }

// bufSpec is one buffer of a program. A non-zero Salt gives the buffer a
// seeded hashed value model (keys, indices, tree nodes), which makes the
// data-dependent addressing of the gather kernels seed-dependent.
type bufSpec struct {
	Size uint64
	Salt uint64
}

// launchSpec is one kernel launch; Bufs index the program's buffers in
// the kernel's pointer-parameter order.
type launchSpec struct {
	Src        string
	Grid       int
	CTAThreads int
	Scalars    []int64
	Bufs       []int
}

// program is one simulation's input: a named sequence of launches over
// shared buffers.
type program struct {
	Name     string
	Bufs     []bufSpec
	Launches []launchSpec
}

// launches allocates the program's buffers through alloc, compiles its
// kernel text and returns validated launches. It is the launch builder
// every workload passes to the simulator, so its cost is setup time.
func (p *program) launches(alloc func(size uint64) uint64) ([]*nuba.Launch, error) {
	bases := make([]uint64, len(p.Bufs))
	for i, b := range p.Bufs {
		bases[i] = alloc(b.Size)
	}
	out := make([]*nuba.Launch, 0, len(p.Launches))
	for _, ls := range p.Launches {
		k, err := nuba.ParseKernel(ls.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		l := &nuba.Launch{Kernel: k, GridDim: ls.Grid, CTAThreads: ls.CTAThreads, Scalars: ls.Scalars}
		for _, bi := range ls.Bufs {
			b := nuba.Binding{Base: bases[bi], Size: p.Bufs[bi].Size}
			if salt := p.Bufs[bi].Salt; salt != 0 {
				b.Value = func(i int64) int64 { return int64(mix(uint64(i) ^ salt)) }
			}
			l.Buffers = append(l.Buffers, b)
		}
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		out = append(out, l)
	}
	return out, nil
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"stream", "gather", "sparse", "sweep"}

// workloadConfig is the GPU every workload runs on (the sweep's runner
// derives its figure configurations from the same scale).
func workloadConfig() (nuba.Config, error) {
	cfg := nuba.NUBAConfig().Scale(gpuScale)
	return cfg, cfg.Validate()
}

// programCount is how many programs the workload simulates per round.
func programCount(name string) (int, error) {
	switch name {
	case "stream", "gather", "sparse":
		return 1, nil
	case "sweep":
		return sweepPrograms, nil
	}
	return 0, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// sweepPrograms is the sweep's benchmark count: 19 programs x 6 distinct
// fig11+fig12 configurations = 114 simulations per sweep.
const sweepPrograms = 19

// genProgram returns program i of the workload at a seed. Each program
// draws from its own stream, so a launch builder can generate exactly
// its own input, and that generation is part of the measured setup.
func genProgram(name string, seed int64, i int) (program, error) {
	cfg, err := workloadConfig()
	if err != nil {
		return program{}, err
	}
	sms, llc := cfg.NumSMs, int64(cfg.NumLLCSlices*cfg.LLCSliceBytes)
	abbr := fmt.Sprintf("G%02d", i)
	r := newRNG(seed, name+"/"+abbr)
	switch name {
	case "stream":
		// Why: every SM streams a private tile with one store per load,
		// as LBM does (about 90% of L1 misses stay local under LAB). SM
		// LSU, L1, the point-to-point links, the local LLC slice and the
		// DRAM channel all work every cycle, so idle-skip has nothing to
		// skip; this is the writes-beside-reads load on LLC and DRAM.
		// Full occupancy (8 CTAs per SM, one wave) and a footprint of
		// 3.0-3.3x the LLC keep the work per run the same at every seed.
		return streamProgram(r, name, sms, llc, 3.0, 3.3, 8, 8), nil
	case "gather":
		// Why: every SM makes hash-chained, data-dependent reads of one
		// shared read-only table, as BT does. Requests cross the
		// crossbar into remote-request queues (about a third stay
		// local), MDR replicates in part of the epochs, TLBs miss, and
		// the SM issue scan spins over stalled warps. A table of
		// 0.7-0.8x the LLC with levels growing 2x per step spreads the
		// hot levels over enough pages that placement luck does not set
		// the run length.
		return gatherProgram(r, name, sms, llc, 0.7, 0.8, 8, 8, 4, 4, 1), nil
	case "sparse":
		// Why: a few single-warp CTAs chase dependent cold loads on the
		// whole GPU, so nearly every component is idle. The idle-skip
		// cycle loop (wake-hint scan, fast-forward, the few busy queues)
		// sets the speed; per-component hot paths barely run.
		return sparseProgram(r, name, 2, 5400, 5700), nil
	case "sweep":
		// Why: many short simulations of small seeded kernels through
		// the experiment runner's fig11 and fig12 configurations, whose
		// shared NUBA LAB/MDR baseline gives memo hits. Per-simulation
		// setup, the functional prewarm, the memo and the worker pool
		// dominate; no single cycle loop runs long. A fixed rotation of
		// the four kernel families keeps the mix the same at every seed.
		switch i % 4 {
		case 0:
			return streamProgram(r, abbr, sms, llc, 0.1, 0.2, 2, 2), nil
		case 1:
			return gatherProgram(r, abbr, sms, llc, 0.1, 0.2, 1, 1, 2, 3, 2), nil
		case 2:
			return clusterProgram(r, abbr, sms, llc), nil
		default:
			return sparseProgram(r, abbr, 4, 40, 80), nil
		}
	}
	_, err = programCount(name)
	return program{}, err
}

// streamProgram mirrors the suite's kStream template: each CTA owns a
// contiguous tile of A, swept twice with one store to B per load. The
// footprint (A+B) is drawn as a multiple of the total LLC capacity, the
// grid as a number of CTAs per SM, and the CTA-to-tile permutation.
func streamProgram(r *rng, name string, sms int, llc int64, fLo, fHi float64, cLo, cHi int64) program {
	grid := int(r.intn(cLo, cHi)) * sms
	footprint := int64(r.frac(fLo, fHi) * float64(llc))
	iters := max(footprint/(2*int64(grid)*ctaThreads*8), 1)
	size := uint64(int64(grid) * ctaThreads * iters * 8)
	// CTA c owns tile c*perm mod grid: an odd perm permutes the tiles
	// over the SMs without changing the work.
	perm := 2*r.intn(0, int64(grid)/2-1) + 1
	src := fmt.Sprintf(`
.kernel stream_%[1]s
.param .ptr A
.param .ptr B
.param .u64 iters
.param .u64 cwork
.param .u64 passes
  mov r0, %%tid
  mov r1, %%ctaid
  mul r1, r1, %[2]d
  rem r1, r1, %[3]d
  mov r2, %%ntid
  mul r3, r1, r2
  mul r3, r3, iters
  add r3, r3, r0
  mov r9, 0
ploop:
  mov r4, 0
loop:
  mad r5, r4, r2, r3
  shl r6, r5, 3
  ld.global.u64 r7, [A + r6]
  mov r8, 0
comp:
  fma r7, r7
  add r8, r8, 1
  setp.lt p0, r8, cwork
  @p0 bra comp
  st.global.u64 [B + r6], r7
  add r4, r4, 1
  setp.lt p0, r4, iters
  @p0 bra loop
  add r9, r9, 1
  setp.lt p0, r9, passes
  @p0 bra ploop
  exit
`, name, perm, grid)
	return program{
		Name: name,
		Bufs: []bufSpec{{Size: size}, {Size: size}},
		Launches: []launchSpec{{Src: src, Grid: grid, CTAThreads: ctaThreads,
			Scalars: []int64{iters, 1, 2}, Bufs: []int{0, 1}}},
	}
}

// gatherProgram mirrors the suite's kGather (B+tree) template: private
// hashed keys drive depth-long hash-chained lookups into one shared
// read-only table whose upper levels are hot; level l of depth spans
// tsize >> (shift*(depth-1-l)) entries. The table is drawn as a fraction
// of the total LLC capacity, the chain depth and the grid from their
// ranges; the key and table value models are salted by the seed.
func gatherProgram(r *rng, name string, sms int, llc int64, tLo, tHi float64, cLo, cHi, dLo, dHi int64, shift int) program {
	grid := int(r.intn(cLo, cHi)) * sms
	tsize := int64(r.frac(tLo, tHi)*float64(llc)) / 8
	depth := r.intn(dLo, dHi)
	iters := int64(1)
	keys := uint64(int64(grid) * ctaThreads * iters * 8)
	src := fmt.Sprintf(`
.kernel gather_%[1]s
.param .ptr KEYS
.param .ptr TREE
.param .ptr OUT
.param .u64 iters
.param .u64 depth
.param .u64 tsize
  mov r0, %%tid
  mov r1, %%ctaid
  mul r2, r1, %%ntid
  mul r2, r2, iters
  add r2, r2, r0
  mov r3, 0
loop:
  mad r4, r3, %%ntid, r2
  shl r5, r4, 3
  ld.global.u64 r6, [KEYS + r5]
  mov r7, r6
  mov r8, 0
walk:
  hash r7, r7
  sub r9, depth, r8
  sub r9, r9, 1
  mul r9, r9, %[2]d
  shr r10, tsize, r9
  max r10, r10, 1
  rem r11, r7, r10
  shl r11, r11, 3
  ld.global.u64 r12, [TREE + r11]
  add r7, r7, r12
  add r8, r8, 1
  setp.lt p0, r8, depth
  @p0 bra walk
  mad r13, r3, %%ntid, r2
  shl r13, r13, 3
  st.global.u64 [OUT + r13], r7
  add r3, r3, 1
  setp.lt p0, r3, iters
  @p0 bra loop
  exit
`, name, shift)
	return program{
		Name: name,
		Bufs: []bufSpec{{Size: keys, Salt: r.next() | 1}, {Size: uint64(tsize) * 8, Salt: r.next() | 1}, {Size: keys}},
		Launches: []launchSpec{{Src: src, Grid: grid, CTAThreads: ctaThreads,
			Scalars: []int64{iters, depth, tsize}, Bufs: []int{0, 1, 2}}},
	}
}

// clusterProgram mirrors the suite's kCluster template: private
// streaming points scored against center windows shared by groups of
// grpdiv CTAs, the intermediate sharing degree (2-10 SMs) of
// streamcluster. The sharing degree is drawn; the center buffer is a
// drawn fraction of the LLC.
func clusterProgram(r *rng, name string, sms int, llc int64) program {
	grid := sms
	grpdiv := r.intn(2, 8)
	csize := int64(r.frac(0.1, 0.2)*float64(llc)) / 8
	iters, ncent, gstride := int64(1), int64(8), int64(1792)
	pts := uint64(int64(grid) * ctaThreads * iters * 8)
	src := fmt.Sprintf(`
.kernel cluster_%[1]s
.param .ptr PTS
.param .ptr CTR
.param .ptr OUT
.param .u64 iters
.param .u64 ncent
.param .u64 grpdiv
.param .u64 gstride
.param .u64 csize
  mov r0, %%tid
  mov r1, %%ctaid
  mul r2, r1, %%ntid
  mul r2, r2, iters
  add r2, r2, r0
  div r3, r1, grpdiv
  mul r3, r3, gstride
  mov r14, %%laneid
  mov r4, 0
loop:
  mad r5, r4, %%ntid, r2
  shl r6, r5, 3
  ld.global.u64 r7, [PTS + r6]
  mov r8, 0
  mov r9, 0
cloop:
  mad r10, r4, ncent, r8
  shl r10, r10, 5
  add r10, r10, r3
  add r10, r10, r14
  rem r10, r10, csize
  shl r10, r10, 3
  ld.global.u64 r11, [CTR + r10]
  sub r12, r7, r11
  mad r9, r12, r12, r9
  fma r9, r9
  add r8, r8, 1
  setp.lt p0, r8, ncent
  @p0 bra cloop
  mad r13, r4, %%ntid, r2
  shl r13, r13, 3
  st.global.u64 [OUT + r13], r9
  add r4, r4, 1
  setp.lt p0, r4, iters
  @p0 bra loop
  exit
`, name)
	return program{
		Name: name,
		Bufs: []bufSpec{{Size: pts}, {Size: uint64(csize) * 8}, {Size: pts}},
		Launches: []launchSpec{{Src: src, Grid: grid, CTAThreads: ctaThreads,
			Scalars: []int64{iters, ncent, grpdiv, gstride, csize}, Bufs: []int{0, 1, 2}}},
	}
}

// sparseProgram mirrors the idle-heavy SPARSE kernel of the repository's
// engine benchmark: grid single-warp CTAs, each a chain of depth
// dependent loads, one cold 128 B line per link. The chain depth is
// drawn; the grid stays small, which is what keeps the GPU idle.
func sparseProgram(r *rng, name string, grid int, dLo, dHi int64) program {
	depth := r.intn(dLo, dHi)
	size := uint64(depth) * uint64(grid) * 128
	src := fmt.Sprintf(`
.kernel sparse_%[1]s
.param .ptr A
.param .u64 k
.param .u64 n
  mov r1, %%ctaid
  mov r4, 0
  mov r5, 0
loop:
  mad r6, r4, n, r1
  shl r6, r6, 7
  ld.global.u64 r7, [A + r6]
  add r5, r5, r7
  add r4, r4, 1
  setp.lt p0, r4, k
  @p0 bra loop
  shl r8, r1, 3
  st.global.u64 [A + r8], r5
  exit
`, name)
	return program{
		Name: name,
		Bufs: []bufSpec{{Size: size}},
		Launches: []launchSpec{{Src: src, Grid: grid, CTAThreads: 32,
			Scalars: []int64{depth, int64(grid)}, Bufs: []int{0}}},
	}
}
