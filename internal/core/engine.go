package core

import (
	"fmt"
	"strings"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// Engine selects the cycle-loop strategy. All engines produce
// cycle-exact, byte-identical reports and traces; they differ only in
// wall-clock speed. EngineHybrid is the default; EngineNaive is the
// serial reference kept as an escape hatch and as the oracle the
// cross-engine tests compare against; EngineSanitize is the hybrid
// engine's soundness checker (sanitize.go).
type Engine uint8

const (
	// EngineHybrid ticks only components whose wake-up hints say they can
	// make progress and fast-forwards the clock over proven-idle gaps.
	EngineHybrid Engine = iota
	// EngineNaive ticks every component every cycle (the serial
	// reference implementation).
	EngineNaive
	// EngineSanitize steps through every hybrid-claimed idle window,
	// cross-checking each component's state signature against its wake
	// hint, and fails the run on the first unsound hint.
	EngineSanitize
)

// engines is the single registry behind String, ParseEngine,
// EngineNames and EngineUsage — the flag spelling, the enum value and
// the one-line description stay in sync by construction. Order is the
// flag-help display order, default first.
var engines = []struct {
	e    Engine
	name string
	desc string
}{
	{EngineHybrid, "hybrid", "idle-skip cycle loop (default)"},
	{EngineNaive, "naive", "tick every component every cycle (serial reference)"},
	{EngineSanitize, "sanitize", "hybrid with per-cycle hint-soundness checks (slow)"},
}

// String returns the engine's flag spelling.
func (e Engine) String() string {
	for _, r := range engines {
		if r.e == e {
			return r.name
		}
	}
	return "hybrid"
}

// ParseEngine parses a -engine flag value. The empty string selects the
// default engine.
func ParseEngine(s string) (Engine, error) {
	if s == "" {
		return EngineHybrid, nil
	}
	for _, r := range engines {
		if r.name == s {
			return r.e, nil
		}
	}
	return EngineHybrid, fmt.Errorf("core: unknown engine %q (want %s)", s, strings.Join(EngineNames(), ", "))
}

// EngineNames returns the flag spellings of every engine, in registry
// order (default first).
func EngineNames() []string {
	names := make([]string, len(engines))
	for i, r := range engines {
		names[i] = r.name
	}
	return names
}

// EngineUsage returns the -engine flag help text, built from the
// registry so CLI help never drifts from the parser.
func EngineUsage() string {
	var b strings.Builder
	b.WriteString("cycle-loop engine: ")
	for i, r := range engines {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(r.name)
	}
	for _, r := range engines {
		fmt.Fprintf(&b, "; %s = %s", r.name, r.desc)
	}
	return b.String()
}

// SetEngine selects the cycle-loop strategy for subsequent runs.
func (g *GPU) SetEngine(e Engine) { g.engine = e }

// Engine returns the selected cycle-loop strategy.
func (g *GPU) Engine() Engine { return g.engine }

// componentWake returns the earliest cycle at which any component could
// make progress on its own: g.cycle+1 while something is active, a future
// cycle when everything is parked on known timers (DRAM bursts, LLC
// pipelines, link arrivals, scheduler sleeps), and sim.Never when every
// component is drained or waiting on another one. The scan is ordered
// active-likely-first and returns as soon as one active component proves
// the next cycle must run, so its cost on busy cycles is one SM hint.
func (g *GPU) componentWake() sim.Cycle {
	now := g.cycle
	next := now + 1
	wake := sim.Never
	for _, s := range g.sms {
		t := s.NextWake(now)
		if t <= next {
			return next
		}
		if t < wake {
			wake = t
		}
	}
	if !g.migQueue.Empty() || !g.invalQueue.Empty() || len(g.migFillRetry) > 0 {
		return next
	}
	// A crossbar holding messages moves them between stages every cycle:
	// its hint is next or Never, never a future timer.
	for _, x := range g.reqXbars {
		if x.NextEvent(now) <= next {
			return next
		}
	}
	for _, x := range g.replyXbars {
		if x.NextEvent(now) <= next {
			return next
		}
	}
	for _, l := range g.smReqLinks {
		if t := l.NextReady(); t <= next {
			return next
		} else if t < wake {
			wake = t
		}
	}
	for _, l := range g.sliceReplyLinks {
		if t := l.NextReady(); t <= next {
			return next
		} else if t < wake {
			wake = t
		}
	}
	for _, l := range g.interHalf {
		if l == nil {
			continue
		}
		if t := l.NextReady(); t <= next {
			return next
		} else if t < wake {
			wake = t
		}
	}
	for _, row := range g.interModule {
		for _, l := range row {
			if l == nil {
				continue
			}
			if t := l.NextReady(); t <= next {
				return next
			} else if t < wake {
				wake = t
			}
		}
	}
	for _, sl := range g.slices {
		t := sl.NextEvent(now)
		if t <= next {
			return next
		}
		if t < wake {
			wake = t
		}
	}
	// Channels tick on the memory clock: their next chance to act is the
	// first mem-clock boundary at or after their own next event.
	div := sim.Cycle(g.cfg.MemClockDiv)
	boundary := (now/div + 1) * div
	for _, ch := range g.chans {
		m, ok := ch.NextEvent()
		if !ok {
			continue
		}
		t := m * div
		if t < boundary {
			t = boundary
		}
		if t <= next {
			return next
		}
		if t < wake {
			wake = t
		}
	}
	if t := g.vmsys.NextEvent(); t <= next {
		return next
	} else if t < wake {
		wake = t
	}
	return wake
}

// nextWake is componentWake plus the scheduled timers that fire
// regardless of component activity: MDR epoch boundaries and decision
// applies, migration scans and trace epochs.
func (g *GPU) nextWake() sim.Cycle {
	wake := g.componentWake()
	if wake <= g.cycle+1 {
		return wake
	}
	if g.mdrCtl != nil {
		if t := g.mdrCtl.NextEvent(); t < wake {
			wake = t
		}
	}
	if g.cfg.Placement == config.Migration && g.nextMigScan < wake {
		wake = g.nextMigScan
	}
	if g.tracer != nil && g.tr.next < wake {
		wake = g.tr.next
	}
	if f := g.flt; f != nil && f.hintBias != 0 && wake != sim.Never {
		wake += f.hintBias
	}
	return wake
}

// advanceTo advances the clock to target: it steps cycles where some
// component or timer can act and fast-forwards over gaps where ticking
// every component is provably a no-op. Stepping resumes one cycle before
// each wake-up so the event cycle itself runs through the ordinary step,
// with every modulo check and tick ordering identical to EngineNaive.
//
// On busy verdicts the hint scan backs off: stepping is always
// cycle-exact (it is exactly what EngineNaive does), so after a scan
// proves the machine busy the engine blind-steps a stride of cycles
// before scanning again. The stride doubles up to half a batch and
// resets the moment a scan finds skippable idle time, so dense
// workloads pay for at most two scans per 64-cycle batch while
// idle-heavy workloads still fast-forward promptly.
func (g *GPU) advanceTo(target sim.Cycle) {
	for g.cycle < target {
		w := g.nextWake()
		if w <= g.cycle+1 {
			for i := sim.Cycle(0); i <= g.busyStride && g.cycle < target; i++ {
				g.step()
			}
			if g.busyStride < batchCycles/2 {
				g.busyStride = 2*g.busyStride + 1
			}
			continue
		}
		g.busyStride = 0
		if w > target {
			// Nothing can act in (cycle, target]: jump the clock.
			g.cycle = target
			return
		}
		g.cycle = w - 1
		g.step()
	}
}
