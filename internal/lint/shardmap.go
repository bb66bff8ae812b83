package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
)

// The shard map: `nubalint -shardmap` renders the shard-safety
// analysis (shardsafety.go) as deterministic JSON, committed under
// docs/ so CI can fail on drift. The map documents the partition seam:
// per component, what its tick closure touches and through which seams
// work leaves; per seam, what the barrier-side code touches; per engine
// phase, the declared order and any cross-phase traffic on
// attention-worthy state.

// ShardMap is the JSON document (schema nuba-shardmap/v1).
type ShardMap struct {
	Schema     string           `json:"schema"`
	Components []ShardComponent `json:"components"`
	Seams      []ShardSeam      `json:"seams"`
	Phases     *ShardPhases     `json:"phases,omitempty"`
}

// ShardComponent is one partition component's tick-closure footprint.
type ShardComponent struct {
	Type  string   `json:"type"`
	Roots []string `json:"roots"`
	// Footprint groups the touched objects by owner, in first-touch
	// order.
	Footprint []ShardFoot `json:"footprint"`
	// Ports are the declared seam ports the closure dispatches through.
	Ports []ShardCrossing `json:"ports,omitempty"`
	// Seams are the declared seam functions the closure calls into.
	Seams []ShardCrossing `json:"seams,omitempty"`
	// Hooks are dispatches through func fields outside the partition
	// components (fault injection, walk callbacks): not traversed, but
	// listed so the coverage hole is visible.
	Hooks []ShardCrossing `json:"hooks,omitempty"`
}

// ShardFoot is one owner group of a closure footprint.
type ShardFoot struct {
	// Owner is "pkg.Type" for fields, "pkg.<var>" for package
	// variables, "pkg.(anon)" for fields of unnamed structs.
	Owner string `json:"owner"`
	// Class is the effective classification: "own" (the component's own
	// state), "other-partition" (a finding), a declared class, derived
	// "read-only", or "unclassified" (a finding when mutable).
	Class  string `json:"class"`
	Reads  int    `json:"reads"`
	Writes int    `json:"writes"`
	// Fields details the individual objects for the classes that carry
	// proof obligations (other-partition, commutative, barrier-exchange,
	// unsafe, unclassified); bulk-safe classes stay aggregated.
	Fields []ShardField `json:"fields,omitempty"`
}

// ShardField is one object's evidence inside a detailed owner group.
type ShardField struct {
	Field  string `json:"field"`
	Reads  int    `json:"reads"`
	Writes int    `json:"writes"`
	Site   string `json:"site"`
	Path   string `json:"path"`
}

// ShardCrossing is one seam/port/hook crossing with evidence.
type ShardCrossing struct {
	Name string `json:"name"`
	Site string `json:"site"`
	Path string `json:"path"`
}

// ShardSeam is one declared seam: a port with the functions installed
// into it, or a seam function with its own barrier-side footprint.
type ShardSeam struct {
	Seam      string      `json:"seam"`
	Kind      string      `json:"kind"` // "port" or "func"
	Targets   []string    `json:"targets,omitempty"`
	Footprint []ShardFoot `json:"footprint,omitempty"`
}

// ShardPhases is the engine's declared per-cycle phase order plus the
// cross-phase traffic worth a human look: unsafe, barrier-exchange or
// unclassified objects touched by two or more phases with at least one
// write.
type ShardPhases struct {
	Driver     string       `json:"driver"`
	Order      []string     `json:"order"`
	CrossPhase []CrossPhase `json:"crossPhase,omitempty"`
}

// CrossPhase is one multi-phase object.
type CrossPhase struct {
	Object  string   `json:"object"`
	Class   string   `json:"class"`
	Readers []string `json:"readers,omitempty"`
	Writers []string `json:"writers"`
	Site    string   `json:"site"`
}

// ShardMapJSON builds the shard map for the loaded program under the
// policy and renders it as indented JSON (with a trailing newline, the
// committed-file convention).
func ShardMapJSON(prog *Program, pol *Policy) ([]byte, error) {
	c := &progCtx{prog: prog, pol: pol}
	a, err := c.shardAnalysis()
	if err != nil {
		return nil, fmt.Errorf("shardmap: %w", err)
	}
	if !a.enabled {
		return nil, fmt.Errorf("shardmap: no `structs shard-footprint` entries in the policy")
	}
	m := &ShardMap{Schema: "nuba-shardmap/v1", Components: []ShardComponent{}, Seams: []ShardSeam{}}
	for _, cl := range a.comps {
		m.Components = append(m.Components, ShardComponent{
			Type:      cl.name,
			Roots:     cl.roots,
			Footprint: a.footprint(prog, cl),
			Ports:     crossingsOf(prog, cl.ports),
			Seams:     seamCrossingsOf(prog, cl.seamCalls),
			Hooks:     crossingsOf(prog, cl.hooks),
		})
	}
	for _, spec := range a.portOrder {
		var port *types.Var
		for f, s := range a.seamPorts {
			if s == spec {
				port = f
			}
		}
		var targets []string
		for _, n := range a.graph.fieldTargets[port] {
			targets = append(targets, n.spec())
		}
		m.Seams = append(m.Seams, ShardSeam{Seam: spec, Kind: "port", Targets: targets})
	}
	for _, cl := range a.seams {
		m.Seams = append(m.Seams, ShardSeam{Seam: cl.name, Kind: "func", Footprint: a.footprint(prog, cl)})
	}
	if phases, err := a.phasesSection(c); err != nil {
		return nil, fmt.Errorf("shardmap: %w", err)
	} else {
		m.Phases = phases
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// effectiveClass names the class the checks actually applied to acc
// inside cl.
func (a *shardAnalysis) effectiveClass(cl *shardClosure, acc *objAccess) string {
	oi := acc.info
	if oi.owner != nil {
		if _, isComp := a.compTypes[oi.owner]; isComp {
			if oi.owner == cl.ownType {
				return "own"
			}
			if cl.kind == "component" {
				return "other-partition"
			}
			return "component"
		}
	}
	if acc.class != nil {
		return acc.class.class
	}
	if !a.written[acc.info.obj] {
		return "read-only"
	}
	return "unclassified"
}

// detailedClass reports whether a class carries per-field evidence in
// the map.
func detailedClass(class string) bool {
	switch class {
	case "other-partition", "commutative", "barrier-exchange", "unsafe", "unclassified":
		return true
	}
	return false
}

// footprint renders cl's object accesses grouped by (owner, class) in
// first-touch order.
func (a *shardAnalysis) footprint(prog *Program, cl *shardClosure) []ShardFoot {
	var out []ShardFoot
	index := make(map[string]int)
	for _, obj := range cl.order {
		acc := cl.objs[obj]
		oi := acc.info
		owner := oi.key // package variables group under their own key
		field := oi.obj.Name()
		if oi.owner != nil {
			owner = oi.ownerSpec
		} else if oi.obj.(*types.Var).IsField() {
			owner = oi.pkgRel + ".(anon)"
		}
		class := a.effectiveClass(cl, acc)
		gk := owner + "\x00" + class
		i, ok := index[gk]
		if !ok {
			i = len(out)
			index[gk] = i
			out = append(out, ShardFoot{Owner: owner, Class: class})
		}
		out[i].Reads += acc.reads
		out[i].Writes += acc.writes
		if detailedClass(class) {
			s := acc.first()
			out[i].Fields = append(out[i].Fields, ShardField{
				Field: field, Reads: acc.reads, Writes: acc.writes,
				Site: siteString(prog, s.pos), Path: s.path,
			})
		}
	}
	return out
}

// siteString renders a position as the map's "file:line" evidence.
func siteString(prog *Program, pos token.Pos) string {
	posn := prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", prog.RelFile(pos), posn.Line)
}

func crossingsOf(prog *Program, uses []portUse) []ShardCrossing {
	var out []ShardCrossing
	for _, u := range uses {
		out = append(out, ShardCrossing{Name: u.key, Site: siteString(prog, u.pos), Path: u.path})
	}
	return out
}

func seamCrossingsOf(prog *Program, uses []seamUse) []ShardCrossing {
	var out []ShardCrossing
	for _, u := range uses {
		out = append(out, ShardCrossing{Name: u.spec, Site: siteString(prog, u.pos), Path: u.path})
	}
	return out
}

// phasesSection walks the declared engine phases and reports the
// cross-phase traffic on unsafe, barrier-exchange and unclassified
// objects. Returns nil (no section) when the policy declares no phase
// order.
func (a *shardAnalysis) phasesSection(c *progCtx) (*ShardPhases, error) {
	specs := c.pol.Funcs(RuleTickPhaseOrder)
	if len(specs) < 2 {
		return nil, nil
	}
	driverSpec, phaseSpecs := specs[0], specs[1:]
	out := &ShardPhases{Driver: driverSpec, Order: phaseSpecs}
	var closures []*shardClosure
	for _, spec := range phaseSpecs {
		fn, err := c.resolveFunc(spec)
		if err != nil {
			return nil, err
		}
		cl := newShardClosure(spec, "phase", nil)
		if err := a.walkClosure(cl, fn); err != nil {
			return nil, err
		}
		closures = append(closures, cl)
	}
	seen := make(map[types.Object]bool)
	for _, cl := range closures {
		for _, obj := range cl.order {
			if seen[obj] {
				continue
			}
			seen[obj] = true
			acc := cl.objs[obj]
			oi := acc.info
			if oi.owner != nil {
				if _, isComp := a.compTypes[oi.owner]; isComp {
					continue
				}
			}
			class := "unclassified"
			if e := a.classes.lookup(oi); e != nil {
				class = e.class
			}
			switch class {
			case "unsafe", "barrier-exchange", "unclassified":
			default:
				continue
			}
			var readers, writers []string
			touched, writes := 0, 0
			var first site
			for _, pcl := range closures {
				pa := pcl.objs[obj]
				if pa == nil {
					continue
				}
				touched++
				if first.pos == 0 {
					first = pa.first()
				}
				if pa.reads > 0 {
					readers = append(readers, pcl.name)
				}
				if pa.writes > 0 {
					writers = append(writers, pcl.name)
					writes++
				}
			}
			if touched < 2 || writes == 0 {
				continue
			}
			out.CrossPhase = append(out.CrossPhase, CrossPhase{
				Object: oi.key, Class: class, Readers: readers, Writers: writers,
				Site: siteString(c.prog, first.pos),
			})
		}
	}
	return out, nil
}
