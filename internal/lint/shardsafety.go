package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Shard-safety analysis: the static proof that the sequential code keeps
// NUBA's partition seam. A partition plan would run each partition's
// components (SMs, LLC slices, DRAM channels) on their own shard and
// exchange work only at cycle barriers, so three things must hold of
// the sequential code:
//
//   - shard-footprint: a partition component's tick closure — its Tick
//     and wake-hint methods plus everything they transitively call —
//     touches only its own component's state. Work leaves the
//     component exclusively through declared seams: func-typed ports
//     (`internal/smcore.SM.Send`) and seam functions, listed in
//     `seams shard-footprint`. Traversal stops at a declared seam and
//     records the crossing; an undeclared port on a component is a
//     finding, and so is reaching another component's fields.
//
//   - shard-shared: every shared mutable object a tick closure reaches
//     must carry a classification in `shared shard-shared` saying why
//     it is safe: `partition` (per-partition instances), `commutative`
//     (merge-safe accumulators; non-accumulative writes are findings),
//     `message` (payload owned by whoever holds the message),
//     `barrier-exchange` (only seam functions may touch it — a tick
//     touching it is a finding) or `unsafe` (known-unsafe, must not be
//     reachable from a tick). Objects never written in any audited
//     closure derive `read-only` and need no entry. Classifications
//     that match nothing are stale findings.
//
//   - tick-phase-order: the engine's per-cycle phase sequence (`funcs
//     tick-phase-order`: driver then phases in order) is what the
//     barrier schedule would replay; see checkTickPhaseOrder.
//
// `nubalint -shardmap` (shardmap.go) renders the same analysis as a
// JSON partition map committed under docs/.

// classEntry is one `shared shard-shared = class:spec` classification.
type classEntry struct {
	class string
	spec  string
	pos   token.Pos // what the spec resolves to, for stale findings
	used  bool
}

// sharedClasses resolves objects to their declared classification,
// most specific spec first: pkg.Type.Field, then pkg.Type (or pkg.Var
// for package variables), then pkg.
type sharedClasses struct {
	byField map[string]*classEntry
	byType  map[string]*classEntry
	byPkg   map[string]*classEntry
	entries []*classEntry // declaration order, for stale detection
}

// specDots counts the dots in a spec's tail ("internal/vm.TLB.entries"
// has 2): 0 names a package, 1 a type or package variable, 2 a field.
func specDots(spec string) int {
	tail := spec
	if i := strings.LastIndexByte(spec, '/'); i >= 0 {
		tail = spec[i+1:]
	}
	return strings.Count(tail, ".")
}

// lookup finds the most specific entry for oi without marking it used.
func (sc *sharedClasses) lookup(oi objInfo) *classEntry {
	if e := sc.byField[oi.key]; e != nil {
		return e
	}
	if oi.owner != nil {
		if e := sc.byType[oi.ownerSpec]; e != nil {
			return e
		}
	} else if e := sc.byType[oi.key]; e != nil {
		return e
	}
	return sc.byPkg[oi.pkgRel]
}

// classify is lookup plus used-marking (stale detection).
func (sc *sharedClasses) classify(oi objInfo) *classEntry {
	e := sc.lookup(oi)
	if e != nil {
		e.used = true
	}
	return e
}

// objInfo identifies one accessed object in classification terms.
type objInfo struct {
	obj       types.Object
	key       string // "pkg.Type.Field" or "pkg.Var"
	pkgRel    string
	owner     *types.Named // declaring type for fields of named structs
	ownerSpec string       // "pkg.Type" when owner is set
}

// site is one evidence location: a position plus the call path from
// the closure root that reaches it.
type site struct {
	pos  token.Pos
	path string
}

// objAccess aggregates one closure's accesses to one object.
type objAccess struct {
	info       objInfo
	class      *classEntry // nil = unclassified
	reads      int
	writes     int
	firstRead  site
	firstWrite site
	nonAccum   []site // non-accumulative write sites (commutative police)
}

// first returns the earliest evidence site.
func (a *objAccess) first() site {
	switch {
	case a.reads == 0:
		return a.firstWrite
	case a.writes == 0 || a.firstRead.pos <= a.firstWrite.pos:
		return a.firstRead
	}
	return a.firstWrite
}

// portUse is one dispatch through a func-typed field.
type portUse struct {
	key  string // "pkg.Type.Field" or "pkg.Var"
	pos  token.Pos
	path string
}

// seamUse is one call into a declared seam function.
type seamUse struct {
	spec string
	pos  token.Pos
	path string
}

// shardClosure is the flow-sensitive footprint of one root set: a
// component's tick+hint methods, a declared seam function, or an
// engine phase.
type shardClosure struct {
	name      string // component type spec, seam spec or phase spec
	kind      string // "component", "seam" or "phase"
	ownType   *types.Named
	roots     []string
	objs      map[types.Object]*objAccess
	order     []types.Object // first-touch order
	ports     []portUse      // declared seam ports dispatched
	undecl    []portUse      // undeclared component ports (findings)
	hooks     []portUse      // other func-field dispatches, not traversed
	seamCalls []seamUse      // declared seam functions reached
	nodes     map[*funcNode]bool
}

func newShardClosure(name, kind string, own *types.Named) *shardClosure {
	return &shardClosure{
		name: name, kind: kind, ownType: own,
		objs:  make(map[types.Object]*objAccess),
		nodes: make(map[*funcNode]bool),
	}
}

// shardAnalysis is the shared result the three shard rules and the
// -shardmap report all consume; progCtx caches it (one build per run).
type shardAnalysis struct {
	enabled   bool // false when `structs shard-footprint` is empty
	comps     []*shardClosure
	seams     []*shardClosure
	classes   *sharedClasses
	written   map[types.Object]bool // written in any audited closure
	compTypes map[*types.Named]string
	seamPorts map[*types.Var]string
	seamFuncs map[*types.Func]string
	portOrder []string // declared port seams, policy order
	graph     *useGraph
	owners    map[*types.Var]*types.Named
	mod       Module
}

// buildFieldOwners indexes every field of every named struct type in
// the loaded packages to its declaring type, so an accessed field can
// be attributed to "pkg.Type".
func buildFieldOwners(prog *Program) map[*types.Var]*types.Named {
	out := make(map[*types.Var]*types.Named)
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				out[st.Field(i)] = named
			}
		}
	}
	return out
}

// objInfoOf classifies obj for the shard analysis. Only module-internal
// variables count: fields and package-level variables; consts, locals
// and external state are out of scope (hint-purity owns external calls).
func objInfoOf(obj types.Object, owners map[*types.Var]*types.Named, mod Module) (objInfo, bool) {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return objInfo{}, false
	}
	rel, internal := internalRel(mod, v.Pkg().Path())
	if !internal {
		return objInfo{}, false
	}
	oi := objInfo{obj: v, pkgRel: rel}
	if v.IsField() {
		if owner := owners[v]; owner != nil {
			oi.owner = owner
			oi.ownerSpec = rel + "." + owner.Obj().Name()
			oi.key = oi.ownerSpec + "." + v.Name()
		} else {
			oi.key = rel + ".(anon)." + v.Name()
		}
	} else {
		oi.key = rel + "." + v.Name()
	}
	return oi, true
}

// shardAnalysis lazily builds (and caches) the analysis; an error is a
// configuration problem (unresolvable spec, component without a Tick)
// and fails the run rather than producing findings.
func (c *progCtx) shardAnalysis() (*shardAnalysis, error) {
	if c.shard == nil && c.shardErr == nil {
		c.shard, c.shardErr = buildShardAnalysis(c)
	}
	return c.shard, c.shardErr
}

func buildShardAnalysis(c *progCtx) (*shardAnalysis, error) {
	a := &shardAnalysis{
		classes:   &sharedClasses{byField: map[string]*classEntry{}, byType: map[string]*classEntry{}, byPkg: map[string]*classEntry{}},
		written:   make(map[types.Object]bool),
		compTypes: make(map[*types.Named]string),
		seamPorts: make(map[*types.Var]string),
		seamFuncs: make(map[*types.Func]string),
		graph:     c.useGraph(),
		owners:    buildFieldOwners(c.prog),
		mod:       c.prog.Mod,
	}
	if err := a.resolveShared(c); err != nil {
		return nil, err
	}
	compSpecs := c.pol.Structs(RuleShardFootprint)
	if len(compSpecs) == 0 {
		return a, nil // tick-phase-order may still run
	}
	a.enabled = true
	for _, spec := range compSpecs {
		named, _, err := c.resolveNamed(spec)
		if err != nil {
			return nil, err
		}
		a.compTypes[named] = spec
	}
	var seamFnOrder []string
	for _, spec := range c.pol.Seams(RuleShardFootprint) {
		port, fn, err := c.resolveSeam(spec)
		if err != nil {
			return nil, err
		}
		if port != nil {
			a.seamPorts[port] = spec
			a.portOrder = append(a.portOrder, spec)
		} else {
			a.seamFuncs[fn] = spec
			seamFnOrder = append(seamFnOrder, spec)
		}
	}
	// Component closures, in policy order; roots are the Tick and
	// wake-hint methods so the footprint covers exactly what the engine
	// runs on the component every cycle.
	for _, spec := range compSpecs {
		named, _, _ := c.resolveNamed(spec)
		cl := newShardClosure(spec, "component", named)
		roots := tickAndHintMethods(named)
		if len(roots) == 0 {
			return nil, fmt.Errorf("`structs shard-footprint` lists %s but it has no Tick or wake-hint method", spec)
		}
		for _, fn := range roots {
			if err := a.walkClosure(cl, fn); err != nil {
				return nil, err
			}
		}
		a.comps = append(a.comps, cl)
	}
	// Seam-function closures, in policy order: the barrier side of the
	// proof. Their bodies run at partition boundaries, so they may touch
	// barrier-exchange and unsafe state, but unclassified shared
	// mutables are still findings.
	for _, spec := range seamFnOrder {
		var fn *types.Func
		for f, s := range a.seamFuncs {
			if s == spec {
				fn = f
			}
		}
		cl := newShardClosure(spec, "seam", nil)
		if err := a.walkClosure(cl, fn); err != nil {
			return nil, err
		}
		a.seams = append(a.seams, cl)
	}
	a.finish()
	return a, nil
}

// finish derives mutability and classification once every closure is
// walked: written-anywhere feeds the read-only derivation, classify
// marks entries used for stale detection.
func (a *shardAnalysis) finish() {
	for _, cl := range append(append([]*shardClosure{}, a.comps...), a.seams...) {
		for _, obj := range cl.order {
			if cl.objs[obj].writes > 0 {
				a.written[obj] = true
			}
		}
	}
	for _, cl := range append(append([]*shardClosure{}, a.comps...), a.seams...) {
		for _, obj := range cl.order {
			acc := cl.objs[obj]
			acc.class = a.classes.classify(acc.info)
		}
	}
}

// resolveShared parses and resolves every `shared shard-shared` entry.
// An entry that resolves to nothing in the loaded packages is a
// configuration error; one that resolves but is never touched by an
// audited closure is a stale finding (checkShardShared).
func (a *shardAnalysis) resolveShared(c *progCtx) error {
	for _, v := range c.pol.Shared(RuleShardShared) {
		class, spec, _ := strings.Cut(v, ":")
		e := &classEntry{class: class, spec: spec}
		switch specDots(spec) {
		case 0: // package
			pkg := c.prog.pkgByRel(spec)
			if pkg == nil {
				return fmt.Errorf("shared entry %q: package %s is not among the loaded packages", v, spec)
			}
			e.pos = pkg.Files[0].Pos()
			if a.classes.byPkg[spec] != nil {
				return fmt.Errorf("duplicate shared classification for %q", spec)
			}
			a.classes.byPkg[spec] = e
		case 1: // type or package variable
			dot := strings.LastIndex(spec, ".")
			pkg := c.prog.pkgByRel(spec[:dot])
			if pkg == nil {
				return fmt.Errorf("shared entry %q: package %s is not among the loaded packages", v, spec[:dot])
			}
			obj := pkg.Types.Scope().Lookup(spec[dot+1:])
			if obj == nil {
				return fmt.Errorf("shared entry %q: no %s in package %s", v, spec[dot+1:], spec[:dot])
			}
			e.pos = obj.Pos()
			if a.classes.byType[spec] != nil {
				return fmt.Errorf("duplicate shared classification for %q", spec)
			}
			a.classes.byType[spec] = e
		case 2: // field
			dot := strings.LastIndex(spec, ".")
			named, _, err := c.resolveNamed(spec[:dot])
			if err != nil {
				return fmt.Errorf("shared entry %q: %w", v, err)
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				return fmt.Errorf("shared entry %q: %s is not a struct type", v, spec[:dot])
			}
			var f *types.Var
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == spec[dot+1:] {
					f = st.Field(i)
				}
			}
			if f == nil {
				return fmt.Errorf("shared entry %q: %s has no field %s", v, spec[:dot], spec[dot+1:])
			}
			e.pos = f.Pos()
			if a.classes.byField[spec] != nil {
				return fmt.Errorf("duplicate shared classification for %q", spec)
			}
			a.classes.byField[spec] = e
		default:
			return fmt.Errorf("shared entry %q: spec %q is not pkg, pkg.Type or pkg.Type.Field", v, spec)
		}
		a.classes.entries = append(a.classes.entries, e)
	}
	return nil
}

// resolveSeam resolves one `seams shard-footprint` spec: a func-typed
// struct field ("pkg.Type.Field") yields a port, a function or method
// spec yields the seam function.
func (c *progCtx) resolveSeam(spec string) (*types.Var, *types.Func, error) {
	if specDots(spec) == 2 {
		dot := strings.LastIndex(spec, ".")
		named, _, err := c.resolveNamed(spec[:dot])
		if err == nil {
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Name() != spec[dot+1:] {
						continue
					}
					if _, ok := f.Type().Underlying().(*types.Signature); !ok {
						return nil, nil, fmt.Errorf("seam %q: field %s is not func-typed", spec, f.Name())
					}
					return f, nil, nil
				}
			}
		}
	}
	fn, err := c.resolveFunc(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("seam %q: %w", spec, err)
	}
	return nil, fn, nil
}

// tickAndHintMethods returns the component's closure roots: its Tick
// method plus any wake-hint methods, in that order.
func tickAndHintMethods(named *types.Named) []*types.Func {
	var out []*types.Func
	want := append([]string{"Tick"}, hintMethodNames...)
	for _, name := range want {
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				out = append(out, m)
			}
		}
	}
	return out
}

// walkClosure BFS-walks the call graph from rootFn into cl, stopping
// at declared seam functions and recording every port dispatch.
// Multiple roots share cl.nodes, so a helper reached from both Tick
// and NextWake is recorded once.
func (a *shardAnalysis) walkClosure(cl *shardClosure, rootFn *types.Func) error {
	root := a.graph.byObj[rootFn]
	if root == nil {
		return fmt.Errorf("%s root %s has no body in the loaded packages", cl.kind, funcDisplay(rootFn))
	}
	cl.roots = append(cl.roots, root.spec())
	if cl.nodes[root] {
		return nil
	}
	cl.nodes[root] = true
	paths := map[*funcNode]string{root: funcDisplay(rootFn)}
	queue := []*funcNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		path := paths[n]
		cl.recordNode(a, n, path)
		for _, callee := range n.calleeList {
			if spec, ok := a.seamFuncs[callee]; ok {
				cl.addSeamCall(seamUse{spec: spec, pos: n.callPos[callee], path: path})
				continue
			}
			for _, m := range a.graph.calleeNodes(callee) {
				if cl.nodes[m] {
					continue
				}
				cl.nodes[m] = true
				paths[m] = path + " -> " + funcDisplay(m.fn)
				queue = append(queue, m)
			}
		}
		for _, dc := range n.dynCalls {
			oi, ok := objInfoOf(dc.field, a.owners, a.mod)
			if !ok {
				continue
			}
			use := portUse{key: oi.key, pos: dc.pos, path: path}
			switch {
			case a.seamPorts[dc.field] != "":
				cl.addPort(&cl.ports, use)
			case oi.owner != nil && a.compTypes[oi.owner] != "":
				cl.addPort(&cl.undecl, use)
			default:
				// A hook outside the partition components (fault
				// injection, VM walk callbacks): out of shard scope, but
				// listed in the shard map so the hole is visible.
				cl.addPort(&cl.hooks, use)
			}
		}
	}
	return nil
}

// addPort appends use to list unless the port was already recorded.
func (cl *shardClosure) addPort(list *[]portUse, use portUse) {
	for _, p := range *list {
		if p.key == use.key {
			return
		}
	}
	*list = append(*list, use)
}

// addSeamCall records the first crossing into each seam function.
func (cl *shardClosure) addSeamCall(use seamUse) {
	for _, s := range cl.seamCalls {
		if s.spec == use.spec {
			return
		}
	}
	cl.seamCalls = append(cl.seamCalls, use)
}

// recordNode folds one node's object accesses into the closure, in a
// deterministic first-position order.
func (cl *shardClosure) recordNode(a *shardAnalysis, n *funcNode, path string) {
	var objs []types.Object
	minPos := make(map[types.Object]token.Pos)
	add := func(obj types.Object, poss []token.Pos) {
		if len(poss) == 0 {
			return
		}
		if q, seen := minPos[obj]; !seen {
			minPos[obj] = poss[0]
			objs = append(objs, obj)
		} else if poss[0] < q {
			minPos[obj] = poss[0]
		}
	}
	for obj, poss := range n.reads {
		add(obj, poss)
	}
	for obj, poss := range n.writes {
		add(obj, poss)
	}
	sort.Slice(objs, func(i, j int) bool { return minPos[objs[i]] < minPos[objs[j]] })
	for _, obj := range objs {
		oi, ok := objInfoOf(obj, a.owners, a.mod)
		if !ok {
			continue
		}
		acc := cl.objs[obj]
		if acc == nil {
			acc = &objAccess{info: oi}
			cl.objs[obj] = acc
			cl.order = append(cl.order, obj)
		}
		if poss := n.reads[obj]; len(poss) > 0 {
			if acc.reads == 0 {
				acc.firstRead = site{pos: poss[0], path: path}
			}
			acc.reads += len(poss)
		}
		if poss := n.writes[obj]; len(poss) > 0 {
			if acc.writes == 0 {
				acc.firstWrite = site{pos: poss[0], path: path}
			}
			acc.writes += len(poss)
		}
		for _, p := range n.nonAccum[obj] {
			acc.nonAccum = append(acc.nonAccum, site{pos: p, path: path})
		}
	}
}

// --- shard-footprint ---------------------------------------------------

func checkShardFootprint(c *progCtx) error {
	a, err := c.shardAnalysis()
	if err != nil {
		return fmt.Errorf("shard-footprint: %w", err)
	}
	if !a.enabled {
		return nil
	}
	for _, cl := range a.comps {
		for _, obj := range cl.order {
			acc := cl.objs[obj]
			oi := acc.info
			if oi.owner == nil || oi.owner == cl.ownType {
				continue
			}
			otherSpec, isComp := a.compTypes[oi.owner]
			if !isComp {
				continue
			}
			s := acc.first()
			c.emitPos(s.pos, RuleShardFootprint,
				fmt.Sprintf("%s tick reaches %s, state of partition component %s; cross the partition boundary through a declared seam (`seams shard-footprint`) (via %s)",
					cl.name, oi.key, otherSpec, s.path))
		}
		for _, p := range cl.undecl {
			c.emitPos(p.pos, RuleShardFootprint,
				fmt.Sprintf("%s tick dispatches through port %s, which is not in `seams shard-footprint`; declare the seam so the partition plan can buffer it (via %s)",
					cl.name, p.key, p.path))
		}
	}
	return nil
}

// --- shard-shared ------------------------------------------------------

func checkShardShared(c *progCtx) error {
	a, err := c.shardAnalysis()
	if err != nil {
		return fmt.Errorf("shard-shared: %w", err)
	}
	if !a.enabled {
		return nil
	}
	for _, cl := range append(append([]*shardClosure{}, a.comps...), a.seams...) {
		for _, obj := range cl.order {
			acc := cl.objs[obj]
			oi := acc.info
			if oi.owner != nil {
				if _, isComp := a.compTypes[oi.owner]; isComp {
					continue // component state: shard-footprint's territory
				}
			}
			if acc.class == nil {
				if a.written[obj] {
					s := acc.first()
					c.emitPos(s.pos, RuleShardShared,
						fmt.Sprintf("shared mutable %s is reachable from %s %s but has no classification in `shared shard-shared` (via %s)",
							oi.key, cl.kind, cl.name, s.path))
				}
				continue
			}
			if cl.kind != "component" {
				continue // seams run at barriers: any declared class is fine
			}
			switch acc.class.class {
			case "commutative":
				for _, s := range acc.nonAccum {
					c.emitPos(s.pos, RuleShardShared,
						fmt.Sprintf("non-accumulative write to commutative %s from %s tick; only ++/--/+=/-=/|= merge across partitions (via %s)",
							oi.key, cl.name, s.path))
				}
			case "barrier-exchange":
				s := acc.first()
				c.emitPos(s.pos, RuleShardShared,
					fmt.Sprintf("%s is classified barrier-exchange but %s tick touches it mid-cycle; only seam functions may (via %s)",
						oi.key, cl.name, s.path))
			case "unsafe":
				s := acc.first()
				c.emitPos(s.pos, RuleShardShared,
					fmt.Sprintf("%s is classified unsafe for partition parallelism but %s tick reaches it (via %s)",
						oi.key, cl.name, s.path))
			}
		}
	}
	for _, e := range a.classes.entries {
		if !e.used {
			c.emitPos(e.pos, RuleShardShared,
				fmt.Sprintf("`shared shard-shared` classifies %s as %s but no audited closure touches it; drop the stale entry", e.spec, e.class))
		}
	}
	return nil
}

// --- tick-phase-order --------------------------------------------------

// checkTickPhaseOrder audits the engine's per-cycle phase sequence
// declared as `funcs tick-phase-order = <driver> <phase>...`:
//
//   - the driver must call the declared phases in the declared order
//     (the partition barrier schedule will replay exactly this order);
//   - every Tick-named method the driver calls directly on a
//     module-internal type must be a declared phase;
//   - a declared phase the driver never calls is stale;
//   - unclassified shared mutable state written by a later phase and
//     read by an earlier one is a backward cross-phase dataflow: under
//     per-phase barriers the read would observe the previous cycle's
//     value only if that is the modeled intent, so it must be
//     classified (or restructured) before the seam is built.
func checkTickPhaseOrder(c *progCtx) error {
	specs := c.pol.Funcs(RuleTickPhaseOrder)
	if len(specs) == 0 {
		return nil
	}
	if len(specs) < 2 {
		return fmt.Errorf("tick-phase-order: `funcs tick-phase-order` needs a driver followed by at least one phase")
	}
	a, err := c.shardAnalysis()
	if err != nil {
		return fmt.Errorf("tick-phase-order: %w", err)
	}
	g := a.graph
	driverSpec, phaseSpecs := specs[0], specs[1:]
	driverFn, err := c.resolveFunc(driverSpec)
	if err != nil {
		return fmt.Errorf("tick-phase-order: %w", err)
	}
	driver := g.byObj[driverFn]
	if driver == nil {
		return fmt.Errorf("tick-phase-order: driver %s has no body in the loaded packages", driverSpec)
	}

	declared := make(map[*types.Func]string, len(phaseSpecs))
	var phaseFns []*types.Func
	for _, spec := range phaseSpecs {
		fn, err := c.resolveFunc(spec)
		if err != nil {
			return fmt.Errorf("tick-phase-order: %w", err)
		}
		declared[fn] = spec
		phaseFns = append(phaseFns, fn)
	}

	// (a) declared order vs the driver's first-call order; (c) stale
	// declared phases.
	lastPos := token.NoPos
	lastSpec := ""
	for i, fn := range phaseFns {
		pos, called := driver.callPos[fn]
		if !called {
			c.emitPos(fn.Pos(), RuleTickPhaseOrder,
				fmt.Sprintf("lint.policy declares %s as a phase of %s but the driver never calls it; drop the stale entry", phaseSpecs[i], driverSpec))
			continue
		}
		if lastPos.IsValid() && pos < lastPos {
			c.emitPos(pos, RuleTickPhaseOrder,
				fmt.Sprintf("%s runs before %s in %s, contradicting the declared phase order in `funcs tick-phase-order`", phaseSpecs[i], lastSpec, driverSpec))
		}
		if pos > lastPos {
			lastPos, lastSpec = pos, phaseSpecs[i]
		}
	}

	// (b) Tick-named direct callees on module types must be declared.
	for _, callee := range driver.calleeList {
		if callee.Name() != "Tick" || declared[callee] != "" {
			continue
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		rel, internal := internalRel(c.prog.Mod, named.Obj().Pkg().Path())
		if !internal {
			continue
		}
		c.emitPos(driver.callPos[callee], RuleTickPhaseOrder,
			fmt.Sprintf("%s ticks %s.%s outside the declared phase order; add it to `funcs tick-phase-order`", driverSpec, rel, funcDisplay(callee)))
	}

	// (d) backward cross-phase dataflow over unclassified shared
	// mutable objects: phase closures in declared order, a later
	// phase's write feeding an earlier phase's read.
	var closures []*shardClosure
	for i, fn := range phaseFns {
		cl := newShardClosure(phaseSpecs[i], "phase", nil)
		if err := a.walkClosure(cl, fn); err != nil {
			return fmt.Errorf("tick-phase-order: %w", err)
		}
		closures = append(closures, cl)
	}
	for j := 1; j < len(closures); j++ {
		writer := closures[j]
		for _, obj := range writer.order {
			wAcc := writer.objs[obj]
			if wAcc.writes == 0 {
				continue
			}
			oi := wAcc.info
			if oi.owner != nil {
				if _, isComp := a.compTypes[oi.owner]; isComp {
					continue
				}
			}
			if a.classes.lookup(oi) != nil {
				continue
			}
			for i := 0; i < j; i++ {
				rAcc := closures[i].objs[obj]
				if rAcc == nil || rAcc.reads == 0 {
					continue
				}
				c.emitPos(wAcc.firstWrite.pos, RuleTickPhaseOrder,
					fmt.Sprintf("phase %s writes unclassified %s that earlier phase %s reads; a per-phase barrier would reorder this backward dataflow — classify it in `shared shard-shared` or restructure (via %s)",
						writer.name, oi.key, closures[i].name, wAcc.firstWrite.path))
				break
			}
		}
	}
	return nil
}
