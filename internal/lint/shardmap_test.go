package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// loadRepo loads the real module with the real committed lint.policy —
// the same pair TestRepoLintsClean checks.
func loadRepo(t *testing.T) (*Program, *Policy) {
	t.Helper()
	mod, err := FindModule("../..")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	pol, err := ParsePolicy(filepath.Join(mod.Dir, "lint.policy"))
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	prog, err := Load(mod, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return prog, pol
}

// TestShardMapMatchesCommitted locks docs/shardmap.json to the
// analyzer's current output: the committed partition plan must be
// byte-identical to `nubalint -shardmap ./...`. Regenerate with
//
//	REGEN=1 go test ./internal/lint -run TestShardMapMatchesCommitted
//
// and inspect the diff — a footprint object appearing or changing class
// is a semantic change to the partition plan, not noise.
func TestShardMapMatchesCommitted(t *testing.T) {
	prog, pol := loadRepo(t)
	got, err := ShardMapJSON(prog, pol)
	if err != nil {
		t.Fatalf("ShardMapJSON: %v", err)
	}
	path := filepath.Join("..", "..", "docs", "shardmap.json")
	if os.Getenv("REGEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read committed map: %v (set REGEN=1 to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("docs/shardmap.json is stale: the partition plan drifted from the code.\nRegenerate with `make shardmap` (or REGEN=1 go test ./internal/lint -run TestShardMapMatchesCommitted) and review the diff.")
	}
}

// TestShardMapJSON checks the map's structure on the fixture module:
// every declared component appears with its tick-and-hint roots, the
// footprint carries the policy's classifications (field-level entries
// overriding type-level ones), declared ports list their installed
// targets, and the phases section reproduces the declared order.
func TestShardMapJSON(t *testing.T) {
	prog, pol := loadFixture(t)
	out, err := ShardMapJSON(prog, pol)
	if err != nil {
		t.Fatalf("ShardMapJSON: %v", err)
	}
	var m ShardMap
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if m.Schema != "nuba-shardmap/v1" {
		t.Errorf("schema = %q", m.Schema)
	}
	if len(m.Components) != 2 || m.Components[0].Type != "shardcomp.Core" || m.Components[1].Type != "shardcomp.Bank" {
		t.Fatalf("components = %+v, want Core then Bank in policy order", m.Components)
	}
	core := m.Components[0]
	if len(core.Roots) != 2 || core.Roots[0] != "shardcomp.Core.Tick" || core.Roots[1] != "shardcomp.Core.NextWake" {
		t.Errorf("Core roots = %v", core.Roots)
	}
	classes := make(map[string]string)
	for _, f := range core.Footprint {
		classes[f.Owner+"/"+f.Class] = f.Class
		for _, fl := range f.Fields {
			if fl.Site == "" || fl.Path == "" {
				t.Errorf("footprint field %s.%s has no evidence site/path", f.Owner, fl.Field)
			}
		}
	}
	for _, want := range []string{
		"shardcomp.Core/own",
		"shardstate.Local/partition",
		"shardstate.Tally/commutative",
		"shardstate.Tally/partition", // field-level Note override splits the group
		"shardstate.Mailbox/barrier-exchange",
		"shardstate.Reg/unclassified",
		"shardcomp.Bank/other-partition",
	} {
		if _, ok := classes[want]; !ok {
			t.Errorf("Core footprint missing %s (have %v)", want, classes)
		}
	}
	if len(core.Ports) == 0 || core.Ports[0].Name != "shardcomp.Core.Send" {
		t.Errorf("Core ports = %+v, want declared Send port first", core.Ports)
	}
	var sendTargets []string
	for _, s := range m.Seams {
		if s.Seam == "shardcomp.Core.Send" {
			sendTargets = s.Targets
		}
	}
	if len(sendTargets) != 1 || sendTargets[0] != "sharddrv.Engine.push" {
		t.Errorf("Send targets = %v, want the engine's push method", sendTargets)
	}
	if m.Phases == nil || m.Phases.Driver != "sharddrv.Engine.step" {
		t.Fatalf("phases = %+v", m.Phases)
	}
	wantOrder := []string{"shardcomp.Bank.Tick", "shardcomp.Core.Tick", "sharddrv.Idle.Tick"}
	if len(m.Phases.Order) != len(wantOrder) {
		t.Fatalf("phase order = %v", m.Phases.Order)
	}
	for i, p := range wantOrder {
		if m.Phases.Order[i] != p {
			t.Errorf("phase[%d] = %q, want %q", i, m.Phases.Order[i], p)
		}
	}
	// Registry is written by Core's phase and read by Bank's: it is
	// unclassified, so it must surface in the cross-phase section.
	var crossObjs []string
	for _, c := range m.Phases.CrossPhase {
		crossObjs = append(crossObjs, c.Object)
	}
	if len(crossObjs) != 1 || crossObjs[0] != "shardstate.Reg.Pending" {
		t.Errorf("cross-phase objects = %v, want exactly shardstate.Reg.Pending", crossObjs)
	}
	// Determinism: a second run over a fresh load must be byte-identical.
	prog2, pol2 := loadFixture(t)
	out2, err := ShardMapJSON(prog2, pol2)
	if err != nil {
		t.Fatalf("ShardMapJSON (second run): %v", err)
	}
	if !bytes.Equal(out, out2) {
		t.Error("ShardMapJSON is not deterministic across loads")
	}
}

// TestShardMapRequiresComponents pins the error path: without any
// `structs shard-footprint` entries there is no partition plan to emit.
func TestShardMapRequiresComponents(t *testing.T) {
	prog, _ := loadFixture(t)
	pol, err := ParsePolicyData("layer shardcomp =\n", "test.policy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShardMapJSON(prog, pol); err == nil {
		t.Error("ShardMapJSON succeeded with no declared components")
	}
}
