package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Profile folding: charge every CPU-profile sample to one of the
// repository's modules, by three rules applied in order.
//
//  1. engine: some frame is a component's exported wake-hint method
//     (NextWake, NextEvent, Pending, Idle, StateSig), or a closure inside
//     one. That is the idle-skip engine's own cost, wherever the hint is
//     implemented.
//  2. the module of the innermost frame that lies in this repository
//     (internal/<module>; the root package, the benchmark itself and the
//     modules without a layer of their own fold into "other").
//  3. runtime: no frame lies in this repository (GC workers, the
//     scheduler, the profiler).
//
// The profile is decoded with the standard library only: runtime/pprof
// writes a gzipped profile.proto, of which this reads the samples, their
// locations and functions, labels and the string table.

// repoModule is the module path the rules recognise as this repository.
const repoModule = "github.com/nuba-gpu/nuba"

// hostLayers are the modules reported as <layer>.host_ns_per_cycle.
var hostLayers = []string{
	"engine", "core", "smcore", "cache", "sim", "noc", "llc", "dram",
	"addrmap", "config", "vm", "driver", "mdr", "kir", "other", "runtime",
}

// ownLayers are the internal packages charged under their own name; every
// other repository package is "other".
var ownLayers = map[string]bool{
	"core": true, "smcore": true, "cache": true, "sim": true, "noc": true,
	"llc": true, "dram": true, "addrmap": true, "config": true, "vm": true,
	"driver": true, "mdr": true, "kir": true, "experiments": true,
}

var wakeHints = map[string]bool{"NextWake": true, "NextEvent": true, "Pending": true, "Idle": true, "StateSig": true}

// layerOf charges a stack (function names, innermost first).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isWakeHint(fn) {
			return "engine"
		}
	}
	for _, fn := range stack {
		if l := repoLayer(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// repoLayer returns fn's module when fn lies in this repository, else "".
func repoLayer(fn string) string {
	fn = stripTypeArgs(fn)
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, repoModule+"."):
		return "other"
	case strings.HasPrefix(fn, repoModule+"/internal/"):
		pkg := strings.TrimPrefix(fn, repoModule+"/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if ownLayers[pkg] {
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, repoModule+"/"):
		return "other"
	}
	return ""
}

// isWakeHint reports whether fn is (a closure inside) a wake-hint method
// of a repository type: "<pkg>.(*T).NextWake", "<pkg>.T.Pending.func1".
func isWakeHint(fn string) bool {
	if repoLayer(fn) == "" {
		return false
	}
	fn = stripTypeArgs(fn)
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	parts := strings.Split(fn, ".")
	return len(parts) >= 3 && wakeHints[parts[2]]
}

// stripTypeArgs removes generic instantiations ("Queue[go.shape.*T]"),
// whose dots and slashes would confuse the name parsing.
func stripTypeArgs(fn string) string {
	if !strings.Contains(fn, "[") {
		return fn
	}
	var b strings.Builder
	depth := 0
	for _, c := range fn {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// profSample is one decoded sample: its stack (innermost first), its
// CPU time and its "span" label.
type profSample struct {
	stack []string
	ns    int64
	span  string
}

// parseProfile decodes a gzipped CPU profile as runtime/pprof writes it.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		vals   []int64
		labels [][2]int64 // key, str (string-table indices)
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type
		samples   []rawSample
		funcNames = map[uint64]int64{}    // function id -> name index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, d []byte) error {
		switch num {
		case 1: // sample_type
			return fields(d, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(d, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeated(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, d, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				case 3:
					var kv [2]int64
					err := fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(d, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(d, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(d))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{ns: s.vals[cpu]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ps.stack = append(ps.stack, str(funcNames[f]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "span" {
				ps.span = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// fields walks the protobuf fields of b. Varint fields pass their value
// as v; length-delimited fields pass their bytes as d; fixed-width
// fields are skipped.
func fields(b []byte, f func(num int, v uint64, d []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var d []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			d, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unknown wire type %d", wire)
		}
		if err := f(num, v, d); err != nil {
			return err
		}
	}
	return nil
}

// repeated reads a repeated varint field in either encoding: one value
// (v, d == nil) or a packed run (d).
func repeated(v uint64, d []byte, f func(uint64)) error {
	if d == nil {
		f(v)
		return nil
	}
	for len(d) > 0 {
		x, n := binary.Uvarint(d)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		d = d[n:]
	}
	return nil
}
