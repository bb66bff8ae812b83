package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strconv"

	"github.com/nuba-gpu/nuba"
)

// digest is a run's simulated output, flattened to named fields in a
// fixed order and hashed: every Stats counter, the energy breakdown and
// the page-sharing histogram. Two runs of the same inputs agree exactly
// or the simulator lost determinism (or an engine diverged).
type digest struct {
	fields []field
	sum    [sha256.Size]byte
}

type field struct{ name, value string }

func digestOf(res *nuba.Result) digest {
	var d digest
	d.addStruct("Stats", reflect.ValueOf(*res.Stats))
	d.addStruct("Energy", reflect.ValueOf(res.Energy))
	one, two, eleven, over := res.Sharing.Buckets()
	d.add("Sharing.Pages", strconv.Itoa(res.Sharing.Pages()))
	d.add("Sharing.MaxSharers", strconv.Itoa(res.Sharing.MaxSharers()))
	for i, f := range []float64{one, two, eleven, over} {
		d.add(fmt.Sprintf("Sharing.Bucket%d", i), exact(f))
	}
	h := sha256.New()
	for _, f := range d.fields {
		fmt.Fprintf(h, "%s=%s\n", f.name, f.value)
	}
	copy(d.sum[:], h.Sum(nil))
	return d
}

func (d *digest) add(name, value string) { d.fields = append(d.fields, field{name, value}) }

// addStruct adds every int64 and float64 field of v (the only kinds the
// statistics and energy structs hold).
func (d *digest) addStruct(prefix string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		name := prefix + "." + v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			d.add(name, strconv.FormatInt(f.Int(), 10))
		case reflect.Float64:
			d.add(name, exact(f.Float()))
		}
	}
}

// exact formats a float with every digit, so equal strings mean equal
// bits.
func exact(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// diff returns "" when the digests match, else the first differing field
// as "name: got != want".
func (d digest) diff(want digest) string {
	if d.sum == want.sum {
		return ""
	}
	for i := 0; i < len(d.fields) && i < len(want.fields); i++ {
		if g, w := d.fields[i], want.fields[i]; g != w {
			return fmt.Sprintf("%s: %s != %s", g.name, g.value, w.value)
		}
	}
	return fmt.Sprintf("field lists differ: %d != %d fields", len(d.fields), len(want.fields))
}

// short is the digest's printable prefix.
func (d digest) short() string { return fmt.Sprintf("%X", d.sum[:6]) }
