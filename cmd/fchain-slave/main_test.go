package main

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"fchain"
)

func TestParseSample(t *testing.T) {
	comp, ts, kind, v, err := parseSample("db, 1041 , cpu , 37.2")
	if err != nil {
		t.Fatal(err)
	}
	if comp != "db" || ts != 1041 || kind != fchain.CPU || v != 37.2 {
		t.Errorf("parsed %q %d %v %v", comp, ts, kind, v)
	}
}

func TestParseSampleErrors(t *testing.T) {
	tests := []string{
		"db,1041,cpu",         // missing field
		"db,notanumber,cpu,1", // bad time
		"db,1,bogus,1",        // bad metric
		"db,1,cpu,notafloat",  // bad value
	}
	for _, give := range tests {
		if _, _, _, _, err := parseSample(give); err == nil {
			t.Errorf("parseSample(%q) should error", give)
		}
	}
}

// FuzzParseSample feeds the CSV sample parser arbitrary lines: it must not
// panic, and every line it accepts must re-format as
// component,time,metric,value and parse back to the same component, time,
// kind and value bits.
func FuzzParseSample(f *testing.F) {
	for _, seed := range []string{
		"db, 1041 , cpu , 37.2",
		"db,1041,cpu",
		"db,notanumber,cpu,1",
		"db,1,bogus,1",
		"db,1,cpu,notafloat",
		"web,-5,disk_write,-0",
		" app1 ,9223372036854775807,net_in,NaN",
		"app2,0,memory,+Inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		comp, ts, kind, v, err := parseSample(line)
		if err != nil {
			return
		}
		again := fmt.Sprintf("%s,%d,%s,%s", comp, ts, kind, strconv.FormatFloat(v, 'g', -1, 64))
		comp2, ts2, kind2, v2, err := parseSample(again)
		if err != nil {
			t.Fatalf("re-formatted %q (from %q) does not parse: %v", again, line, err)
		}
		if comp2 != comp || ts2 != ts || kind2 != kind || math.Float64bits(v2) != math.Float64bits(v) {
			t.Fatalf("%q parsed to (%q %d %v %v), its re-format %q to (%q %d %v %v)",
				line, comp, ts, kind, v, again, comp2, ts2, kind2, v2)
		}
	})
}
