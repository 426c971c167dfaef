package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"fchain/internal/timeseries"
)

// Steady returns a low-variance profile, useful for tests that need a
// predictable load.
func Steady(base float64) Profile {
	return Profile{Name: "steady", Base: base, NoiseFrac: 0.01, NoisePhi: 0.5}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := NewSynthetic(NASA(), 600, 42)
	b := NewSynthetic(NASA(), 600, 42)
	for i := int64(0); i < 600; i++ {
		if a.Rate(i) != b.Rate(i) {
			t.Fatalf("trace not deterministic at t=%d", i)
		}
	}
	c := NewSynthetic(NASA(), 600, 43)
	same := true
	for i := int64(0); i < 600; i++ {
		if a.Rate(i) != c.Rate(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different traces")
	}
}

func TestSyntheticNonNegative(t *testing.T) {
	for _, p := range []Profile{NASA(), ClarkNet(), Steady(10)} {
		tr := NewSynthetic(p, 3600, 7)
		for i := int64(0); i < 3600; i++ {
			if tr.Rate(i) < 0 {
				t.Fatalf("%s: negative rate at t=%d", p.Name, i)
			}
		}
	}
}

func TestSyntheticMeanNearBase(t *testing.T) {
	p := NASA()
	tr := NewSynthetic(p, 3600, 11)
	var sum float64
	for i := int64(0); i < 3600; i++ {
		sum += tr.Rate(i)
	}
	mean := sum / 3600
	if math.Abs(mean-p.Base) > 0.3*p.Base {
		t.Errorf("mean rate = %v, want near base %v", mean, p.Base)
	}
}

func TestSyntheticHasFluctuation(t *testing.T) {
	// The whole point of the realistic traces: non-trivial variance.
	tr := NewSynthetic(ClarkNet(), 3600, 3)
	vals := make([]float64, 3600)
	for i := range vals {
		vals[i] = tr.Rate(int64(i))
	}
	cv := timeseries.Std(vals) / timeseries.Mean(vals)
	if cv < 0.05 {
		t.Errorf("coefficient of variation = %v, want fluctuating workload", cv)
	}
}

func TestSyntheticWraps(t *testing.T) {
	tr := NewSynthetic(Steady(50), 100, 1)
	if tr.Rate(0) != tr.Rate(100) {
		t.Error("rates should wrap past the horizon")
	}
	if tr.Rate(-1) < 0 {
		t.Error("negative timestamps should not panic or go negative")
	}
}

func TestSyntheticMinHorizon(t *testing.T) {
	tr := NewSynthetic(Steady(5), 0, 1)
	if len(tr.rates) != 1 {
		t.Errorf("horizon = %d, want 1", len(tr.rates))
	}
}

func TestConstant(t *testing.T) {
	var tr Trace = Constant(42)
	if tr.Rate(0) != 42 || tr.Rate(1e6) != 42 {
		t.Error("Constant should be constant")
	}
}

func TestLoadCSV(t *testing.T) {
	in := "# comment\n10\n 20.5 \n\n1630000000,30\n"
	r, err := LoadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rates) != 3 {
		t.Fatalf("horizon = %d, want 3", len(r.rates))
	}
	want := []float64{10, 20.5, 30}
	for i, w := range want {
		if got := r.Rate(int64(i)); got != w {
			t.Errorf("Rate(%d) = %v, want %v", i, got, w)
		}
	}
	// Wrap.
	if r.Rate(3) != 10 {
		t.Error("replay should wrap")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"garbage", "abc\n"},
		{"negative", "-5\n"},
		{"empty", "# nothing\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := LoadCSV(strings.NewReader(tt.give)); err == nil {
				t.Errorf("LoadCSV(%q) should error", tt.give)
			}
		})
	}
}

// Property: synthetic rates are finite and non-negative for any seed.
func TestSyntheticSafetyProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := NewSynthetic(ClarkNet(), 300, seed)
		for i := int64(0); i < 300; i++ {
			v := tr.Rate(i)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
