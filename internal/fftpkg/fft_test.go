package fftpkg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// FFT computes the discrete Fourier transform of x using an iterative
// radix-2 Cooley-Tukey algorithm. The input is zero-padded to the next power
// of two; the returned slice has that padded length.
func FFT(x []float64) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	n := nextPow2(len(x))
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	transform(buf, false)
	return buf, nil
}

// IFFT computes the inverse discrete Fourier transform, returning the real
// part of the time-domain signal. The input length must be a power of two
// (as produced by FFT).
func IFFT(freq []complex128) ([]float64, error) {
	if len(freq) == 0 {
		return nil, ErrEmpty
	}
	if len(freq)&(len(freq)-1) != 0 {
		return nil, errors.New("fftpkg: IFFT input length must be a power of two")
	}
	buf := make([]complex128, len(freq))
	copy(buf, freq)
	transform(buf, true)
	out := make([]float64, len(buf))
	inv := 1 / float64(len(buf))
	for i, c := range buf {
		out[i] = real(c) * inv
	}
	return out, nil
}

// BurstSignal isolates the high-frequency component of x. Frequencies are
// ranked by index (distance from DC); the top highFrac fraction of the
// spectrum (e.g. 0.9 keeps the 90% highest frequencies, discarding the
// slow-moving 10%) is retained and transformed back to the time domain.
// The result has the same length as x.
func BurstSignal(x []float64, highFrac float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	sc := scratchPool.Get().(*scratch)
	buf := burstInto(sc, x, highFrac)
	out := make([]float64, len(x))
	for i := range out {
		out[i] = real(buf[i])
	}
	scratchPool.Put(sc)
	return out, nil
}

func TestFFTEmpty(t *testing.T) {
	if _, err := FFT(nil); err == nil {
		t.Error("FFT(nil) should error")
	}
	if _, err := IFFT(nil); err == nil {
		t.Error("IFFT(nil) should error")
	}
}

func TestIFFTRejectsNonPow2(t *testing.T) {
	if _, err := IFFT(make([]complex128, 3)); err == nil {
		t.Error("IFFT must reject non-power-of-two input")
	}
}

func TestFFTConstantSignal(t *testing.T) {
	x := []float64{3, 3, 3, 3}
	freq, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	// All energy at DC.
	if math.Abs(real(freq[0])-12) > 1e-9 {
		t.Errorf("DC component = %v, want 12", freq[0])
	}
	for k := 1; k < len(freq); k++ {
		if math.Hypot(real(freq[k]), imag(freq[k])) > 1e-9 {
			t.Errorf("freq[%d] = %v, want 0", k, freq[k])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// cos(2*pi*k0*i/n) should put energy at bins k0 and n-k0 only.
	const n, k0 = 64, 5
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * k0 * float64(i) / n)
	}
	freq, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := range freq {
		mag := math.Hypot(real(freq[k]), imag(freq[k]))
		if k == k0 || k == n-k0 {
			if math.Abs(mag-n/2) > 1e-6 {
				t.Errorf("bin %d magnitude = %v, want %v", k, mag, float64(n)/2)
			}
		} else if mag > 1e-6 {
			t.Errorf("bin %d magnitude = %v, want ~0", k, mag)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 7, 16, 33, 100, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		freq, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := IFFT(freq)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: roundtrip[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
		// Zero padding must reconstruct as zeros.
		for i := n; i < len(back); i++ {
			if math.Abs(back[i]) > 1e-8 {
				t.Fatalf("n=%d: padding[%d] = %v, want 0", n, i, back[i])
			}
		}
	}
}

// Property: FFT round trip is the identity for arbitrary signals.
func TestFFTRoundTripProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Mod(v, 1e6)
		}
		freq, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(freq)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval's theorem — energy is conserved (within padding).
func TestFFTParsevalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Mod(v, 1e4)
		}
		freq, err := FFT(x)
		if err != nil {
			return false
		}
		var timeE, freqE float64
		for _, v := range x {
			timeE += v * v
		}
		for _, c := range freq {
			freqE += real(c)*real(c) + imag(c)*imag(c)
		}
		freqE /= float64(len(freq))
		return math.Abs(timeE-freqE) <= 1e-6*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBurstSignalRemovesTrend(t *testing.T) {
	// Slow band-limited oscillation + fast oscillation: the burst signal
	// (top 90% of frequencies) should retain the fast component and drop
	// the slow one.
	const n = 128
	x := make([]float64, n)
	for i := range x {
		slow := 20 * math.Cos(2*math.Pi*1*float64(i)/n)
		fast := 5 * math.Cos(2*math.Pi*30*float64(i)/n)
		x[i] = slow + fast
	}
	burst, err := BurstSignal(x, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst) != n {
		t.Fatalf("burst length = %d, want %d", len(burst), n)
	}
	for i := range burst {
		fast := 5 * math.Cos(2*math.Pi*30*float64(i)/n)
		if math.Abs(burst[i]-fast) > 1e-6 {
			t.Fatalf("burst[%d] = %v, want fast component %v", i, burst[i], fast)
		}
	}
}

func TestBurstSignalAllFrequencies(t *testing.T) {
	x := []float64{1, 4, 2, 8, 5, 7, 1, 0}
	burst, err := BurstSignal(x, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(burst[i]-x[i]) > 1e-8 {
			t.Errorf("highFrac=1 should reproduce input: burst[%d]=%v want %v", i, burst[i], x[i])
		}
	}
}

func TestBurstSignalNoFrequencies(t *testing.T) {
	x := []float64{1, 4, 2, 8, 5, 7, 1, 0}
	burst, err := BurstSignal(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range burst {
		if math.Abs(burst[i]) > 1e-8 {
			t.Errorf("highFrac=0 should zero everything: burst[%d]=%v", i, burst[i])
		}
	}
}

func TestBurstSignalClampsFrac(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if _, err := BurstSignal(x, -3); err != nil {
		t.Errorf("highFrac<0 should clamp, got error %v", err)
	}
	if _, err := BurstSignal(x, 7); err != nil {
		t.Errorf("highFrac>1 should clamp, got error %v", err)
	}
}

func TestExpectedErrorBurstyVsStable(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	stable := make([]float64, n)
	bursty := make([]float64, n)
	for i := range stable {
		stable[i] = 50 + 0.2*rng.NormFloat64()
		bursty[i] = 50 + 15*rng.NormFloat64()
	}
	es, err := ExpectedError(stable, 0.9, 90)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := ExpectedError(bursty, 0.9, 90)
	if err != nil {
		t.Fatal(err)
	}
	if eb <= es {
		t.Errorf("bursty expected error (%v) should exceed stable (%v)", eb, es)
	}
	// This is the core Fig. 4 behaviour: thresholds scale with burstiness.
	if eb < 5*es {
		t.Errorf("bursty/stable expected-error ratio = %v, want clearly separated", eb/es)
	}
}

func TestExpectedErrorEmpty(t *testing.T) {
	if _, err := ExpectedError(nil, 0.9, 90); err == nil {
		t.Error("ExpectedError(nil) should error")
	}
}

// Property: expected error is non-negative and monotone-ish in percentile.
func TestExpectedErrorMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) < 2 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Mod(v, 1e4)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		ea, err := ExpectedError(x, 0.9, pa)
		if err != nil {
			return false
		}
		eb, err := ExpectedError(x, 0.9, pb)
		if err != nil {
			return false
		}
		return ea >= 0 && eb >= 0 && ea <= eb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
