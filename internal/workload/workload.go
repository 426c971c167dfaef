// Package workload generates the request-intensity traces that modulate the
// simulated benchmark applications.
//
// The paper modulates RUBiS with the NASA web server trace (July 1995) and
// System S with the ClarkNet trace (August 1995), both from the IRCache
// archive, to obtain "workloads with realistic time variations". Those
// archives are not available offline, so this package synthesizes traces
// with the same character: a diurnal baseline, multiple superimposed
// periodic components, autocorrelated noise, and heavy-tailed transient
// bursts — enough structure that an online model can learn the normal
// fluctuation, and enough burstiness that naive change-point detectors
// false-alarm (the property the evaluation depends on). A CSV replay loader
// is provided for plugging in the real traces when available.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Trace supplies a request intensity (requests per second, or tuples per
// second for stream workloads) for each second of a run.
type Trace interface {
	// Rate returns the arrival rate at second t.
	Rate(t int64) float64
}

// Profile parameterizes a synthetic trace generator.
type Profile struct {
	Name string
	// Base is the mean arrival rate.
	Base float64
	// DiurnalAmp is the relative amplitude of the day/night cycle.
	DiurnalAmp float64
	// DiurnalPeriod is the diurnal period in seconds. Runs last one hour,
	// so the period is compressed relative to a real day to expose the
	// model to full cycles (the paper's one-hour runs likewise see only a
	// slice of a day).
	DiurnalPeriod float64
	// ShortAmp / ShortPeriod add a faster periodic component
	// (e.g. batch arrivals).
	ShortAmp    float64
	ShortPeriod float64
	// NoiseFrac is the relative std of the AR(1) noise.
	NoiseFrac float64
	// NoisePhi is the AR(1) autocorrelation coefficient.
	NoisePhi float64
	// BurstRate is the per-second probability that a transient burst
	// begins; BurstAmp the relative burst height; BurstLen its mean
	// duration in seconds.
	BurstRate float64
	BurstAmp  float64
	BurstLen  int
}

// NASA returns a profile with the character of the NASA-HTTP July 1995
// trace: strong diurnal swing, moderate noise, occasional sharp bursts.
func NASA() Profile {
	return Profile{
		Name:          "nasa-jul95",
		Base:          120,
		DiurnalAmp:    0.35,
		DiurnalPeriod: 1800,
		ShortAmp:      0.12,
		ShortPeriod:   240,
		NoiseFrac:     0.08,
		NoisePhi:      0.85,
		BurstRate:     0.004,
		BurstAmp:      0.6,
		BurstLen:      12,
	}
}

// ClarkNet returns a profile with the character of the ClarkNet August 1995
// trace: a busier ISP workload with heavier short-term burstiness.
func ClarkNet() Profile {
	return Profile{
		Name:          "clarknet-aug95",
		Base:          200,
		DiurnalAmp:    0.25,
		DiurnalPeriod: 2400,
		ShortAmp:      0.18,
		ShortPeriod:   150,
		NoiseFrac:     0.12,
		NoisePhi:      0.8,
		BurstRate:     0.007,
		BurstAmp:      0.8,
		BurstLen:      8,
	}
}

// Synthetic is a deterministic pseudo-random trace realized from a Profile
// and a seed. Rates for every second of the horizon are materialized up
// front so that repeated queries are consistent and cheap.
type Synthetic struct {
	name  string
	rates []float64
}

var _ Trace = (*Synthetic)(nil)

// NewSynthetic realizes profile p over horizon seconds using the given seed.
func NewSynthetic(p Profile, horizon int, seed int64) *Synthetic {
	if horizon < 1 {
		horizon = 1
	}
	rng := rand.New(rand.NewSource(seed))
	rates := make([]float64, horizon)
	noise := 0.0
	burstLeft := 0
	burstHeight := 0.0
	phase := rng.Float64() * 2 * math.Pi
	phase2 := rng.Float64() * 2 * math.Pi
	for t := range rates {
		v := p.Base
		if p.DiurnalPeriod > 0 && p.DiurnalAmp > 0 {
			v += p.Base * p.DiurnalAmp * math.Sin(2*math.Pi*float64(t)/p.DiurnalPeriod+phase)
		}
		if p.ShortPeriod > 0 && p.ShortAmp > 0 {
			v += p.Base * p.ShortAmp * math.Sin(2*math.Pi*float64(t)/p.ShortPeriod+phase2)
		}
		// AR(1) noise.
		noise = p.NoisePhi*noise + rng.NormFloat64()*p.NoiseFrac*p.Base*math.Sqrt(1-p.NoisePhi*p.NoisePhi)
		v += noise
		// Transient bursts with geometric duration.
		if burstLeft == 0 && p.BurstRate > 0 && rng.Float64() < p.BurstRate {
			burstLeft = 1 + rng.Intn(2*maxInt(p.BurstLen, 1))
			burstHeight = p.Base * p.BurstAmp * (0.5 + rng.Float64())
		}
		if burstLeft > 0 {
			v += burstHeight
			burstLeft--
		}
		if v < 0 {
			v = 0
		}
		rates[t] = v
	}
	return &Synthetic{name: p.Name, rates: rates}
}

// Name returns the profile name the trace was realized from.
func (s *Synthetic) Name() string { return s.name }

// Rate implements Trace. Queries beyond the horizon wrap around, so long
// runs remain well defined.
func (s *Synthetic) Rate(t int64) float64 {
	if len(s.rates) == 0 {
		return 0
	}
	idx := int(t) % len(s.rates)
	if idx < 0 {
		idx += len(s.rates)
	}
	return s.rates[idx]
}

// Constant is a fixed-rate trace.
type Constant float64

var _ Trace = Constant(0)

// Rate implements Trace.
func (c Constant) Rate(int64) float64 { return float64(c) }

// Replay is a trace loaded from external data (e.g. a real IRCache-derived
// per-second request count file).
type Replay struct {
	rates []float64
}

var _ Trace = (*Replay)(nil)

// LoadCSV reads a replay trace from r. Each line holds one per-second rate
// (a single float); blank lines and lines starting with '#' are skipped.
func LoadCSV(r io.Reader) (*Replay, error) {
	sc := bufio.NewScanner(r)
	var rates []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Tolerate "timestamp,rate" two-column form.
		if i := strings.LastIndexByte(text, ','); i >= 0 {
			text = strings.TrimSpace(text[i+1:])
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("workload: line %d: negative rate %v", line, v)
		}
		rates = append(rates, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return &Replay{rates: rates}, nil
}

// Rate implements Trace, wrapping past the horizon.
func (r *Replay) Rate(t int64) float64 {
	idx := int(t) % len(r.rates)
	if idx < 0 {
		idx += len(r.rates)
	}
	return r.rates[idx]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
