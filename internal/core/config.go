// Package core implements FChain's fault localization pipeline — the
// paper's primary contribution:
//
//   - normal fluctuation modeling (slave side): an online Markov-chain
//     predictor per (component, metric) learns normal workload-driven
//     fluctuation (model.go);
//   - abnormal change point selection (slave side): CUSUM+bootstrap change
//     points, magnitude-outlier filtering, predictability filtering with a
//     burstiness-adaptive FFT threshold, and tangent-based rollback to the
//     manifestation onset (select.go);
//   - integrated fault diagnosis (master side): sorting components into an
//     abnormal-change propagation chain, concurrent-fault grouping,
//     external-factor (workload change) detection, and dependency-based
//     filtering of spurious propagation paths (diagnose.go);
//   - online pinpointing validation: scaling the implicated resource on
//     each pinpointed component and watching the SLO (validate.go).
package core

import (
	"runtime"
	"time"

	"fchain/internal/ingest"
)

// Config holds every FChain tuning knob, with defaults matching the paper's
// §III-A configuration.
type Config struct {
	// LookBack is W, the look-back window in seconds examined before the
	// SLO violation time tv (default 100; the paper uses 500 for the
	// slow-manifesting Hadoop DiskHog).
	LookBack int
	// ConcurrencyThreshold is the maximum difference (seconds) between two
	// components' abnormal-change onsets for them to be treated as
	// concurrent faults (default 2).
	ConcurrencyThreshold int64
	// BurstWindow is Q, the half-window in seconds around a change point
	// used for FFT burst extraction (default 20).
	BurstWindow int
	// SmoothWindow is the moving-average width applied before change point
	// detection (default 5).
	SmoothWindow int
	// Bootstraps and CPConfidence configure CUSUM+bootstrap change point
	// detection (defaults 200 and 0.95).
	Bootstraps   int
	CPConfidence float64
	// MarkovBins and MarkovDecay configure the online prediction model
	// (defaults 40 and 0.999).
	MarkovBins  int
	MarkovDecay float64
	// RingCapacity bounds the per-metric sample history kept by a slave
	// (default LookBack + 2*BurstWindow + 1300: the extra history lets the
	// selection stage calibrate against fluctuation patterns the model has
	// already seen — it must span several workload burst cycles or a burst
	// after a calm stretch reads as abnormal).
	RingCapacity int

	// MinRelMagnitude, when positive, discards candidate change points whose
	// mean-shift magnitude is below MinRelMagnitude × the metric's mean
	// absolute level over the pre-window context. Per-component monitoring
	// at mesh scale needs it: with hundreds of monitored components, even a
	// tiny per-metric false-selection rate on operationally meaningless
	// shifts (a few percent of an idle metric's level) plants spurious
	// onsets in the propagation chain every single run, and the earliest
	// spurious onset steals the chain's source slot from the real fault.
	// Zero (the default) disables the floor, preserving the paper
	// configuration for the small benchmark applications.
	MinRelMagnitude float64

	// FixedThreshold, when positive, replaces the burstiness-adaptive
	// expected prediction error with a fixed absolute threshold. It exists
	// solely to realize the paper's Fixed-Filtering comparison scheme
	// (§III-A, Fig. 12) and should stay zero in normal use.
	FixedThreshold float64

	// ExternalSpread is the maximum spread (seconds) between the earliest
	// and latest component onsets for an all-components-same-trend anomaly
	// to be attributed to an external factor: a workload surge reaches
	// every tier within a few seconds, while a back-pressure cascade takes
	// tens of seconds per hop (default 6).
	ExternalSpread int64

	// AdaptiveSmoothing chooses the smoothing width per metric from the
	// metric's own noise character instead of using the fixed SmoothWindow
	// — the adaptive smoothing the paper lists as ongoing work after
	// observing that fixed smoothing can distort the change point times of
	// affected components under concurrent faults (§III-C). Noisy metrics
	// (sample-to-sample changes comparable to the overall variation) get a
	// wider window; smooth metrics keep a narrow one.
	AdaptiveSmoothing bool

	// DisableRollback turns off tangent-based onset rollback, reporting
	// each abnormal change point's own time as the onset. It exists for
	// ablation studies; production use should keep rollback on.
	DisableRollback bool

	// AdaptiveLookBack enables the adaptive look-back window scheme the
	// paper lists as ongoing work (§III-F): when the configured window
	// yields no abnormal component at all despite a confirmed SLO
	// violation, the manifestation is slower than the window (the Hadoop
	// DiskHog case) and the analysis retries with progressively longer
	// windows up to maxLookBack.
	AdaptiveLookBack bool

	// ReorderWindow is how many seconds the ingest sanitizer buffers
	// samples to reabsorb out-of-order delivery before releasing them to
	// the model (default 5; negative disables reordering). Only the
	// sanitizing Ingest path uses it; the strict Observe path rejects any
	// time regression outright.
	ReorderWindow int
	// MaxFillGap is the longest collection gap (seconds) the sanitizer
	// repairs by linear interpolation; longer gaps sever the metric's
	// dense history instead (default 10; negative disables filling).
	MaxFillGap int
	// ClampSigma bounds accepted sample magnitudes to
	// mean ± ClampSigma·stddev of the stream seen so far — a last-resort
	// guard against corrupted readings (default 16; negative disables).
	// The default is deliberately generous: genuine fault signatures are a
	// few sigma and must pass untouched.
	ClampSigma float64

	// QuarantineCooldown is how long a metric stream whose selection
	// kernel panicked stays quarantined (skipped with a quality flag)
	// before the engine probes it for re-admission (default 30s). A clean
	// probe re-admits the stream; another panic re-trips the quarantine.
	QuarantineCooldown time.Duration

	// Streaming enables streaming selection (stream.go): every Observe
	// feeds a per-metric incremental CUSUM accumulator (the hot-stream
	// telemetry), and analyses consult per-metric kernel and FFT memos, so
	// re-localizing an unchanged stream replays its verdict. Output is
	// bit-identical with the flag on or off: the memos replay batch-kernel
	// bits, and every analysis they cannot answer runs the batch kernel.
	// Off by default: pure-batch deployments keep the cheapest possible
	// Observe.
	Streaming bool

	// Parallelism bounds the analysis worker pool that fans abnormal change
	// point selection out per component and, within a component, per metric:
	// 0 (the default) resolves to runtime.GOMAXPROCS(0) at analysis time, 1
	// forces the serial path, and larger values cap the pool. The setting
	// never changes results — every selection task is deterministic per
	// (component, metric, tv), so parallel output is bit-identical to
	// serial. It stays 0 in withDefaults so configurations serialized on one
	// machine do not pin another machine to the wrong core count.
	Parallelism int
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.LookBack <= 0 {
		c.LookBack = 100
	}
	if c.ConcurrencyThreshold <= 0 {
		c.ConcurrencyThreshold = 2
	}
	if c.BurstWindow <= 0 {
		c.BurstWindow = 20
	}
	if c.SmoothWindow <= 0 {
		c.SmoothWindow = 5
	}
	if c.Bootstraps <= 0 {
		c.Bootstraps = 200
	}
	if c.CPConfidence <= 0 || c.CPConfidence > 1 {
		c.CPConfidence = 0.95
	}
	if c.MarkovBins <= 0 {
		c.MarkovBins = 40
	}
	if c.MarkovDecay <= 0 || c.MarkovDecay > 1 {
		c.MarkovDecay = 0.999
	}
	if c.RingCapacity <= 0 {
		c.RingCapacity = c.LookBack + 2*c.BurstWindow + 1300
	}
	if c.ExternalSpread <= 0 {
		c.ExternalSpread = 6
	}
	if c.ReorderWindow == 0 {
		c.ReorderWindow = ingest.DefaultReorderWindow
	}
	if c.MaxFillGap == 0 {
		c.MaxFillGap = ingest.DefaultMaxFillGap
	}
	if c.ClampSigma == 0 {
		c.ClampSigma = ingest.DefaultClampSigma
	}
	if c.QuarantineCooldown <= 0 {
		c.QuarantineCooldown = defaultQuarantineCooldown
	}
	return c
}

// workerCount resolves a Parallelism value against the machine: 0 means
// GOMAXPROCS, anything below 1 is clamped to the serial path.
func workerCount(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(parallelism, 1)
}

// ingestConfig maps the data-quality knobs onto the sanitizer's own config.
func (c Config) ingestConfig() ingest.Config {
	return ingest.Config{
		ReorderWindow: c.ReorderWindow,
		MaxFillGap:    c.MaxFillGap,
		ClampSigma:    c.ClampSigma,
	}
}
