package core

import "testing"

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	// Paper §III-A parameter configuration.
	if cfg.LookBack != 100 {
		t.Errorf("LookBack = %d, want 100", cfg.LookBack)
	}
	if cfg.ConcurrencyThreshold != 2 {
		t.Errorf("ConcurrencyThreshold = %d, want 2", cfg.ConcurrencyThreshold)
	}
	if cfg.BurstWindow != 20 {
		t.Errorf("BurstWindow = %d, want 20", cfg.BurstWindow)
	}
	if topFreqFrac != 0.9 {
		t.Errorf("topFreqFrac = %v, want 0.9", topFreqFrac)
	}
	if burstPercentile != 90 {
		t.Errorf("burstPercentile = %v, want 90", burstPercentile)
	}
	if tangentTol != 0.1 {
		t.Errorf("tangentTol = %v, want 0.1", tangentTol)
	}
	if ValidationObserve != 30 {
		t.Errorf("ValidationObserve = %d, want 30 (Table II)", ValidationObserve)
	}
}

func TestConfigDefaultsIdempotent(t *testing.T) {
	a := DefaultConfig()
	b := a.withDefaults()
	if a != b {
		t.Errorf("withDefaults is not idempotent:\n a=%+v\n b=%+v", a, b)
	}
}

func TestConfigOverridesPreserved(t *testing.T) {
	cfg := Config{
		LookBack:             500,
		ConcurrencyThreshold: 5,
		FixedThreshold:       2.5,
		AdaptiveLookBack:     true,
		DisableRollback:      true,
	}.withDefaults()
	if cfg.LookBack != 500 || cfg.ConcurrencyThreshold != 5 {
		t.Error("explicit values overwritten by defaults")
	}
	if cfg.FixedThreshold != 2.5 || !cfg.AdaptiveLookBack || !cfg.DisableRollback {
		t.Error("feature flags overwritten by defaults")
	}
	if cfg.RingCapacity < cfg.LookBack+2*cfg.BurstWindow {
		t.Errorf("RingCapacity %d cannot cover the look-back window", cfg.RingCapacity)
	}
}

func TestRingCapacityCoversMaxLookBack(t *testing.T) {
	// With the adaptive scheme enabled, the slave must retain enough
	// history for the widest retry window.
	cfg := Config{AdaptiveLookBack: true}.withDefaults()
	if maxLookBack := max(500, cfg.LookBack); cfg.RingCapacity < maxLookBack+2*cfg.BurstWindow {
		t.Errorf("RingCapacity %d cannot cover the widest retry window %d", cfg.RingCapacity, maxLookBack)
	}
}
