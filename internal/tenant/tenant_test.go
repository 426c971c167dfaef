package tenant

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestOpenNamespaceAdmitsAnyName(t *testing.T) {
	r := NewRegistry(nil, 0)
	for _, name := range []string{"a", "team-x", "z"} {
		if err := r.Admit(name); err != nil {
			t.Errorf("Admit(%q) in open namespace: %v", name, err)
		}
	}
	if err := r.Admit(""); !errors.Is(err, ErrUnknown) {
		t.Errorf("Admit(\"\") = %v, want ErrUnknown", err)
	}
}

func TestClosedNamespaceRejectsOutsiders(t *testing.T) {
	r := NewRegistry([]string{"alpha", "beta"}, 0)
	if err := r.Admit("alpha"); err != nil {
		t.Errorf("Admit(alpha): %v", err)
	}
	if err := r.Admit("mallory"); !errors.Is(err, ErrUnknown) {
		t.Errorf("Admit(mallory) = %v, want ErrUnknown", err)
	}
}

func TestQuotaBucketRefillsOverTime(t *testing.T) {
	now := time.Unix(1000, 0)
	r := NewRegistry(nil, 2) // one token per 30 s, bucket of 2
	r.SetClock(func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if err := r.Admit("t"); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	if err := r.Admit("t"); !errors.Is(err, ErrQuota) {
		t.Fatalf("bucket empty, Admit = %v, want ErrQuota", err)
	}

	now = now.Add(30 * time.Second) // refills exactly one token
	if err := r.Admit("t"); err != nil {
		t.Fatalf("after 30s refill: %v", err)
	}
	if err := r.Admit("t"); !errors.Is(err, ErrQuota) {
		t.Fatalf("token spent again, Admit = %v, want ErrQuota", err)
	}

	now = now.Add(time.Hour) // refill far past the cap
	for i := 0; i < 2; i++ {
		if err := r.Admit("t"); err != nil {
			t.Fatalf("refilled admit %d: %v", i, err)
		}
	}
	if err := r.Admit("t"); !errors.Is(err, ErrQuota) {
		t.Fatalf("bucket overfilled past its cap of 2, Admit = %v, want ErrQuota", err)
	}
}

func TestQuotaIsPerTenant(t *testing.T) {
	now := time.Unix(0, 0)
	r := NewRegistry(nil, 1)
	r.SetClock(func() time.Time { return now })
	if err := r.Admit("loud"); err != nil {
		t.Fatal(err)
	}
	if err := r.Admit("loud"); !errors.Is(err, ErrQuota) {
		t.Fatalf("loud should be out of tokens, got %v", err)
	}
	// A different tenant's bucket is untouched by loud's spending.
	if err := r.Admit("quiet"); err != nil {
		t.Fatalf("quiet tenant sheds with loud's bucket empty: %v", err)
	}
}

// TestUnlimitedQuotaKeepsNoBuckets: under an unlimited quota nothing is
// charged, so admitting any number of distinct names keeps no state.
func TestUnlimitedQuotaKeepsNoBuckets(t *testing.T) {
	r := NewRegistry(nil, 0)
	for i := 0; i < 10_000; i++ {
		if err := r.Admit(fmt.Sprintf("tenant-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.buckets); n != 0 {
		t.Fatalf("%d buckets kept under an unlimited quota, want 0", n)
	}
}
