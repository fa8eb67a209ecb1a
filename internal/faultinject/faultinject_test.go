package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func testPlan(seed uint64) *Plan {
	return &Plan{
		Seed: seed,
		Rules: map[Site]Rule{
			SiteEngineStep: {FaultProb: 0.25, Panic: true, DelayProb: 0.5, MaxDelay: time.Millisecond},
			SiteAcquire:    {FaultProb: 0.5},
			SiteGraphLoad:  {FaultProb: 1, Err: errors.New("disk on fire")},
		},
	}
}

// TestPlanDeterministic: the same (seed, site, key) always yields the
// same decision, including under concurrent querying.
func TestPlanDeterministic(t *testing.T) {
	p := testPlan(42)
	const n = 4096
	want := make([]Decision, n)
	for k := range want {
		want[k] = p.Decide(SiteEngineStep, uint64(k))
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := testPlan(42) // independent instance, same seed
			for k := 0; k < n; k++ {
				got := q.Decide(SiteEngineStep, uint64(k))
				if got != want[k] {
					errs[w] = errors.New("decision diverged across instances")
					return
				}
				if got2 := p.Decide(SiteEngineStep, uint64(k)); got2 != want[k] {
					errs[w] = errors.New("decision diverged under concurrency")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanRates: firing frequencies track the configured probabilities,
// and distinct seeds give distinct sequences.
func TestPlanRates(t *testing.T) {
	p := testPlan(1)
	const n = 20000
	faults, delays := 0, 0
	for k := 0; k < n; k++ {
		d := p.Decide(SiteEngineStep, uint64(k))
		if d.Panic {
			faults++
		}
		if d.Delay > 0 {
			delays++
			if d.Delay > time.Millisecond+1 {
				t.Fatalf("delay %v exceeds MaxDelay", d.Delay)
			}
		}
	}
	if f := float64(faults) / n; f < 0.2 || f > 0.3 {
		t.Errorf("fault rate %.3f, want ~0.25", f)
	}
	if f := float64(delays) / n; f < 0.45 || f > 0.55 {
		t.Errorf("delay rate %.3f, want ~0.5", f)
	}
	q := testPlan(2)
	same := 0
	for k := 0; k < n; k++ {
		if p.Decide(SiteAcquire, uint64(k)).Fault() == q.Decide(SiteAcquire, uint64(k)).Fault() {
			same++
		}
	}
	if same == n {
		t.Error("seeds 1 and 2 produced identical fault sequences")
	}
}

// TestPlanSiteIndependence: the same key must not fire identically
// across sites (site is part of the hash).
func TestPlanSiteIndependence(t *testing.T) {
	p := &Plan{Seed: 7, Rules: map[Site]Rule{
		SiteAcquire: {FaultProb: 0.5},
		SiteSweep:   {FaultProb: 0.5},
	}}
	same := 0
	const n = 4096
	for k := 0; k < n; k++ {
		if p.Decide(SiteAcquire, uint64(k)).Fault() == p.Decide(SiteSweep, uint64(k)).Fault() {
			same++
		}
	}
	if same == n || same == 0 {
		t.Errorf("sites perfectly correlated (%d/%d): site not hashed in", same, n)
	}
}

// TestPlanDefaults: unruled sites never fire; default error is
// ErrInjected; disabled plans are inert; nil injectors are safe.
func TestPlanDefaults(t *testing.T) {
	p := testPlan(3)
	for k := 0; k < 1000; k++ {
		if d := p.Decide(Site("client.drop"), uint64(k)); d != (Decision{}) {
			t.Fatalf("unruled site fired: %+v", d)
		}
	}
	fired := false
	for k := 0; k < 64 && !fired; k++ {
		if d := p.Decide(SiteAcquire, uint64(k)); d.Err != nil {
			fired = true
			if !errors.Is(d.Err, ErrInjected) {
				t.Errorf("default error %v is not ErrInjected", d.Err)
			}
		}
	}
	if !fired {
		t.Fatal("FaultProb 0.5 never fired in 64 draws")
	}
	if d := p.Decide(SiteGraphLoad, 0); d.Err == nil || errors.Is(d.Err, ErrInjected) {
		t.Errorf("custom rule error not honored: %v", d.Err)
	}

	p.SetEnabled(false)
	for k := 0; k < 1000; k++ {
		if d := p.Decide(SiteGraphLoad, uint64(k)); d != (Decision{}) {
			t.Fatalf("disabled plan fired: %+v", d)
		}
	}
	p.SetEnabled(true)
	if d := p.Decide(SiteGraphLoad, 0); d.Err == nil {
		t.Error("re-enabled plan did not resume injecting")
	}

	if d := Decide(nil, SiteAcquire, 0); d != (Decision{}) {
		t.Errorf("nil injector fired: %+v", d)
	}
}

// TestSequencer: per-site counters are independent and dense.
func TestSequencer(t *testing.T) {
	var s Sequencer
	for i := uint64(0); i < 10; i++ {
		if k := s.Next(SiteAcquire); k != i {
			t.Fatalf("acquire key %d, want %d", k, i)
		}
	}
	if k := s.Next(SiteSweep); k != 0 {
		t.Fatalf("sweep counter shared with acquire: first key %d", k)
	}
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Next(SiteEngineStep)
			}
		}()
	}
	wg.Wait()
	if k := s.Next(SiteEngineStep); k != goroutines*per {
		t.Fatalf("concurrent keys not dense: next = %d, want %d", k, goroutines*per)
	}
}
