package harness

import (
	"strings"
	"testing"

	"gridrealloc/internal/core"
	"gridrealloc/internal/platform"
)

func TestCombosEnumerateFullGrid(t *testing.T) {
	combos := Combos()
	if len(combos) != 72 {
		t.Fatalf("got %d combos, want 72 (2 policies x 3 algorithms x 6 heuristics x 2 outage policies)", len(combos))
	}
	seen := make(map[string]bool, len(combos))
	for _, c := range combos {
		if seen[c.String()] {
			t.Fatalf("duplicate combo %s", c)
		}
		seen[c.String()] = true
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1<<63 + 17} {
		a, b := Generate(seed), Generate(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: specs differ:\n  %s\n  %s", seed, a, b)
		}
		if a.Trace.Len() != b.Trace.Len() {
			t.Fatalf("seed %d: trace sizes differ", seed)
		}
		for i := range a.Trace.Jobs {
			if a.Trace.Jobs[i] != b.Trace.Jobs[i] {
				t.Fatalf("seed %d: job %d differs: %+v vs %+v", seed, i, a.Trace.Jobs[i], b.Trace.Jobs[i])
			}
		}
		if got, want := a.Combo.String(), Combos()[seed%72].String(); got != want {
			t.Fatalf("seed %d: combo %s, want grid entry %s", seed, got, want)
		}
	}
}

func TestGenerateStaysInBounds(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		s := Generate(seed)
		if s.Trace.Len() < 1 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if n := len(s.Platform.Clusters); n < 1 || n > 16 {
			t.Fatalf("seed %d: %d clusters", seed, n)
		}
		if err := s.Platform.Validate(); err != nil {
			t.Fatalf("seed %d: invalid platform: %v", seed, err)
		}
		if s.ReallocPeriod < 600 {
			t.Fatalf("seed %d: realloc period %d", seed, s.ReallocPeriod)
		}
		if s.MaintenanceWindows+s.OutageWindows != s.CapacityWindows {
			t.Fatalf("seed %d: window counts inconsistent", seed)
		}
	}
}

// TestOracleAcceptsSampleSeeds runs the full oracle over a spread of seeds;
// this is the harness's own smoke test (cmd/gridfuzz and the fuzz target
// cover volume).
func TestOracleAcceptsSampleSeeds(t *testing.T) {
	seeds := []uint64{0, 1, 7, 42, 97, 1234}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		s := Generate(seed)
		if err := Check(s); err != nil {
			t.Errorf("seed %d (%s): %v", seed, s, err)
		}
	}
}

// TestOracleCatchesBrokenDigest sanity-checks the oracle itself: a spec
// whose two runs genuinely differ (mutated between runs) must be reported.
// The cheapest controlled breakage is a conservation violation: hand the
// checker a result missing one record.
func TestOracleCatchesMissingJob(t *testing.T) {
	s := Generate(3) // any seed
	cfg, err := s.config(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Trace.Jobs[0].ID
	delete(res.Jobs, victim)
	if err := checkConservation(s, res); err == nil {
		t.Fatal("conservation check accepted a result with a dropped job")
	}
	// And a record that claims to finish before it starts.
	res2, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res2.Jobs[victim]
	rec.Completion = rec.Start - 1
	if err := checkConservation(s, res2); err == nil || !strings.Contains(err.Error(), "before its start") {
		t.Fatalf("conservation check missed inverted times: %v", err)
	}
}

// TestDigestSensitivity pins that the digest reacts to every per-job field
// it claims to cover.
func TestDigestSensitivity(t *testing.T) {
	s := Generate(5)
	cfg, err := s.config(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Digest(res)
	id := s.Trace.Jobs[0].ID
	res.Jobs[id].Completion++
	if Digest(res) == base {
		t.Fatal("digest ignores completion times")
	}
	res.Jobs[id].Completion--
	res.Jobs[id].Killed = !res.Jobs[id].Killed
	if Digest(res) == base {
		t.Fatal("digest ignores the kill flag")
	}
}

// TestZeroCapacityInertnessProperty verifies the inertness invariant on a
// platform that definitely has windows removed: stripping every window and
// flipping the outage policy must not change the digest of a windowless
// run.
func TestStrippedTimelinesAreWindowless(t *testing.T) {
	s := Generate(11)
	stripped := s.Platform
	stripped.Clusters = append([]platform.ClusterSpec(nil), s.Platform.Clusters...)
	for i := range stripped.Clusters {
		stripped.Clusters[i].Capacity = nil
	}
	s.Platform = stripped
	s.CapacityWindows, s.MaintenanceWindows, s.OutageWindows = 0, 0, 0
	if err := Check(s); err != nil {
		t.Fatalf("windowless variant failed the oracle: %v", err)
	}
}
