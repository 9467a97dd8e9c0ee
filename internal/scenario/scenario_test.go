package scenario

import (
	"reflect"
	"strings"
	"testing"

	"gridrealloc/internal/core"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

// smallTrace is a two-job custom trace, enough for BuildRunConfig to accept
// the Trace path without generating a synthetic workload.
func smallTrace() *workload.Trace {
	return &workload.Trace{Name: "custom", Jobs: []workload.Job{
		{ID: 1, Submit: 0, Runtime: 100, Walltime: 200, Procs: 4, User: 1},
		{ID: 2, Submit: 50, Runtime: 300, Walltime: 600, Procs: 8, User: 2},
	}}
}

// TestBuildRunConfigRejects covers every configuration BuildRunConfig
// refuses, each with the fragment its error must name.
func TestBuildRunConfigRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"empty config", Config{}, "needs at least a Scenario, a Trace or a Platform"},
		{"custom trace without scenario or platform", Config{Trace: smallTrace()}, "needs a Scenario or a Platform"},
		{"unknown scenario with custom trace", Config{Scenario: "jann", Trace: smallTrace()}, `unknown scenario "jann"`},
		{"bad heterogeneity", Config{Scenario: "jan", Trace: smallTrace(), Heterogeneity: "mixed"}, "mixed"},
		{"bad policy", Config{Scenario: "jan", Trace: smallTrace(), Policy: "EASY"}, `unknown policy "EASY"`},
		{"bad algorithm", Config{Scenario: "jan", Trace: smallTrace(), Algorithm: "realloc-all"}, `unknown reallocation algorithm "realloc-all"`},
		{"bad heuristic", Config{Scenario: "jan", Trace: smallTrace(), Algorithm: "realloc", Heuristic: "mct"}, "mct"},
		{"bad mapping", Config{Scenario: "jan", Trace: smallTrace(), Mapping: "Best"}, `unknown mapping policy "Best"`},
		{"bad outage policy", Config{Scenario: "jan", Trace: smallTrace(), OutagePolicy: "retry"}, `unknown outage policy "retry"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildRunConfig(tc.cfg)
			if err == nil {
				t.Fatal("configuration accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestBuildRunConfigAcceptsCustomTraceOnPlatform checks the Trace plus
// Platform path: the caller's trace and platform are used as given.
func TestBuildRunConfigAcceptsCustomTraceOnPlatform(t *testing.T) {
	plat := platform.Platform{Name: "two", Clusters: []platform.ClusterSpec{
		{Name: "a", Cores: 16, Speed: 1},
		{Name: "b", Cores: 8, Speed: 1.5},
	}}
	trace := smallTrace()
	cfg, err := BuildRunConfig(Config{Trace: trace, Platform: &plat, Algorithm: "realloc-cancel", Policy: "CBF"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace != trace || cfg.Platform.Name != "two" || len(cfg.Platform.Clusters) != 2 {
		t.Fatalf("custom trace or platform not used: trace %p, platform %+v", cfg.Trace, cfg.Platform)
	}
	if cfg.Realloc.Algorithm != core.WithCancellation || cfg.Realloc.Heuristic == nil || cfg.Realloc.Heuristic.Name() != "Mct" {
		t.Fatalf("realloc = %+v, want Algorithm 2 with the Mct default heuristic", cfg.Realloc)
	}
	if !cfg.ClampOversized {
		t.Fatal("ClampOversized not set")
	}
}

// TestBuildRunConfigPlatformOnlyGeneratesDefaultTrace checks the defaults
// behind a Platform with no Scenario and no Trace: a synthetic "jan" trace
// at the 0.02 fraction and seed 42.
func TestBuildRunConfigPlatformOnlyGeneratesDefaultTrace(t *testing.T) {
	plat := platform.ForScenario("jan", platform.Homogeneous)
	cfg, err := BuildRunConfig(Config{Platform: &plat})
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.Scenario("jan", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Name != want.Name || !reflect.DeepEqual(cfg.Trace.Jobs, want.Jobs) {
		t.Fatalf("default trace = %q with %d jobs, want %q with %d", cfg.Trace.Name, len(cfg.Trace.Jobs), want.Name, len(want.Jobs))
	}
}

func TestEffectiveSeed(t *testing.T) {
	if got := (Config{}).EffectiveSeed(); got != 42 {
		t.Fatalf("default seed = %d, want 42", got)
	}
	if got := (Config{Seed: 7}).EffectiveSeed(); got != 7 {
		t.Fatalf("explicit seed = %d, want 7", got)
	}
}

// TestBuildRunConfigFreshMappingPerCall checks that resolving the same
// configuration twice yields two mapping-policy instances, so the state of a
// stateful policy cannot leak from one run into the next.
func TestBuildRunConfigFreshMappingPerCall(t *testing.T) {
	for _, mapping := range []string{"Random", "RoundRobin"} {
		in := Config{Scenario: "jan", Trace: smallTrace(), Mapping: mapping}
		a, err := BuildRunConfig(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildRunConfig(in)
		if err != nil {
			t.Fatal(err)
		}
		if a.Mapping == nil || a.Mapping == b.Mapping {
			t.Fatalf("%s: two calls share mapping instance %p", mapping, a.Mapping)
		}
		if a.Mapping.Name() != mapping {
			t.Fatalf("mapping = %q, want %q", a.Mapping.Name(), mapping)
		}
	}
}
