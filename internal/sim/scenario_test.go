package sim

import (
	"fmt"
	"strings"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/mediator"
	"sqlb/internal/model"
	"sqlb/internal/scenario"
)

// scenarioOptions is smallOptions plus a scenario and denser sampling (the
// conservation invariant is checked at every sample, so more samples mean
// more chances to catch a wave/sample timestamp collision).
func scenarioOptions(name string, strategy allocator.Allocator, dur float64) Options {
	scn, ok := scenario.Preset(name)
	if !ok {
		panic("unknown preset " + name)
	}
	opts := smallOptions(strategy, 0.8, dur)
	opts.Scenario = scn
	opts.SampleInterval = dur / 40
	return opts
}

// TestScenarioPopulationConservation is the churn ledger invariant: at
// every sampled instant, for providers
//
//	alive == initial − departures + joins
//
// and for consumers (who never rejoin) alive == initial − departures.
// Cumulative counters on the samples make this exact even when a wave and
// a sample share a timestamp. Checked across every churn preset, with and
// without autonomy departures mixed in.
func TestScenarioPopulationConservation(t *testing.T) {
	for _, name := range scenario.Names() {
		for _, auto := range []struct {
			label string
			a     Autonomy
		}{{"captive", Autonomy{}}, {"full-autonomy", FullAutonomy()}} {
			t.Run(name+"/"+auto.label, func(t *testing.T) {
				opts := scenarioOptions(name, allocator.NewSQLB(), 1000)
				opts.Autonomy = auto.a
				eng, err := New(opts)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				res := eng.Run()
				if res.Err != nil {
					t.Fatalf("Result.Err = %v", res.Err)
				}
				checkConservation(t, res)
				// The final ledgers agree with the recorded event lists.
				if res.Final.ProviderDepartureCount != len(res.ProviderDepartures) {
					t.Errorf("final departure counter %d != %d recorded departures",
						res.Final.ProviderDepartureCount, len(res.ProviderDepartures))
				}
				if res.Final.ProviderJoinCount != len(res.ProviderJoins) {
					t.Errorf("final join counter %d != %d recorded joins",
						res.Final.ProviderJoinCount, len(res.ProviderJoins))
				}
			})
		}
	}
}

// checkConservation asserts the population ledger at every sample and at
// the final snapshot: alive providers = initial − departures + joins, and
// alive consumers = initial − departures.
func checkConservation(t *testing.T, res *Result) {
	t.Helper()
	for i, s := range append(append([]Sample{}, res.Samples...), res.Final) {
		if got, want := s.AliveProviders, res.Providers-s.ProviderDepartureCount+s.ProviderJoinCount; got != want {
			t.Fatalf("sample %d (t=%v): alive providers %d != %d − %d + %d",
				i, s.Time, got, res.Providers, s.ProviderDepartureCount, s.ProviderJoinCount)
		}
		if got, want := s.AliveConsumers, res.Consumers-s.ConsumerDepartureCount; got != want {
			t.Fatalf("sample %d (t=%v): alive consumers %d != %d − %d",
				i, s.Time, got, res.Consumers, s.ConsumerDepartureCount)
		}
	}
}

// TestChurnConservationAcrossSeeds sweeps the seed over the two
// churn-heaviest presets under full autonomy, so the conservation ledger is
// checked against several different orders of wave, autonomy-departure and
// sample events, not just the one seed the preset grid above uses.
func TestChurnConservationAcrossSeeds(t *testing.T) {
	for _, name := range []string{"outage-30pct", "staged-churn"} {
		for seed := uint64(1); seed <= 4; seed++ {
			opts := scenarioOptions(name, allocator.NewSQLB(), 800)
			opts.Seed = seed
			opts.Autonomy = FullAutonomy()
			eng, err := New(opts)
			if err != nil {
				t.Fatalf("%s seed=%d: New: %v", name, seed, err)
			}
			res := eng.Run()
			if res.Err != nil {
				t.Fatalf("%s seed=%d: Result.Err = %v", name, seed, res.Err)
			}
			if res.Final.ProviderDepartureCount == 0 {
				t.Fatalf("%s seed=%d: no provider departed; the sweep needs churn", name, seed)
			}
			checkConservation(t, res)
		}
	}
}

// TestScenarioIndexAgreesWithScanAfterChurn: after a run full of scheduled
// outage/rejoin waves (plus autonomy departures), the incremental
// matchmaking index must agree with the naive alive-scan oracle for every
// query class — the engine-level restatement of the matchmaking package's
// equivalence property.
func TestScenarioIndexAgreesWithScanAfterChurn(t *testing.T) {
	oracle := mediator.ByCapability()
	for _, name := range []string{"maintenance-window", "outage-30pct", "staged-churn"} {
		t.Run(name, func(t *testing.T) {
			opts := scenarioOptions(name, allocator.NewCapacityBased(), 1200)
			opts.Config = opts.Config.WithClasses(5)
			opts.Config.CapabilitySelectivity = 0.6
			opts.Autonomy = FullAutonomy()
			eng, err := New(opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res := eng.Run()
			if res.Err != nil {
				t.Fatalf("Result.Err = %v", res.Err)
			}
			if len(res.ProviderDepartures) == 0 {
				t.Fatalf("scenario %q produced no churn; the test needs waves to fire", name)
			}
			pop := eng.Population()
			for c := range pop.Classes {
				want := oracle.Match(&model.Query{Class: c}, pop)
				got := eng.MatchIndex().Lookup(c)
				if len(got) != len(want) {
					t.Fatalf("class %d: index |Pq| = %d, scan %d", c, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("class %d pos %d: index provider %d, scan provider %d",
							c, i, got[i].ID, want[i].ID)
					}
				}
			}
		})
	}
}

// TestScenarioWaveArithmetic pins the wave accounting with autonomy off,
// where scheduled churn is the only source of departures: outage-30pct on
// 40 providers must take down exactly round(0.3·40) = 12, all with reason
// "outage"; maintenance-window must end with everyone back.
func TestScenarioWaveArithmetic(t *testing.T) {
	t.Run("outage-30pct", func(t *testing.T) {
		eng, err := New(scenarioOptions("outage-30pct", allocator.NewSQLB(), 600))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res := eng.Run()
		if got := len(res.ProviderDepartures); got != 12 {
			t.Fatalf("departures = %d, want 12 (30%% of 40)", got)
		}
		for _, d := range res.ProviderDepartures {
			if d.Reason != model.ReasonOutage {
				t.Errorf("departure reason %v, want outage", d.Reason)
			}
			if d.Time != 300 {
				t.Errorf("outage at t=%v, want 300 (half of the run)", d.Time)
			}
		}
		if res.Final.AliveProviders != 28 {
			t.Errorf("alive at end = %d, want 28", res.Final.AliveProviders)
		}
		if res.Scenario != "outage-30pct" {
			t.Errorf("Result.Scenario = %q", res.Scenario)
		}
	})
	t.Run("maintenance-window", func(t *testing.T) {
		eng, err := New(scenarioOptions("maintenance-window", allocator.NewSQLB(), 600))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res := eng.Run()
		want := 8 // 20% of 40
		if got := len(res.ProviderDepartures); got != want {
			t.Fatalf("departures = %d, want %d", got, want)
		}
		if got := len(res.ProviderJoins); got != want {
			t.Fatalf("joins = %d, want %d (everyone returns)", got, want)
		}
		if res.Final.AliveProviders != 40 {
			t.Errorf("alive at end = %d, want all 40 back", res.Final.AliveProviders)
		}
	})
}

// TestScenarioLoadCurveDrivesArrivals: the flash-crowd surge must be
// visible in the workload-fraction samples — ≈0.4 early, 1.5 at the spike.
func TestScenarioLoadCurveDrivesArrivals(t *testing.T) {
	eng, err := New(scenarioOptions("flash-crowd", allocator.NewCapacityBased(), 1000))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	peak, early := 0.0, 0.0
	for _, s := range res.Samples {
		if s.Time < 400 {
			early = s.WorkloadFraction
		}
		if s.WorkloadFraction > peak {
			peak = s.WorkloadFraction
		}
	}
	if early < 0.35 || early > 0.45 {
		t.Errorf("pre-surge workload fraction = %v, want ≈0.4", early)
	}
	if peak < 1.4 {
		t.Errorf("surge peak workload fraction = %v, want ≈1.5", peak)
	}
}

// serializeResult renders every deterministic field of a Result, including
// the full sample series and churn ledgers, so two serializations are
// equal iff the runs were bit-for-bit identical.
func serializeResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s seed=%d dur=%v issued=%d completed=%d dropped=%d inflight=%d mean=%v max=%v p50=%v p95=%v p99=%v\n",
		r.Method, r.Scenario, r.Seed, r.Duration, r.IssuedQueries, r.CompletedQueries,
		r.DroppedQueries, r.InFlightAtEnd, r.MeanResponseTime, r.MaxResponseTime,
		r.ResponseHistogram.Quantile(0.5), r.ResponseHistogram.Quantile(0.95),
		r.ResponseHistogram.Quantile(0.99))
	for _, s := range append(append([]Sample{}, r.Samples...), r.Final) {
		fmt.Fprintf(&b, "sample %v %v %+v %+v %+v %+v %v %d %d %d %d %d %d\n",
			s.Time, s.WorkloadFraction, s.ProvSatIntention, s.ProvSatPreference,
			s.ConsSat, s.Utilization, s.ResponseTimeMean, s.ResponseCount,
			s.AliveProviders, s.AliveConsumers,
			s.ProviderDepartureCount, s.ProviderJoinCount, s.ConsumerDepartureCount)
	}
	for _, d := range r.ProviderDepartures {
		fmt.Fprintf(&b, "dep %+v\n", d)
	}
	for _, d := range r.ProviderJoins {
		fmt.Fprintf(&b, "join %+v\n", d)
	}
	for _, d := range r.ConsumerDepartures {
		fmt.Fprintf(&b, "cdep %+v\n", d)
	}
	return b.String()
}

// TestScenarioDeterminism is the regression pin for the seeding contract
// under churn: the same seed and scenario must reproduce the whole Result
// byte for byte — wave victims, departure times, every sampled metric —
// run after run. (Workers-independence of scenario artifacts is pinned at
// the Lab level next to TestParallelLabDeterminism.)
func TestScenarioDeterminism(t *testing.T) {
	run := func() string {
		opts := scenarioOptions("flash-crowd", allocator.NewSQLB(), 900)
		opts.Autonomy = FullAutonomy()
		eng, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return serializeResult(eng.Run())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed + scenario diverged:\n%s\nvs\n%s", a, b)
	}

	// Churn scenarios too: the wave-victim draws come from the dedicated
	// churn stream and must replay exactly.
	runChurn := func() string {
		opts := scenarioOptions("staged-churn", allocator.NewCapacityBased(), 900)
		opts.Autonomy = FullAutonomy()
		eng, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return serializeResult(eng.Run())
	}
	if x, y := runChurn(), runChurn(); x != y {
		t.Fatal("staged-churn runs diverged under a fixed seed")
	}
}

// TestScenarioNilLeavesRunsUntouched: passing no scenario must reproduce a
// pre-scenario run exactly — the churn RNG stream is split off after the
// population/generator/arrival streams precisely so that scenario-free
// seeds draw identical values. The pin: a run with Scenario == nil and a
// run with a load-only scenario whose curve equals the constant workload
// issue the same queries from the same draws.
func TestScenarioNilLeavesRunsUntouched(t *testing.T) {
	base := func() *Result {
		eng, err := New(smallOptions(allocator.NewSQLB(), 0.8, 400))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return eng.Run()
	}
	withConstCurve := func() *Result {
		opts := smallOptions(allocator.NewSQLB(), 0.8, 400)
		opts.Scenario = &scenario.Scenario{
			Name: "const-0.8",
			Load: &scenario.Curve{Interp: scenario.Step, Knots: []scenario.Knot{{T: 0, V: 0.8}}},
		}
		eng, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return eng.Run()
	}
	a, b := base(), withConstCurve()
	if a.IssuedQueries != b.IssuedQueries || a.CompletedQueries != b.CompletedQueries ||
		a.MeanResponseTime != b.MeanResponseTime {
		t.Fatalf("a constant load curve perturbed the run: %d/%d/%v vs %d/%d/%v",
			a.IssuedQueries, a.CompletedQueries, a.MeanResponseTime,
			b.IssuedQueries, b.CompletedQueries, b.MeanResponseTime)
	}
}

// TestScenarioMixValidation: Options.Validate rejects a mix whose weight
// width does not match the run's query-class count, and accepts the fit.
func TestScenarioMixValidation(t *testing.T) {
	opts := smallOptions(allocator.NewSQLB(), 0.5, 100)
	opts.Scenario = &scenario.Scenario{
		Name: "bad-mix",
		Mix:  []scenario.MixKnot{{T: 0, Weights: []float64{1, 2, 3}}},
	}
	if err := opts.Validate(); err == nil {
		t.Fatal("3-wide mix accepted for a 2-class run")
	}
	opts.Scenario.Mix = []scenario.MixKnot{{T: 0, Weights: []float64{1, 2}}}
	if err := opts.Validate(); err != nil {
		t.Fatalf("2-wide mix rejected for a 2-class run: %v", err)
	}
}
