package sim

import (
	"bytes"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/scenario"
	"sqlb/internal/timeline"
)

// runCase executes one small run with a timeline CSV sink attached and
// returns the Result, its serialization and the raw CSV bytes: the
// artifacts the determinism contract and the golden digests cover.
func runCase(t *testing.T, strategy allocator.Allocator, mutate func(*Options)) (*Result, string, []byte) {
	t.Helper()
	opts := smallOptions(strategy, 0.8, 500)
	if mutate != nil {
		mutate(&opts)
	}
	var buf bytes.Buffer
	opts.Timeline = timeline.NewCSVSink(&buf)
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if err := eng.TimelineErr(); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("Result.Err: %v", res.Err)
	}
	return res, serializeResult(res), buf.Bytes()
}

// alternatingWaves is a scenario whose waves alternate outage and rejoin of
// a quarter of the eligible providers, one wave per given instant.
func alternatingWaves(times ...float64) *scenario.Scenario {
	scn := &scenario.Scenario{Name: "edge"}
	for i, tt := range times {
		kind := scenario.WaveOutage
		if i%2 == 1 {
			kind = scenario.WaveRejoin
		}
		scn.Waves = append(scn.Waves, scenario.Wave{Time: tt, Kind: kind, Fraction: 0.25})
	}
	return scn
}

// TestChurnEdgeShapes aims the engine's invariants at the places an event
// loop can silently drop or double-count: a churn wave sharing its
// timestamp with a sample, a wave at exactly t = Duration, every provider
// gone mid-run (a 100% outage, then a full rejoin), a population of a
// handful of participants, and a strategy that selects nobody. On each
// shape a rerun must reproduce the Result and the timeline CSV byte for
// byte, the query ledger Issued = Completed + Dropped + InFlightAtEnd must
// balance, and every sample must conserve the population
// (alive = initial − departures + joins).
func TestChurnEdgeShapes(t *testing.T) {
	sqlb := func() allocator.Allocator { return allocator.NewSQLB() }
	cases := []struct {
		name     string
		strategy func() allocator.Allocator
		mutate   func(*Options)
		check    func(t *testing.T, res *Result)
	}{
		{"wave-on-sample-boundary", sqlb, func(o *Options) {
			// Samples land every 25 s; the outage at t=250 and the rejoin at
			// t=375 both coincide with a sample instant.
			o.SampleInterval = 25
			o.Scenario = alternatingWaves(250, 375)
			o.Autonomy = FullAutonomy()
		}, func(t *testing.T, res *Result) {
			if len(res.ProviderJoins) == 0 {
				t.Fatal("the rejoin wave on the sample boundary never fired")
			}
		}},
		{"wave-at-duration", sqlb, func(o *Options) {
			// An event at exactly t = Duration still runs; the final
			// snapshot must already count it.
			o.SampleInterval = 25
			o.Scenario = alternatingWaves(500)
		}, func(t *testing.T, res *Result) {
			if len(res.ProviderDepartures) == 0 || res.ProviderDepartures[0].Time != 500 {
				t.Fatalf("departures %v, want the outage wave at t=500", res.ProviderDepartures)
			}
			if res.Final.ProviderDepartureCount != len(res.ProviderDepartures) {
				t.Fatalf("final sample counts %d departures, ledger has %d",
					res.Final.ProviderDepartureCount, len(res.ProviderDepartures))
			}
		}},
		{"full-outage-then-rejoin", sqlb, func(o *Options) {
			// A 100% outage drains every posting list: all queries drop
			// until the rejoin brings everyone back.
			o.Scenario = &scenario.Scenario{Name: "blackout", Waves: []scenario.Wave{
				{Time: 100, Kind: scenario.WaveOutage, Fraction: 1},
				{Time: 300, Kind: scenario.WaveRejoin, Fraction: 1},
			}}
		}, func(t *testing.T, res *Result) {
			if res.DroppedQueries == 0 {
				t.Fatal("no query dropped during the blackout")
			}
			if res.Final.AliveProviders != res.Providers {
				t.Fatalf("alive providers after the full rejoin = %d, want %d",
					res.Final.AliveProviders, res.Providers)
			}
		}},
		{"tiny-population", sqlb, func(o *Options) {
			// 4 providers and 2 consumers.
			o.Config = o.Config.Scale(0.01)
			o.Autonomy = FullAutonomy()
		}, nil},
		{"hot-run-under-churn", sqlb, func(o *Options) {
			o.Duration = 300
			o.Scenario = &scenario.Scenario{Name: "churn", Waves: []scenario.Wave{
				{Time: 100, Kind: scenario.WaveOutage, Fraction: 0.5},
				{Time: 200, Kind: scenario.WaveRejoin, Fraction: 1},
			}}
		}, nil},
		{"empty-selection-under-churn", func() allocator.Allocator { return emptyAllocator{} }, func(o *Options) {
			o.Duration = 300
			o.Scenario = &scenario.Scenario{Name: "churn", Waves: []scenario.Wave{
				{Time: 100, Kind: scenario.WaveOutage, Fraction: 0.5},
				{Time: 200, Kind: scenario.WaveRejoin, Fraction: 1},
			}}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, first, firstCSV := runCase(t, tc.strategy(), tc.mutate)
			_, again, againCSV := runCase(t, tc.strategy(), tc.mutate)
			if again != first {
				t.Fatalf("rerun Result differs:\n%s\nvs\n%s", again, first)
			}
			if !bytes.Equal(againCSV, firstCSV) {
				t.Fatalf("rerun timeline CSV differs (%d vs %d bytes)", len(againCSV), len(firstCSV))
			}
			if res.IssuedQueries == 0 {
				t.Fatal("no queries issued; the shape needs arrivals")
			}
			if got := res.CompletedQueries + res.DroppedQueries + uint64(res.InFlightAtEnd); got != res.IssuedQueries {
				t.Fatalf("completed %d + dropped %d + inflight %d = %d, want issued %d",
					res.CompletedQueries, res.DroppedQueries, res.InFlightAtEnd, got, res.IssuedQueries)
			}
			checkConservation(t, res)
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}
