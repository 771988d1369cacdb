package experiments

import (
	"fmt"

	"sqlb/internal/core"
	"sqlb/internal/intention"
	"sqlb/internal/stats"
)

// runFig2 reproduces Figure 2: the raw provider-intention surface pip(q)
// over (preference, utilization) at δs = 0.5, ε = 1. The CSV is a long-form
// grid suitable for any surface plotter.
func runFig2(l *Lab) (*Result, error) {
	tbl := &stats.Table{
		ID:     "fig2",
		Title:  "Provider intention pip(q) at δs = 0.5 (Definition 8, raw values)",
		Header: []string{"preference", "utilization", "intention"},
	}
	for p := -1.0; p <= 1.0001; p += 0.1 {
		for u := 0.0; u <= 2.0001; u += 0.1 {
			v := intention.Provider(round1(p), round1(u), 0.5, 1)
			tbl.AddRow(fmt.Sprintf("%.1f", round1(p)), fmt.Sprintf("%.1f", round1(u)), fmt.Sprintf("%.4f", v))
		}
	}
	return &Result{
		ID:     "fig2",
		Title:  tbl.Title,
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"positive intentions appear only in the quadrant preference > 0 ∧ utilization < 1",
			"the surface bottoms out near -3 (the paper's plot shows the -2.5 contour)",
		},
	}, nil
}

// runFig3 reproduces Figure 3: the ω surface (Equation 6) over the
// consumer's and the provider's satisfaction.
func runFig3(l *Lab) (*Result, error) {
	tbl := &stats.Table{
		ID:     "fig3",
		Title:  "ω over (consumer satisfaction, provider satisfaction) (Equation 6)",
		Header: []string{"consumer_sat", "provider_sat", "omega"},
	}
	for cs := 0.0; cs <= 1.0001; cs += 0.1 {
		for ps := 0.0; ps <= 1.0001; ps += 0.1 {
			tbl.AddRow(fmt.Sprintf("%.1f", round1(cs)), fmt.Sprintf("%.1f", round1(ps)),
				fmt.Sprintf("%.4f", core.Omega(round1(cs), round1(ps))))
		}
	}
	return &Result{
		ID:     "fig3",
		Title:  tbl.Title,
		Tables: []*stats.Table{tbl},
		Notes:  []string{"ω = ((δs(c) − δs(p)) + 1)/2: the less-satisfied side gets the weight"},
	}, nil
}

// runTable1 reproduces the Table 1 motivating scenario: eWine's query with
// five candidate providers, binary intentions, q.n = 2. It scores the
// providers per Definition 9 (ω = 0.5: both satisfactions start at the
// initial 0.5) and reports the SQLB decision alongside what the baselines
// would pick.
func runTable1(l *Lab) (*Result, error) {
	// Table 1 of the paper: provider intention, consumer intention,
	// available capacity.
	names := []string{"p1", "p2", "p3", "p4", "p5"}
	pi := []float64{1, -1, 1, -1, 1}
	ci := []float64{-1, 1, -1, 1, 1}
	avail := []float64{0.85, 0.57, 0.22, 0.15, 0}

	omegas := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	ranking := core.Rank(pi, ci, omegas, 1)
	selected := core.Select(nil, 2, ranking)
	isSel := map[int]bool{}
	for _, idx := range selected {
		isSel[idx] = true
	}
	rankOf := make([]int, len(names))
	for pos, r := range ranking {
		rankOf[r.Index] = pos + 1
	}

	tbl := &stats.Table{
		ID:     "table1",
		Title:  "Providers for eWine's query (q.n = 2, ω = 0.5)",
		Header: []string{"provider", "prov_intention", "cons_intention", "avail_capacity", "score", "rank", "selected"},
	}
	var score []float64
	for i := range names {
		score = append(score, core.Score(pi[i], ci[i], 0.5, 1))
	}
	for i, n := range names {
		sel := ""
		if isSel[i] {
			sel = "yes"
		}
		tbl.AddRow(n,
			fmt.Sprintf("%.0f", pi[i]),
			fmt.Sprintf("%.0f", ci[i]),
			fmt.Sprintf("%.2f", avail[i]),
			fmt.Sprintf("%.3f", score[i]),
			fmt.Sprintf("%d", rankOf[i]),
			sel)
	}

	// The paper's discussion: capacity-based would pick p1 and p2 (highest
	// available capacity) even though p2 does not want the query and eWine
	// does not trust p1; the only mutually satisfactory option is p5.
	best := names[ranking[0].Index]
	notes := []string{
		fmt.Sprintf("SQLB ranks %s first: the only provider both sides want", best),
		"Capacity based would select p1 and p2 (highest available capacity), ignoring both sides' intentions",
		"a pure consumer-side choice (ω = 0) would pick p2/p4, which do not intend to perform the query",
	}
	return &Result{ID: "table1", Title: tbl.Title, Tables: []*stats.Table{tbl}, Notes: notes}, nil
}

func round1(v float64) float64 {
	return float64(int(v*10+0.5*sign(v))) / 10
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
