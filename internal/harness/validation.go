package harness

import (
	"context"
	"fmt"
	"strings"

	"clustersmt/internal/config"
	"clustersmt/internal/model"
)

// ModelValidation compares the §2 analytical model's predictions
// against simulation, the paper's §5.1.1 exercise: place each measured
// application point on the chart and check that the FA processor the
// model says extracts the most performance is the one that actually won
// Figure 4/5.
type ModelValidation struct {
	HighEnd bool
	Apps    []string
	// PredictedFA / MeasuredFA are the model's and the simulator's best
	// fixed-assignment architecture per application.
	PredictedFA map[string]string
	MeasuredFA  map[string]string
	// SMT2Optimal records whether the measured point sits in SMT2's
	// optimal region (the paper's explanation for SMT2's stability).
	SMT2Optimal map[string]bool
}

// Agreements counts applications where model and simulation name the
// same best FA processor.
func (v *ModelValidation) Agreements() int {
	n := 0
	for _, app := range v.Apps {
		if v.PredictedFA[app] == v.MeasuredFA[app] {
			n++
		}
	}
	return n
}

// Render formats the comparison.
func (v *ModelValidation) Render() string {
	var b strings.Builder
	machine := "low-end"
	if v.HighEnd {
		machine = "high-end"
	}
	fmt.Fprintf(&b, "Model validation (%s): §2 predictions vs simulation (§5.1.1)\n", machine)
	fmt.Fprintf(&b, "%-8s %12s %12s %6s %14s\n", "app", "model-best", "sim-best", "match", "SMT2-region")
	for _, app := range v.Apps {
		match := " "
		if v.PredictedFA[app] == v.MeasuredFA[app] {
			match = "✓"
		}
		region := "outside"
		if v.SMT2Optimal[app] {
			region = "optimal"
		}
		fmt.Fprintf(&b, "%-8s %12s %12s %6s %14s\n",
			app, v.PredictedFA[app], v.MeasuredFA[app], match, region)
	}
	fmt.Fprintf(&b, "agreement: %d/%d\n", v.Agreements(), len(v.Apps))
	return b.String()
}

// ValidateModelContext runs the Figure 4/5 experiment and the Figure 6
// placement measurement, then asks the analytical model which FA
// processor each application point favors.
func (s *Suite) ValidateModelContext(ctx context.Context, highEnd bool) (*ModelValidation, error) {
	n := 4
	if highEnd {
		n = 5
	}
	fig, err := s.FigureByNumber(ctx, n)
	if err != nil {
		return nil, err
	}
	pts, err := s.PlacementContext(ctx, highEnd)
	if err != nil {
		return nil, err
	}

	fas := []model.Proc{
		model.FromArch(config.FA8), model.FromArch(config.FA4),
		model.FromArch(config.FA2), model.FromArch(config.FA1),
	}
	smt2 := model.FromArch(config.SMT2)

	v := &ModelValidation{
		HighEnd:     highEnd,
		Apps:        fig.Apps,
		PredictedFA: make(map[string]string),
		MeasuredFA:  make(map[string]string),
		SMT2Optimal: make(map[string]bool),
	}
	for _, app := range fig.Apps {
		p := pts[app]
		v.PredictedFA[app] = model.BestOf(fas, p).Name
		v.MeasuredFA[app] = fig.BestFA(app)
		v.SMT2Optimal[app] = smt2.Classify(p) == model.RegionOptimal
	}
	return v, nil
}
