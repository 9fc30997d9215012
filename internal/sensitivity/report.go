package sensitivity

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"perfstacks/internal/sim"
	"perfstacks/internal/textplot"
)

// ReportSchemaVersion versions the report wire shape and the scoring math.
// It is part of the plan-level cache key, so bumping it invalidates every
// cached report without touching the per-cell simulation entries.
const ReportSchemaVersion = "sensitivity-report-v1"

// Cell sources: where a cell's result came from.
const (
	SourceSim       = "sim"       // simulated locally for this plan
	SourceCache     = "cache"     // served from the local result cache
	SourceCoalesced = "coalesced" // rode another request's in-flight production
)

// CellOutcome is one cell's measured result and its provenance.
type CellOutcome struct {
	// Result is read-only: a cell served from the result cache shares it
	// with every other plan that reads the same entry.
	Result *sim.Result
	Source string
}

// CellResult is one cell's row in the report.
type CellResult struct {
	Param     string  `json:"param,omitempty"`
	Variant   string  `json:"variant"`
	Kind      string  `json:"kind"`
	Scale     float64 `json:"scale,omitempty"`
	Source    string  `json:"source"`
	CPI       float64 `json:"cpi"`
	Cycles    int64   `json:"cycles"`
	Committed uint64  `json:"committed"`
}

// ParamScore aggregates one parameter's cells into its sensitivity score.
// Gain is the CPI headroom the parameter's best variant buys (baseline CPI
// minus the minimum CPI over its cells — negative when every perturbation
// hurts); Loss is the exposure of its worst variant. Score is Gain
// normalized by the baseline CPI; the report ranks parameters by it, which
// is the bottleneck ranking: the knob whose improvement buys the most time.
type ParamScore struct {
	Param        string  `json:"param"`
	Group        string  `json:"group"`
	Cells        int     `json:"cells"`
	BestVariant  string  `json:"best_variant"`
	BestCPI      float64 `json:"best_cpi"`
	WorstVariant string  `json:"worst_variant"`
	WorstCPI     float64 `json:"worst_cpi"`
	Gain         float64 `json:"gain"`
	Loss         float64 `json:"loss"`
	Score        float64 `json:"score"`
}

// BoundCheck cross-checks one component's measured idealization gain
// against the multi-stage CPI stack's predicted bound [Lo, Hi] (the min and
// max of the component over the three accounting stages). Err is the
// distance to the nearest bound when the measurement falls outside (the
// paper's Figure 2 error metric), 0 when inside.
type BoundCheck struct {
	Component string  `json:"component"`
	Param     string  `json:"param"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	Measured  float64 `json:"measured"`
	Inside    bool    `json:"inside"`
	Err       float64 `json:"err"`
}

// Summary counts how the plan's cells were satisfied.
type Summary struct {
	Cells     int `json:"cells"`
	Simulated int `json:"simulated"`
	FromCache int `json:"from_cache"`
	// FromPeer is always 0. It stays in the wire shape (and as the
	// "%d peer" count of RenderText) so report bytes, and with them the
	// sensitivity-report-v1 plan keys, do not change.
	FromPeer  int `json:"from_peer"`
	Coalesced int `json:"coalesced"`
}

// Report is the finished sensitivity analysis. Field order (and the sorted
// rankings) are deterministic, so identical plans marshal to identical
// bytes — the property the plan-level cache relies on.
type Report struct {
	Version     string       `json:"version"`
	Machine     string       `json:"machine"`
	Workload    string       `json:"workload"`
	Uops        uint64       `json:"uops"`
	Warmup      uint64       `json:"warmup"`
	BaselineCPI float64      `json:"baseline_cpi"`
	Params      []ParamScore `json:"params"`
	Bounds      []BoundCheck `json:"bounds,omitempty"`
	Cells       []CellResult `json:"cells"`
	Summary     Summary      `json:"summary"`
}

// BuildReport folds the per-cell outcomes (parallel to p.Cells) into the
// ranked report. Every outcome must be complete: a partial plan is not a
// measurement.
func BuildReport(p *Plan, outcomes []CellOutcome) (*Report, error) {
	if len(outcomes) != len(p.Cells) {
		return nil, fmt.Errorf("sensitivity: %d outcomes for %d cells", len(outcomes), len(p.Cells))
	}
	for i, o := range outcomes {
		if o.Result == nil {
			return nil, fmt.Errorf("sensitivity: cell %s/%s has no result", p.Cells[i].Param, p.Cells[i].Variant)
		}
		if o.Result.Err != nil {
			return nil, fmt.Errorf("sensitivity: cell %s/%s: %w", p.Cells[i].Param, p.Cells[i].Variant, o.Result.Err)
		}
	}
	base := outcomes[0].Result
	r := &Report{
		Version:     ReportSchemaVersion,
		Machine:     p.Baseline.Name,
		Workload:    p.Profile.Name,
		Uops:        p.Uops,
		Warmup:      p.Opts.WarmupUops,
		BaselineCPI: base.CPIOf(),
		Cells:       make([]CellResult, len(p.Cells)),
		Summary:     Summary{Cells: len(p.Cells)},
	}

	scores := make(map[string]*ParamScore)
	for i, o := range outcomes {
		cell := p.Cells[i]
		cpi := o.Result.CPIOf()
		r.Cells[i] = CellResult{
			Param: cell.Param, Variant: cell.Variant, Kind: cell.Kind,
			Scale: cell.Scale, Source: o.Source, CPI: cpi,
			Cycles: o.Result.Stats.Cycles, Committed: o.Result.Stats.Committed,
		}
		switch o.Source {
		case SourceCache:
			r.Summary.FromCache++
		case SourceCoalesced:
			r.Summary.Coalesced++
		default:
			r.Summary.Simulated++
		}
		if cell.Kind == KindBaseline {
			continue
		}
		sc := scores[cell.Param]
		if sc == nil {
			sc = &ParamScore{
				Param: cell.Param, Group: paramGroup[cell.Param],
				BestVariant: cell.Variant, BestCPI: cpi,
				WorstVariant: cell.Variant, WorstCPI: cpi,
			}
			scores[cell.Param] = sc
		}
		sc.Cells++
		if cpi < sc.BestCPI {
			sc.BestCPI, sc.BestVariant = cpi, cell.Variant
		}
		if cpi > sc.WorstCPI {
			sc.WorstCPI, sc.WorstVariant = cpi, cell.Variant
		}
		if cell.Kind == KindIdeal {
			bc := BoundCheck{Component: cell.Component.String(), Param: cell.Param, Measured: r.BaselineCPI - cpi}
			// The baseline always carries stacks: NewPlan forces Opts.CPI.
			if base.Stacks != nil {
				bc.Lo, bc.Hi = base.Stacks.ComponentRange(cell.Component)
				bc.Inside, bc.Err = base.Stacks.Bounds(cell.Component, bc.Measured)
			}
			r.Bounds = append(r.Bounds, bc)
		}
	}
	for _, sc := range scores {
		sc.Gain = r.BaselineCPI - sc.BestCPI
		sc.Loss = sc.WorstCPI - r.BaselineCPI
		if r.BaselineCPI > 0 {
			sc.Score = sc.Gain / r.BaselineCPI
		}
		r.Params = append(r.Params, *sc)
	}
	sort.Slice(r.Params, func(i, j int) bool {
		if r.Params[i].Score != r.Params[j].Score {
			return r.Params[i].Score > r.Params[j].Score
		}
		return r.Params[i].Param < r.Params[j].Param
	})
	sort.Slice(r.Bounds, func(i, j int) bool {
		if r.Bounds[i].Component != r.Bounds[j].Component {
			return r.Bounds[i].Component < r.Bounds[j].Component
		}
		return r.Bounds[i].Param < r.Bounds[j].Param
	})
	return r, nil
}

// RenderText renders the human-readable report: the ranked parameter table,
// a tornado chart of gains and losses, and the bound cross-check. top
// truncates the ranking (<= 0 means all).
func (r *Report) RenderText(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensitivity analysis: %s on %s (%d uops, %d warmup)\n",
		r.Workload, r.Machine, r.Uops, r.Warmup)
	fmt.Fprintf(&b, "baseline CPI %.4f; %d cells (%d simulated, %d cache, %d peer, %d coalesced)\n\n",
		r.BaselineCPI, r.Summary.Cells, r.Summary.Simulated, r.Summary.FromCache,
		r.Summary.FromPeer, r.Summary.Coalesced)

	params := r.Params
	if top > 0 && top < len(params) {
		params = params[:top]
	}
	tbl := textplot.NewTable("rank", "param", "group", "gain", "loss", "score", "best", "worst")
	for i, sc := range params {
		tbl.Rowf(i+1, sc.Param, sc.Group, sc.Gain, sc.Loss, sc.Score, sc.BestVariant, sc.WorstVariant)
	}
	b.WriteString(tbl.String())

	names := make([]string, len(params))
	gains := make([]float64, len(params))
	losses := make([]float64, len(params))
	for i, sc := range params {
		names[i] = sc.Param
		gains[i] = sc.Gain
		losses[i] = sc.Loss
	}
	b.WriteString("\nTornado (CPI gained when improved <|> CPI lost when degraded):\n")
	b.WriteString(textplot.Tornado(names, gains, losses, 28))

	if len(r.Bounds) > 0 {
		b.WriteString("\nStack-bound cross-check (measured idealization gain vs predicted range):\n")
		bt := textplot.NewTable("component", "param", "lo", "hi", "measured", "verdict")
		for _, bc := range r.Bounds {
			verdict := "inside"
			if !bc.Inside {
				verdict = fmt.Sprintf("OUTSIDE by %.4f", bc.Err)
			}
			bt.Rowf(bc.Component, bc.Param, bc.Lo, bc.Hi, bc.Measured, verdict)
		}
		b.WriteString(bt.String())
	}
	return b.String()
}

// WriteScoresCSV emits the ranked parameter scores as CSV.
func (r *Report) WriteScoresCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"param", "group", "cells", "baseline_cpi", "best_variant", "best_cpi", "worst_variant", "worst_cpi", "gain", "loss", "score"}); err != nil {
		return err
	}
	for _, sc := range r.Params {
		rec := []string{
			sc.Param, sc.Group, strconv.Itoa(sc.Cells),
			formatFloat(r.BaselineCPI),
			sc.BestVariant, formatFloat(sc.BestCPI),
			sc.WorstVariant, formatFloat(sc.WorstCPI),
			formatFloat(sc.Gain), formatFloat(sc.Loss), formatFloat(sc.Score),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCellsCSV emits every cell measurement as CSV (for external plotting).
func (r *Report) WriteCellsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"param", "variant", "kind", "scale", "source", "cpi", "cycles", "committed"}); err != nil {
		return err
	}
	for _, c := range r.Cells {
		rec := []string{
			c.Param, c.Variant, c.Kind, formatFloat(c.Scale), c.Source,
			formatFloat(c.CPI), strconv.FormatInt(c.Cycles, 10), strconv.FormatUint(c.Committed, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
