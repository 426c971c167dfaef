package core

import (
	"testing"

	"fchain/internal/depgraph"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// Config returns the effective configuration.
func (l *Localizer) Config() Config { return l.cfg }

// Components returns the monitored component names, sorted.
func (l *Localizer) Components() []string {
	out := make([]string, len(l.monitors))
	for i, m := range l.monitors {
		out[i] = m.component
	}
	return out
}

// Monitor returns the monitor for one component.
func (l *Localizer) Monitor(component string) (*Monitor, bool) {
	m, ok := l.byName[component]
	return m, ok
}

func report(comp string, onset int64, dir timeseries.Trend) ComponentReport {
	before, after := 10.0, 20.0
	if dir == timeseries.TrendDown {
		before, after = 20, 10
	}
	_ = before
	_ = after
	ch := AbnormalChange{
		Component: comp,
		Metric:    metric.CPU,
		ChangeAt:  onset + 3,
		Onset:     onset,
		PredErr:   10,
		Expected:  1,
		Magnitude: 10,
		Direction: dir,
	}
	return ComponentReport{Component: comp, Changes: []AbnormalChange{ch}, Onset: onset}
}

func normalReport(comp string) ComponentReport {
	return ComponentReport{Component: comp}
}

func TestDiagnoseEmpty(t *testing.T) {
	d := Diagnose(nil, 4, nil, DefaultConfig())
	if len(d.Culprits) != 0 || d.ExternalFactor {
		t.Errorf("empty reports should produce empty diagnosis: %+v", d)
	}
	d = Diagnose([]ComponentReport{normalReport("a"), normalReport("b")}, 2, nil, DefaultConfig())
	if len(d.Culprits) != 0 {
		t.Errorf("all-normal reports should produce no culprits: %+v", d)
	}
}

func TestDiagnoseEarliestIsSource(t *testing.T) {
	reports := []ComponentReport{
		report("web", 210, timeseries.TrendUp),
		report("db", 200, timeseries.TrendUp),
		normalReport("app1"),
		normalReport("app2"),
	}
	d := Diagnose(reports, 4, nil, DefaultConfig())
	if len(d.Culprits) != 1 || d.Culprits[0].Component != "db" {
		t.Fatalf("culprits = %v, want [db]", d.CulpritNames())
	}
	if d.Culprits[0].Reason != "source" {
		t.Errorf("reason = %q, want source", d.Culprits[0].Reason)
	}
	if len(d.Chain) != 2 || d.Chain[0].Component != "db" {
		t.Errorf("chain wrong: %+v", d.Chain)
	}
}

func TestDiagnoseConcurrentFaults(t *testing.T) {
	reports := []ComponentReport{
		report("pe1", 100, timeseries.TrendUp),
		report("pe2", 101, timeseries.TrendUp),
		report("pe3", 110, timeseries.TrendUp), // propagation victim
	}
	d := Diagnose(reports, 7, nil, DefaultConfig())
	names := d.CulpritNames()
	if len(names) != 2 || names[0] != "pe1" || names[1] != "pe2" {
		t.Fatalf("culprits = %v, want [pe1 pe2]", names)
	}
	if d.Culprits[1].Reason != "concurrent" {
		t.Errorf("reason = %q, want concurrent", d.Culprits[1].Reason)
	}
}

func TestDiagnoseConcurrencyChains(t *testing.T) {
	// Onsets 0, 1.5→(rounded to)1, 3: with a 2s threshold and chaining off
	// the last pinpointed component, all three are concurrent.
	reports := []ComponentReport{
		report("a", 100, timeseries.TrendUp),
		report("b", 102, timeseries.TrendUp),
		report("c", 104, timeseries.TrendUp),
		normalReport("d"),
	}
	d := Diagnose(reports, 4, nil, DefaultConfig())
	if len(d.Culprits) != 3 {
		t.Errorf("culprits = %v, want all three (chained concurrency)", d.CulpritNames())
	}
}

func TestDiagnoseExternalFactorWorkloadSurge(t *testing.T) {
	// All components abnormal with a shared upward trend: a workload surge,
	// not an application fault (paper §II-C).
	reports := []ComponentReport{
		report("web", 100, timeseries.TrendUp),
		report("app1", 103, timeseries.TrendUp),
		report("app2", 104, timeseries.TrendUp),
		report("db", 106, timeseries.TrendUp),
	}
	d := Diagnose(reports, 4, nil, DefaultConfig())
	if !d.ExternalFactor {
		t.Fatal("shared upward trend across all components should be external")
	}
	if len(d.Culprits) != 0 {
		t.Errorf("external factor must pinpoint nothing, got %v", d.CulpritNames())
	}
	if d.Trend != timeseries.TrendUp {
		t.Errorf("trend = %v, want up", d.Trend)
	}
}

func TestDiagnoseExternalFactorDownward(t *testing.T) {
	reports := []ComponentReport{
		report("a", 100, timeseries.TrendDown),
		report("b", 105, timeseries.TrendDown),
	}
	d := Diagnose(reports, 2, nil, DefaultConfig())
	if !d.ExternalFactor || d.Trend != timeseries.TrendDown {
		t.Errorf("shared downward trend should be external (NFS-style): %+v", d)
	}
}

func TestDiagnoseMixedTrendNotExternal(t *testing.T) {
	reports := []ComponentReport{
		report("a", 100, timeseries.TrendUp),
		report("b", 110, timeseries.TrendDown),
	}
	d := Diagnose(reports, 2, nil, DefaultConfig())
	if d.ExternalFactor {
		t.Error("mixed trends must not be classified external")
	}
	if len(d.Culprits) == 0 || d.Culprits[0].Component != "a" {
		t.Errorf("culprits = %v, want [a]", d.CulpritNames())
	}
}

func TestDiagnoseNotAllAbnormalNotExternal(t *testing.T) {
	reports := []ComponentReport{
		report("a", 100, timeseries.TrendUp),
		report("b", 110, timeseries.TrendUp),
		normalReport("c"),
	}
	d := Diagnose(reports, 3, nil, DefaultConfig())
	if d.ExternalFactor {
		t.Error("external factor requires ALL components abnormal")
	}
}

func TestDiagnoseDependencyIndependentFault(t *testing.T) {
	// Fig. 5's spurious propagation: app1 (t=200) and app2 (t=205) are both
	// abnormal, but there is no dependency path between them, so app2's
	// anomaly cannot be propagation from app1 — it is an independent fault.
	deps := depgraph.NewGraph()
	deps.AddEdge("web", "app1", 1)
	deps.AddEdge("web", "app2", 1)
	deps.AddEdge("app1", "db", 1)
	deps.AddEdge("app2", "db", 1)
	// NOTE: app1 and app2 ARE connected via web/db in the interaction
	// graph, so with the full RUBiS graph the propagation is plausible.
	// Make app2 isolated to model the independent case.
	iso := depgraph.NewGraph()
	iso.AddEdge("web", "app1", 1)
	iso.AddEdge("app1", "db", 1)
	iso.AddNode("app2")

	reports := []ComponentReport{
		report("app1", 200, timeseries.TrendUp),
		report("app2", 205, timeseries.TrendUp),
		normalReport("web"),
		normalReport("db"),
	}
	d := Diagnose(reports, 4, iso, DefaultConfig())
	names := d.CulpritNames()
	if len(names) != 2 {
		t.Fatalf("culprits = %v, want app1 + independent app2", names)
	}
	var foundIndep bool
	for _, c := range d.Culprits {
		if c.Component == "app2" && c.Reason == "independent" {
			foundIndep = true
		}
	}
	if !foundIndep {
		t.Errorf("app2 should be pinpointed as independent: %+v", d.Culprits)
	}

	// With the connected graph, app2's anomaly is explainable as
	// propagation, so only app1 is pinpointed.
	d = Diagnose(reports, 4, deps, DefaultConfig())
	if len(d.CulpritNames()) != 1 || d.CulpritNames()[0] != "app1" {
		t.Errorf("connected graph: culprits = %v, want [app1]", d.CulpritNames())
	}
}

func TestDiagnoseEmptyDependencySkipsFiltering(t *testing.T) {
	// Stream systems: discovery fails, deps empty — FChain falls back to
	// pure propagation order (and does not pinpoint everything).
	reports := []ComponentReport{
		report("pe3", 100, timeseries.TrendUp),
		report("pe6", 108, timeseries.TrendUp),
		report("pe2", 115, timeseries.TrendUp),
		normalReport("pe1"),
	}
	d := Diagnose(reports, 7, depgraph.NewGraph(), DefaultConfig())
	if len(d.CulpritNames()) != 1 || d.CulpritNames()[0] != "pe3" {
		t.Errorf("culprits = %v, want [pe3]", d.CulpritNames())
	}
}

func TestDiagnoseString(t *testing.T) {
	d := Diagnose(nil, 2, nil, DefaultConfig())
	if d.String() != "no faulty components pinpointed" {
		t.Errorf("String = %q", d.String())
	}
	d = Diagnose([]ComponentReport{report("a", 1, timeseries.TrendUp)}, 2, nil, DefaultConfig())
	if d.String() == "" {
		t.Error("String should describe culprits")
	}
	d = Diagnose([]ComponentReport{
		report("a", 1, timeseries.TrendUp),
		report("b", 2, timeseries.TrendUp),
	}, 2, nil, DefaultConfig())
	if !d.ExternalFactor {
		t.Skip("setup produced non-external diagnosis")
	}
	if d.String() == "" {
		t.Error("external String empty")
	}
}

func TestLocalizerBasics(t *testing.T) {
	l := NewLocalizer(Config{}, []string{"b", "a"})
	got := l.Components()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Components = %v", got)
	}
	if err := l.Observe("ghost", 0, metric.CPU, 1); err == nil {
		t.Error("unknown component should error")
	}
	if err := l.Observe("a", 0, metric.CPU, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Monitor("a"); !ok {
		t.Error("Monitor(a) not found")
	}
	if _, ok := l.Monitor("ghost"); ok {
		t.Error("Monitor(ghost) should not exist")
	}
	if l.Config().LookBack != 100 {
		t.Errorf("default LookBack = %d", l.Config().LookBack)
	}
}
