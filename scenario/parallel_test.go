package scenario_test

import (
	"testing"

	"fchain/scenario"
)

// TestRunWithParallelEquivalence is the end-to-end determinism contract of
// the sweep engine: regenerating any figure, Table I or the ablation with
// four workers must produce a report byte-identical to the one-at-a-time
// run. Reports hold no wall-clock time, so they compare as they are.
func TestRunWithParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates thirteen experiments twice; skipped in -short")
	}
	ids := []string{
		scenario.Figure2, scenario.Figure3, scenario.Figure4, scenario.Figure5,
		scenario.Figure6, scenario.Figure7, scenario.Figure8, scenario.Figure9,
		scenario.Figure10, scenario.Figure11, scenario.Figure12, scenario.TableI,
		scenario.Ablation,
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial, err := scenario.RunWith(id, scenario.RunOptions{Runs: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := scenario.RunWith(id, scenario.RunOptions{Runs: 2, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Text != parallel.Text {
				t.Errorf("parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial.Text, parallel.Text)
			}
			if len(serial.Text) == 0 {
				t.Error("empty report")
			}
		})
	}
}
