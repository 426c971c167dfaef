package fchain_test

import (
	"bytes"
	"testing"

	"fchain/internal/eval"
	"fchain/internal/faultlib"
	"fchain/internal/golden"
	"fchain/internal/meshgen"
)

func meshParams(n, fanout, depth int, seed int64) meshgen.Params {
	return meshgen.Params{Components: n, FanOut: fanout, Depth: depth, CycleProb: 0.05, Seed: seed}
}

func smokeTemplates() []faultlib.Template {
	return []faultlib.Template{
		faultlib.MustLookup("gray-disk"),
		faultlib.MustLookup("retry-storm"),
		faultlib.MustLookup("workload-surge"),
	}
}

// TestResultsMatrixArtifact regenerates the committed (topology × fault)
// accuracy matrix — three generated mesh sizes × the full fault-template
// library — and compares it byte-for-byte against results_matrix.txt at the
// repository root. Regenerate with `go test ./... -update` after an
// intentional change to the generator, the template library, or the
// localizer.
//
// Beyond byte stability, the matrix must satisfy the library's accuracy
// contract on every cell: each genuine fault template is localized with
// non-zero recall on every topology size, and the false-alarm traps are
// never blamed on any component.
func TestResultsMatrixArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fault-injection matrix")
	}
	res, err := eval.MatrixCampaign(eval.MatrixConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Meshes) < 3 {
		t.Fatalf("matrix has %d mesh sizes, want >= 3", len(res.Meshes))
	}
	templates := make(map[string]bool)
	for _, c := range res.Cells {
		templates[c.Template] = true
		if c.Trap {
			if c.FalseAlarms != 0 || c.Outcome.FP != 0 {
				t.Errorf("%s/%s: trap blamed culprits (false-alarms=%d, fp=%d)",
					c.Mesh, c.Template, c.FalseAlarms, c.Outcome.FP)
			}
			continue
		}
		if c.Trials == 0 {
			t.Errorf("%s/%s: no trial produced an SLO violation", c.Mesh, c.Template)
			continue
		}
		if c.Outcome.Recall() <= 0 {
			t.Errorf("%s/%s: recall = %.2f, want > 0 (tp=%d fn=%d)",
				c.Mesh, c.Template, c.Outcome.Recall(), c.Outcome.TP, c.Outcome.FN)
		}
	}
	if len(templates) < 6 {
		t.Errorf("matrix covers %d fault templates, want >= 6", len(templates))
	}
	golden.Assert(t, "results_matrix.txt", []byte(res.Render()))
}

// smokeMatrixConfig is the reduced 2×3 matrix TestMatrixSmoke runs serial
// and parallel (under -race in CI's test job): two small topologies against
// a gray failure, a cascade, and a false-alarm trap.
func smokeMatrixConfig(workers int) eval.MatrixConfig {
	cfg := eval.MatrixConfig{
		Meshes: []eval.MeshCase{
			{Name: "smoke-n60", Params: meshParams(60, 3, 4, 14)},
			{Name: "smoke-n100", Params: meshParams(100, 3, 5, 15)},
		},
		Runs: 1,
	}
	cfg.Run.Workers = workers
	cfg.Templates = smokeTemplates()
	return cfg
}

// TestMatrixSmoke checks the matrix pipeline's determinism contract on the
// reduced CI matrix: a serial run (one campaign worker) and a parallel run
// must render byte-identical text, and the cells must meet the same accuracy
// contract as the full artifact.
func TestMatrixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fault-injection simulations")
	}
	serialRes, err := eval.MatrixCampaign(smokeMatrixConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	serial := []byte(serialRes.Render())
	parallelRes, err := eval.MatrixCampaign(smokeMatrixConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if parallel := []byte(parallelRes.Render()); !bytes.Equal(serial, parallel) {
		t.Fatalf("matrix differs between 1 and 4 campaign workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	for _, c := range serialRes.Cells {
		if c.Trap {
			if c.FalseAlarms != 0 {
				t.Errorf("%s/%s: trap blamed culprits", c.Mesh, c.Template)
			}
			continue
		}
		if c.Trials > 0 && c.Outcome.Recall() <= 0 {
			t.Errorf("%s/%s: recall = %.2f, want > 0", c.Mesh, c.Template, c.Outcome.Recall())
		}
	}
}
