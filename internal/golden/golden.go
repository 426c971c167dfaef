// Package golden manages committed golden files: expected outputs checked
// into testdata/ that pin the pipeline's end-to-end behavior. Tests compare
// against them with Assert and regenerate them with `go test ./... -update`.
//
// The -update flag is registered exactly once per test binary by importing
// this package. Because `go test ./... -update` hands the flag to every
// test binary in the module, every package with tests must blank-import
// this package (a one-line update_flag_test.go), or the run fails with
// "flag provided but not defined".
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fchain/internal/obs"
)

// update is registered at package init; read it through Update().
var update = flag.Bool("update", false, "rewrite golden files with current test output")

// Update reports whether the test run was asked to regenerate golden files.
func Update() bool { return *update }

// Path returns the conventional location of a golden file: testdata/golden/
// under the calling package, with the given name.
func Path(name string) string { return filepath.Join("testdata", "golden", name) }

// Assert compares got against the golden file at path. Under -update it
// (re)writes the file instead — atomically, so two consecutive -update runs
// on unchanged code produce byte-identical files and no torn state is ever
// committed. Without -update, a missing golden file is a fatal error that
// names the regeneration command.
func Assert(t *testing.T, path string, got []byte) {
	t.Helper()
	if Update() {
		if err := write(path, got); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — run `go test ./... -update` to create it (%v)", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// write creates the golden file's directory and writes the file through
// obs.WriteFileAtomic, the same temp-and-rename writer checkpoints use.
func write(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return obs.WriteFileAtomic(path, data)
}
