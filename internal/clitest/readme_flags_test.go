package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestREADMEFlagsExist checks every flag in the first column of README's
// fchain-master, fchain-slave and topology flag tables against the named
// binary's -h output, so a deleted flag cannot linger in the docs.
func TestREADMEFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	_, masterBin, slaveBin := buildBinaries(t)
	bins := map[string]string{
		"master":     masterBin,
		"slave":      slaveBin,
		"aggregator": buildCommand(t, t.TempDir(), "fchain-aggregator"),
	}
	help := make(map[string]string)
	for daemon, bin := range bins {
		out, _ := exec.Command(bin, "-h").CombinedOutput() // only the usage text matters
		help[daemon] = string(out)
	}
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}

	flagRe := regexp.MustCompile("`(-[a-z][a-z0-9-]*)`")
	daemon := "" // set by the line introducing a per-daemon table
	checked := 0
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "`fchain-master`"):
			daemon = "master"
		case strings.HasPrefix(line, "`fchain-slave`"):
			daemon = "slave"
		case strings.HasPrefix(line, "Topology"):
			daemon = "" // the topology table names the daemon per row
		}
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(line, "|")
		d := daemon
		if d == "" {
			d = strings.TrimSpace(cells[2])
		}
		usage, ok := help[d]
		if !ok {
			t.Errorf("README row names unknown daemon %q: %s", d, line)
			continue
		}
		for _, m := range flagRe.FindAllStringSubmatch(cells[1], -1) {
			checked++
			if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m[1]) + `( |$)`).MatchString(usage) {
				t.Errorf("README documents %s for fchain-%s, which its -h does not list", m[1], d)
			}
		}
	}
	if checked < 25 {
		t.Errorf("only %d README flags checked; did the flag tables move?", checked)
	}
}
