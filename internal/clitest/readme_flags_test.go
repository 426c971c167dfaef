package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestREADMEFlagsExist checks README's fchain-master, fchain-slave and
// topology flag tables against each named binary's -h output in both
// directions: every flag in a row's first column must exist, so a deleted
// flag cannot linger in the docs, and every flag the binary lists must
// have a row, so a new flag cannot go undocumented.
func TestREADMEFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	_, masterBin, slaveBin := binaries()
	bins := map[string]string{
		"master":     masterBin,
		"slave":      slaveBin,
		"aggregator": binary("fchain-aggregator"),
	}
	help := make(map[string]string)
	for daemon, bin := range bins {
		out, _ := exec.Command(bin, "-h").CombinedOutput() // only the usage text matters
		help[daemon] = string(out)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}

	flagRe := regexp.MustCompile("`(-[a-z][a-z0-9-]*)`")
	daemon := "" // set by the line introducing a per-daemon table
	checked := 0
	documented := make(map[string]map[string]bool) // daemon -> flag -> has a row
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
			if documented[d] == nil {
				documented[d] = make(map[string]bool)
			}
			documented[d][m[1]] = true
			if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m[1]) + `( |$)`).MatchString(usage) {
				t.Errorf("README documents %s for fchain-%s, which its -h does not list", m[1], d)
			}
		}
	}
	if checked < 25 {
		t.Errorf("only %d README flags checked; did the flag tables move?", checked)
	}

	helpFlagRe := regexp.MustCompile(`(?m)^  (-[a-z][a-z0-9-]*)( |$)`)
	for daemon, usage := range help {
		for _, m := range helpFlagRe.FindAllStringSubmatch(usage, -1) {
			if !documented[daemon][m[1]] {
				t.Errorf("fchain-%s -h lists %s, which has no row in README's flag tables", daemon, m[1])
			}
		}
	}
}
