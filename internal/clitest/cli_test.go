// Package clitest exercises the shipped command-line binaries end to end:
// fchain-sim produces a metric capture and a dependency-graph file,
// fchain-master and fchain-slave localize from them over real TCP.
package clitest

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncLog is an output sink a child process writes from exec's copying
// goroutine while the test reads it.
type syncLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// waitFeedsDrained returns once every slave log reports that its stdin feed
// has reached the models. A slave registers before it reads its feed, so
// under load it can still be ingesting when the master asks.
func waitFeedsDrained(t *testing.T, logs []*syncLog) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, l := range logs {
		for !strings.Contains(l.String(), "sample feed drained") {
			if time.Now().After(deadline) {
				t.Fatalf("slave feed never drained; log:\n%s", l.String())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// commands lists every binary a test here runs.
var commands = []string{"fchain-sim", "fchain-master", "fchain-slave", "fchain-aggregator"}

// binDir holds the commands TestMain built; it stays empty under -short,
// where every test that runs a binary skips.
var binDir string

// TestMain builds every command once per package run, in one go build, and
// removes the binaries when the tests are done.
func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		dir, err := os.MkdirTemp("", "fchain-clitest-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		args := []string{"build", "-o", dir + string(filepath.Separator)}
		for _, name := range commands {
			args = append(args, "./cmd/"+name)
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = filepath.Join("..", "..") // internal/clitest -> repo root
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build commands: %v\n%s", err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
		binDir = dir
	}
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binaries returns the paths of the sim, master and slave binaries.
func binaries() (simBin, masterBin, slaveBin string) {
	return binary("fchain-sim"), binary("fchain-master"), binary("fchain-slave")
}

// binary returns the path of the cmd/<name> binary TestMain built.
func binary(name string) string { return filepath.Join(binDir, name) }

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	simBin, masterBin, slaveBin := binaries()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "metrics.csv")
	depsPath := filepath.Join(dir, "deps.json")

	// 1. Generate a faulty run, its metric capture, and the dependency file.
	simOut, err := exec.Command(simBin,
		"-app", "rubis", "-fault", "cpuhog", "-seed", "1", "-inject", "1700",
		"-emit-csv", csvPath, "-save-deps", depsPath).CombinedOutput()
	if err != nil {
		t.Fatalf("fchain-sim: %v\n%s", err, simOut)
	}
	tvRe := regexp.MustCompile(`SLO violation detected at t=(\d+)`)
	m := tvRe.FindSubmatch(simOut)
	if m == nil {
		t.Fatalf("no tv in sim output:\n%s", simOut)
	}
	tv := string(m[1])

	// 2. Start the master with the dependency file.
	master := exec.Command(masterBin, "-listen", "127.0.0.1:0", "-deps", depsPath)
	masterIn, err := master.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	masterOut, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		fmt.Fprintln(masterIn, "quit")
		master.Wait()
	}()
	reader := bufio.NewReader(masterOut)
	addr := ""
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("reading master output: %v", err)
		}
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
		}
	}
	if addr == "" {
		t.Fatal("master never reported its address")
	}

	// 3. One slave per component, each fed its share of the capture.
	var (
		slaves    []*exec.Cmd
		slaveLogs []*syncLog
	)
	for _, comp := range []string{"web", "app1", "app2", "db"} {
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, comp+",") {
				lines = append(lines, line)
			}
		}
		slave := exec.Command(slaveBin, "-name", "host-"+comp, "-components", comp, "-master", addr)
		slave.Stdin = strings.NewReader(strings.Join(lines, "\n"))
		slaveLog := &syncLog{}
		slave.Stdout = slaveLog
		slave.Stderr = slaveLog
		if err := slave.Start(); err != nil {
			t.Fatal(err)
		}
		slaves = append(slaves, slave)
		slaveLogs = append(slaveLogs, slaveLog)
	}
	// Poll the master until every slave has registered (they keep serving
	// after their stdin feed drains).
	registered := 0
	deadline = time.Now().Add(30 * time.Second)
	for registered < 4 && time.Now().Before(deadline) {
		fmt.Fprintln(masterIn, "slaves")
		count := 0
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				t.Fatalf("reading master output: %v", err)
			}
			if strings.Contains(line, "host-") {
				count++
			}
			if strings.Contains(line, "components total") {
				break
			}
		}
		registered = count
		if registered < 4 {
			time.Sleep(300 * time.Millisecond)
		}
	}
	if registered < 4 {
		t.Fatalf("only %d slaves registered", registered)
	}
	waitFeedsDrained(t, slaveLogs)

	// 4. Trigger localization at tv and check the culprit.
	fmt.Fprintln(masterIn, "localize "+tv)
	found := false
	deadline = time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		line, err := reader.ReadString('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(line, "culprits:") {
			if !strings.Contains(line, "db(") {
				t.Errorf("diagnosis does not blame db: %s", line)
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("no diagnosis line from master")
	}
	for _, s := range slaves {
		s.Process.Kill()
		s.Wait()
	}
}

// TestMasterRefusesInertFlags: a master flag that would silently do nothing
// without its prerequisite fails at startup with exit status 1, naming the
// missing flag, instead of starting a master that ignores it.
func TestMasterRefusesInertFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	masterBin := binary("fchain-master")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-standby"}, "-standby requires -vnodes"},
		{[]string{"-replay"}, "-replay requires -journal"},
	} {
		cmd := exec.Command(masterBin, append([]string{"-listen", "127.0.0.1:0"}, tc.args...)...)
		cmd.Stdin = strings.NewReader("quit\n")
		out, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Errorf("fchain-master %v: err = %v, want exit status 1\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("fchain-master %v output lacks %q:\n%s", tc.args, tc.want, out)
		}
		if strings.Contains(string(out), "listening on") {
			t.Errorf("fchain-master %v started before refusing:\n%s", tc.args, out)
		}
	}
}
