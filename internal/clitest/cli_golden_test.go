package clitest

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fchain/internal/golden"
)

// Wall-clock durations, ephemeral ports, and latency histograms vary run to
// run; everything else in the console output is pinned by the goldens.
var (
	addrRe = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	durRe  = regexp.MustCompile(`\b\d+(?:\.\d+)?(?:ns|µs|us|ms|s|m|h)\b`)
)

func normalizeCLI(out []byte) []byte {
	norm := addrRe.ReplaceAll(out, []byte("<ADDR>"))
	norm = durRe.ReplaceAll(norm, []byte("<DUR>"))
	return norm
}

// TestCLIGoldenSim pins fchain-sim's full console output for a canonical
// run. Regenerate with `go test ./... -update` after an intentional
// output or pipeline change.
func TestCLIGoldenSim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	simBin, _, _ := buildBinaries(t)
	out, err := exec.Command(simBin,
		"-app", "rubis", "-fault", "cpuhog", "-seed", "1", "-inject", "1700",
		"-parallel", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("fchain-sim: %v\n%s", err, out)
	}
	golden.Assert(t, golden.Path("sim-rubis-cpuhog.txt"), normalizeCLI(out))
}

// TestCLIGoldenMeshSim pins the scenario-factory CLI path: a generated
// 60-component mesh under a gray-disk template fault, localized with the
// mesh monitoring profile. The run is a pure function of the mesh parameter
// string and the seed, so the whole console transcript is byte-stable.
func TestCLIGoldenMeshSim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	simBin, _, _ := buildBinaries(t)
	out, err := exec.Command(simBin,
		"-mesh", "n=60,fanout=3,depth=4,seed=14", "-fault", "gray-disk",
		"-seed", "2", "-parallel", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("fchain-sim -mesh: %v\n%s", err, out)
	}
	golden.Assert(t, golden.Path("sim-mesh-gray-disk.txt"), normalizeCLI(out))
}

// consoleBlock sends one console command to the master and returns every
// output line it produced. A deliberately unknown sentinel command sent
// right behind it marks where the block ends.
func consoleBlock(t *testing.T, in io.Writer, r *bufio.Reader, cmd, sentinel string) string {
	t.Helper()
	fmt.Fprintln(in, cmd)
	fmt.Fprintln(in, sentinel)
	var b strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading console output after %q: %v\ngot so far:\n%s", cmd, err, b.String())
		}
		if strings.Contains(line, "unknown command") && strings.Contains(line, sentinel) {
			return b.String()
		}
		b.WriteString(line)
	}
}

// TestCLIGoldenMasterConsole pins the master's health and localize console
// output for the canonical RUBiS CpuHog capture, and checks the -debug-addr
// endpoints end to end (healthz up, localize counters exported).
func TestCLIGoldenMasterConsole(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	simBin, masterBin, slaveBin := buildBinaries(t)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "metrics.csv")
	depsPath := filepath.Join(dir, "deps.json")

	simOut, err := exec.Command(simBin,
		"-app", "rubis", "-fault", "cpuhog", "-seed", "1", "-inject", "1700",
		"-emit-csv", csvPath, "-save-deps", depsPath).CombinedOutput()
	if err != nil {
		t.Fatalf("fchain-sim: %v\n%s", err, simOut)
	}
	m := regexp.MustCompile(`SLO violation detected at t=(\d+)`).FindSubmatch(simOut)
	if m == nil {
		t.Fatalf("no tv in sim output:\n%s", simOut)
	}
	tv := string(m[1])

	master := exec.Command(masterBin, "-listen", "127.0.0.1:0", "-deps", depsPath,
		"-debug-addr", "127.0.0.1:0", "-journal", filepath.Join(dir, "master.jsonl"))
	masterIn, err := master.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	masterOut, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	masterErr := &syncLog{}
	master.Stderr = masterErr
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		fmt.Fprintln(masterIn, "quit")
		master.Wait()
	}()
	reader := bufio.NewReader(masterOut)
	addr := ""
	for addr == "" {
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("reading master output: %v\nstderr:\n%s", err, masterErr.String())
		}
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
		}
	}
	// Skip the banner line so captures start at the first command response.
	if _, err := reader.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	var (
		slaves    []*exec.Cmd
		slaveLogs []*syncLog
	)
	for _, comp := range []string{"web", "app1", "app2", "db"} {
		var lines []string
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, comp+",") {
				lines = append(lines, line)
			}
		}
		// -parallel 1 keeps the slaves' analysis serial so nothing about
		// the machine's core count can leak into the golden output.
		slave := exec.Command(slaveBin, "-name", "host-"+comp, "-components", comp, "-master", addr,
			"-parallel", "1")
		slave.Stdin = strings.NewReader(strings.Join(lines, "\n"))
		slaveLog := &syncLog{}
		slave.Stdout = slaveLog
		if err := slave.Start(); err != nil {
			t.Fatal(err)
		}
		slaves = append(slaves, slave)
		slaveLogs = append(slaveLogs, slaveLog)
	}
	defer func() {
		for _, s := range slaves {
			s.Process.Kill()
			s.Wait()
		}
	}()
	registered := 0
	deadline := time.Now().Add(30 * time.Second)
	for registered < 4 && time.Now().Before(deadline) {
		block := consoleBlock(t, masterIn, reader, "slaves", "sync-slaves")
		registered = strings.Count(block, "host-")
		if registered < 4 {
			time.Sleep(300 * time.Millisecond)
		}
	}
	if registered < 4 {
		t.Fatalf("only %d slaves registered", registered)
	}
	waitFeedsDrained(t, slaveLogs)

	health := consoleBlock(t, masterIn, reader, "health", "sync-health")
	localize := consoleBlock(t, masterIn, reader, "localize "+tv, "sync-localize")
	out := "== health\n" + health + "== localize " + tv + "\n" + localize
	golden.Assert(t, golden.Path("master-console.txt"), normalizeCLI([]byte(out)))

	// The -debug-addr plumbing end to end: the structured log names the
	// debug address; its /healthz answers and /metrics exports the
	// localization counters.
	dm := regexp.MustCompile(`debug server listening" addr=(\S+)`).FindStringSubmatch(masterErr.String())
	if dm == nil {
		t.Fatalf("master log has no debug server line:\n%s", masterErr.String())
	}
	resp, err := http.Get("http://" + dm[1] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + dm[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`fchain_localize_total{outcome="ok"} 1`, "fchain_diagnose_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// /history serves the localization that just ran.
	resp, err = http.Get("http://" + dm[1] + "/history")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/history status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"tv": `+tv) {
		t.Errorf("/history missing the localization record:\n%s", body)
	}
}

// TestCLIGoldenMeshMasterConsole runs a generated 60-component mesh
// end-to-end through the real daemons: fchain-sim captures the mesh under a
// gray-disk template fault, then a master and three slaves — all with
// -mesh-profile so the distributed pipeline analyzes with the same
// monitoring profile the simulator localized with — replay the capture and
// the console's health and localize output is pinned byte for byte.
func TestCLIGoldenMeshMasterConsole(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	simBin, masterBin, slaveBin := buildBinaries(t)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "metrics.csv")
	depsPath := filepath.Join(dir, "deps.json")

	simOut, err := exec.Command(simBin,
		"-mesh", "n=60,fanout=3,depth=4,seed=14", "-fault", "gray-disk",
		"-seed", "2", "-parallel", "1",
		"-emit-csv", csvPath, "-save-deps", depsPath).CombinedOutput()
	if err != nil {
		t.Fatalf("fchain-sim -mesh: %v\n%s", err, simOut)
	}
	m := regexp.MustCompile(`SLO violation detected at t=(\d+)`).FindSubmatch(simOut)
	if m == nil {
		t.Fatalf("no tv in sim output:\n%s", simOut)
	}
	tv := string(m[1])

	master := exec.Command(masterBin, "-listen", "127.0.0.1:0", "-deps", depsPath,
		"-mesh-profile")
	masterIn, err := master.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	masterOut, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	masterErr := &syncLog{}
	master.Stderr = masterErr
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		fmt.Fprintln(masterIn, "quit")
		master.Wait()
	}()
	reader := bufio.NewReader(masterOut)
	addr := ""
	for addr == "" {
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("reading master output: %v\nstderr:\n%s", err, masterErr.String())
		}
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
		}
	}
	if _, err := reader.ReadString('\n'); err != nil { // banner
		t.Fatal(err)
	}

	// Partition the mesh's components round-robin across three slaves, in
	// the order the CSV first names them so the split is deterministic.
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	perComp := make(map[string][]string)
	var order []string
	for _, line := range strings.Split(string(data), "\n") {
		comp, _, ok := strings.Cut(line, ",")
		if !ok {
			continue
		}
		if _, seen := perComp[comp]; !seen {
			order = append(order, comp)
		}
		perComp[comp] = append(perComp[comp], line)
	}
	const nSlaves = 3
	groups := make([][]string, nSlaves)     // component names per slave
	groupLines := make([][]string, nSlaves) // CSV lines per slave
	for i, comp := range order {
		groups[i%nSlaves] = append(groups[i%nSlaves], comp)
		groupLines[i%nSlaves] = append(groupLines[i%nSlaves], perComp[comp]...)
	}
	var slaves []*exec.Cmd
	var slaveErrs []string
	for i := 0; i < nSlaves; i++ {
		// -parallel 1 keeps the slaves' analysis serial so nothing about
		// the machine's core count can leak into the golden output. The
		// debug endpoint exposes the ingest counters the test's barrier
		// below polls; stderr goes to a file so the debug address can be
		// read without racing the running process.
		slave := exec.Command(slaveBin, "-name", fmt.Sprintf("mesh-host-%d", i),
			"-components", strings.Join(groups[i], ","), "-master", addr,
			"-mesh-profile", "-parallel", "1", "-debug-addr", "127.0.0.1:0")
		slave.Stdin = strings.NewReader(strings.Join(groupLines[i], "\n"))
		errPath := filepath.Join(dir, fmt.Sprintf("slave-%d.stderr", i))
		errFile, err := os.Create(errPath)
		if err != nil {
			t.Fatal(err)
		}
		slave.Stderr = errFile
		if err := slave.Start(); err != nil {
			t.Fatal(err)
		}
		errFile.Close()
		slaves = append(slaves, slave)
		slaveErrs = append(slaveErrs, errPath)
	}
	defer func() {
		for _, s := range slaves {
			s.Process.Kill()
			s.Wait()
		}
	}()
	registered := 0
	deadline := time.Now().Add(30 * time.Second)
	for registered < nSlaves && time.Now().Before(deadline) {
		block := consoleBlock(t, masterIn, reader, "slaves", "sync-slaves")
		registered = strings.Count(block, "mesh-host-")
		if registered < nSlaves {
			time.Sleep(300 * time.Millisecond)
		}
	}
	if registered < nSlaves {
		t.Fatalf("only %d slaves registered", registered)
	}

	// The slaves consume their stdin captures asynchronously, and both the
	// verdict and the console's cumulative per-component quality counters
	// depend on how much of the capture has been ingested — so the localize
	// output is only byte-stable once every slave has consumed its whole
	// feed. Each slave's fchain_ingest_samples_total must reach the number
	// of CSV lines it was fed (errors counted too, so a rejected sample
	// cannot stall the barrier forever).
	sampleRe := regexp.MustCompile(`fchain_ingest_(?:samples|errors)_total (\d+)`)
	for i, errPath := range slaveErrs {
		dbgAddr := ""
		for dbgAddr == "" && time.Now().Before(deadline) {
			raw, _ := os.ReadFile(errPath)
			if dm := regexp.MustCompile(`debug server listening" addr=(\S+)`).FindSubmatch(raw); dm != nil {
				dbgAddr = string(dm[1])
			} else {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if dbgAddr == "" {
			t.Fatalf("slave %d never announced its debug server", i)
		}
		ingested := -1
		for ingested < len(groupLines[i]) && time.Now().Before(deadline) {
			resp, err := http.Get("http://" + dbgAddr + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			ingested = 0
			for _, mm := range sampleRe.FindAllSubmatch(body, -1) {
				n, _ := strconv.Atoi(string(mm[1]))
				ingested += n
			}
			if ingested < len(groupLines[i]) {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if ingested < len(groupLines[i]) {
			t.Fatalf("slave %d ingested %d of %d samples before the deadline", i, ingested, len(groupLines[i]))
		}
	}

	health := consoleBlock(t, masterIn, reader, "health", "sync-health")
	localize := consoleBlock(t, masterIn, reader, "localize "+tv, "sync-localize")
	out := "== health\n" + health + "== localize " + tv + "\n" + localize
	golden.Assert(t, golden.Path("master-console-mesh.txt"), normalizeCLI([]byte(out)))
}
