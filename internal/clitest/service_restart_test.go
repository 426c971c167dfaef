package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// readUntil consumes master console lines until one contains want, failing
// after the deadline. It returns the matching line.
func readUntil(t *testing.T, r *bufio.Reader, want string, timeout time.Duration) string {
	t.Helper()
	type res struct {
		line string
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil || strings.Contains(line, want) {
				ch <- res{line, err}
				return
			}
		}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("waiting for %q: %v", want, r.err)
		}
		return r.line
	case <-time.After(timeout):
		t.Fatalf("no %q line within %v", want, timeout)
		return ""
	}
}

// journalVerdictDiagnoses returns the raw diagnosis JSON of every
// verdict_served event in the journal, keyed by source, in order.
func journalVerdictDiagnoses(t *testing.T, path string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, p := range []string{path + ".2", path + ".1", path} {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		for _, line := range bytes.Split(raw, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var ev struct {
				Type string `json:"type"`
				Data struct {
					Source    string          `json:"source"`
					Diagnosis json.RawMessage `json:"diagnosis"`
				} `json:"data"`
			}
			if json.Unmarshal(line, &ev) != nil {
				continue
			}
			if ev.Type == "verdict_served" {
				out[ev.Data.Source] = append(out[ev.Data.Source], string(ev.Data.Diagnosis))
			}
		}
	}
	return out
}

// TestServiceKillAndRestart proves the durability story end to end with the
// real binaries: a master serves a violation verdict, dies on SIGTERM
// mid-stream (exit 0, graceful), and a restarted master on the same address
// replays the journal. At boot no slave has re-registered, so the violation
// that was accepted but never served fails to re-run and stays pending; once
// the running slaves re-register, a console `replay` re-runs it, and its
// diagnosis is byte-identical to the live one. A slave sent SIGTERM exits 0
// after writing a final model checkpoint.
func TestServiceKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	simBin, masterBin, slaveBin := binaries()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "metrics.csv")
	depsPath := filepath.Join(dir, "deps.json")
	journalPath := filepath.Join(dir, "service.jsonl")

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

	// First master life: service mode with a journal and a closed namespace.
	master := exec.Command(masterBin, "-listen", "127.0.0.1:0", "-deps", depsPath,
		"-journal", journalPath, "-tenants", "t1,t2", "-drain", "5s")
	masterIn, err := master.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	masterOut, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var masterErr strings.Builder
	master.Stderr = &masterErr
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	reader := bufio.NewReader(masterOut)
	line := readUntil(t, reader, "listening on ", 10*time.Second)
	addr := strings.TrimSpace(line[strings.Index(line, "listening on ")+len("listening on "):])

	// One slave per component; host-db also checkpoints for the slave
	// shutdown check.
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpt-db")
	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var slaves []*exec.Cmd
	var logs []*syncLog
	for _, comp := range []string{"web", "app1", "app2", "db"} {
		var lines []string
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, comp+",") {
				lines = append(lines, l)
			}
		}
		// A short reconnect backoff lets the slaves find the restarted
		// master quickly.
		args := []string{"-name", "host-" + comp, "-components", comp, "-master", addr,
			"-backoff", "100ms", "-backoff-max", "500ms"}
		if comp == "db" {
			args = append(args, "-checkpoint-dir", ckptDir)
		}
		slave := exec.Command(slaveBin, args...)
		slave.Stdin = strings.NewReader(strings.Join(lines, "\n"))
		log := &syncLog{}
		slave.Stdout, slave.Stderr = log, log
		if err := slave.Start(); err != nil {
			t.Fatal(err)
		}
		slaves = append(slaves, slave)
		logs = append(logs, log)
	}
	dbSlave, dbOut := slaves[3], logs[3]
	defer func() {
		for _, s := range slaves {
			if s.ProcessState == nil {
				s.Process.Kill()
				s.Wait()
			}
		}
	}()
	waitRegistered(t, masterIn, reader)
	// The live and the replayed verdict must see the same models.
	waitFeedsDrained(t, logs)

	// Serve one violation live, then SIGTERM the master mid-stream.
	fmt.Fprintln(masterIn, "violate t1 shop "+tv)
	verdictLine := readUntil(t, reader, "verdict t1/shop", 60*time.Second)
	if !strings.Contains(verdictLine, "[live]") {
		t.Errorf("first verdict not live: %s", verdictLine)
	}
	if err := master.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	readUntil(t, reader, "graceful shutdown complete", 15*time.Second)
	if err := master.Wait(); err != nil {
		t.Fatalf("master did not exit 0 on SIGTERM: %v\nstderr:\n%s", err, masterErr.String())
	}
	// Freeze the slaves until master 2's boot replay has run, so none can
	// re-register in the moment between its Start and its Replay.
	signalAll(t, slaves, syscall.SIGSTOP)

	// Simulate a violation accepted right before the crash but never
	// served: append its write-ahead record by hand.
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	maxSeq := int64(0)
	for _, l := range bytes.Split(raw, []byte("\n")) {
		var ev struct {
			Seq int64 `json:"seq"`
		}
		if json.Unmarshal(l, &ev) == nil && ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
	}
	pending := fmt.Sprintf(`{"seq":%d,"ts_unix_ns":%d,"type":"violation_accepted","data":{"tenant":"t1","app":"shop","tv":%s}}`+"\n",
		maxSeq+1, time.Now().UnixNano(), tv)
	f, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(pending); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second master life on the same address: -replay restores history at
	// boot, but the pending violation cannot re-run yet because no slave
	// has re-registered.
	master2 := exec.Command(masterBin, "-listen", addr, "-deps", depsPath,
		"-journal", journalPath, "-tenants", "t1,t2", "-replay")
	master2In, err := master2.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	master2Out, err := master2.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var master2Err strings.Builder
	master2.Stderr = &master2Err
	if err := master2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if master2.ProcessState == nil {
			master2.Process.Kill()
			master2.Wait()
		}
	}()
	reader2 := bufio.NewReader(master2Out)
	replayLine := readUntil(t, reader2, "replayed journal:", 15*time.Second)
	if !strings.Contains(replayLine, "1 history records, 0 re-run (1 failed)") {
		t.Errorf("boot replay: %s, want the history restored and the re-run failed", replayLine)
	}
	signalAll(t, slaves, syscall.SIGCONT)
	readUntil(t, reader2, "listening on ", 10*time.Second)

	// The running slaves re-register; a console replay now re-runs the
	// pending violation, and history carries the restored tenant/app-tagged
	// record.
	waitRegistered(t, master2In, reader2)
	fmt.Fprintln(master2In, "replay")
	replayLine = readUntil(t, reader2, "replayed ", 60*time.Second)
	if !strings.Contains(replayLine, "1 re-run (0 failed)") {
		t.Errorf("console replay did not re-run the pending violation: %s", replayLine)
	}
	histBlock := consoleBlock(t, master2In, reader2, "history", "sync-history")
	if !strings.Contains(histBlock, "[t1/shop]") {
		t.Errorf("restored history lacks the tenant/app tag:\n%s", histBlock)
	}
	fmt.Fprintln(master2In, "quit")
	if err := master2.Wait(); err != nil {
		t.Fatalf("restarted master exit: %v\nstderr:\n%s", err, master2Err.String())
	}

	// The re-run localized the same tv over the same drained models, so
	// its diagnosis is byte-identical to the live one.
	diags := journalVerdictDiagnoses(t, journalPath)
	if len(diags) != 2 || len(diags["live"]) != 1 || len(diags["replay"]) != 1 {
		t.Fatalf("verdict_served events by source = %v, want one live and one replay", diags)
	}
	if diags["replay"][0] != diags["live"][0] {
		t.Errorf("replay verdict not byte-identical to live:\n%s\n%s", diags["live"][0], diags["replay"][0])
	}

	// Slave graceful shutdown: SIGTERM exits 0 after a final checkpoint.
	if err := dbSlave.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := dbSlave.Wait(); err != nil {
		t.Fatalf("slave did not exit 0 on SIGTERM: %v\noutput:\n%s", err, dbOut.String())
	}
	if !strings.Contains(dbOut.String(), "graceful shutdown complete") {
		t.Errorf("slave shutdown message missing:\n%s", dbOut.String())
	}
	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("no checkpoint written by SIGTERM shutdown")
	}
}

// waitRegistered polls the master console until all four slaves are
// registered.
func waitRegistered(t *testing.T, in io.Writer, r *bufio.Reader) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		block := consoleBlock(t, in, r, "slaves", "sync-slaves")
		registered := strings.Count(block, "host-")
		if registered == 4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d slaves registered:\n%s", registered, block)
		}
		time.Sleep(300 * time.Millisecond)
	}
}

// signalAll sends sig to every process in cmds.
func signalAll(t *testing.T, cmds []*exec.Cmd, sig syscall.Signal) {
	t.Helper()
	for _, c := range cmds {
		if err := c.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
	}
}
