// Package clitest is the referee for the command-line surface: it
// builds cmd/ultrasim, cmd/netperf, cmd/tables and examples/hotspot
// once, runs them in a scratch directory with relative output names, and
// pins the SHA-256 of every file they write (and of the standard output
// of ultrasim and tables).
// Simulation is seeded and the exporters sort their keys, so the bytes
// are stable across hosts, engines and worker counts; a changed hash is
// a changed export.
package clitest

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// binDir holds the four binaries TestMain builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "clitest-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, "clitest:", err)
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"ultracomputer/cmd/ultrasim", "ultracomputer/cmd/netperf", "ultracomputer/cmd/tables",
		"ultracomputer/examples/hotspot")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "clitest: go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// result is one finished command.
type result struct {
	dir            string
	stdout, stderr []byte
	exit           int
}

// run executes one of the built binaries inside dir and waits for it.
func run(t *testing.T, dir, bin string, args ...string) result {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	res := result{dir: dir}
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		res.exit = ee.ExitCode()
	}
	res.stdout, res.stderr = stdout.Bytes(), stderr.Bytes()
	return res
}

// mustRun is run for an invocation that has to succeed.
func mustRun(t *testing.T, dir, bin string, args ...string) result {
	t.Helper()
	res := run(t, dir, bin, args...)
	if res.exit != 0 {
		t.Fatalf("%s %v: exit %d\n%s", bin, args, res.exit, res.stderr)
	}
	return res
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// pin compares the SHA-256 of each named output of res ("stdout" is the
// command's standard output, anything else a file in its directory)
// with the committed hash.
func pin(t *testing.T, res result, want map[string]string) {
	t.Helper()
	for name, hash := range want {
		b := res.stdout
		if name != "stdout" {
			var err error
			if b, err = os.ReadFile(filepath.Join(res.dir, name)); err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
		}
		if got := sum(b); got != hash {
			t.Errorf("%s (%d bytes): sha256 %s, pinned %s", name, len(b), got, hash)
		}
	}
}

// workdir returns a fresh scratch directory holding a copy of the
// shipped queue.s, so every path on a command line is relative.
func workdir(t *testing.T) (dir string, queueSrc []byte) {
	t.Helper()
	dir = t.TempDir()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "asm", "queue.s"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "queue.s"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, src
}

// The observed queue.s run on 8 PEs: the exports every ultrasim
// invocation below must reproduce, whichever engine runs it and
// whether the machine came from flags or from a config file.
const (
	queueTrace   = "81bdbab57cf0cdad993672fd51cb108ed38b3183dee0244f0d45789e2c350e96"
	queueMetrics = "2fca55bd2b5da2f9de0a5e499dd82cc42a6d0f22154698f3c17152a21278bee3"
	queueSpans   = "b756be645e5cd3345422a5860d88cb0b58f2ef4e5b1f289cd5396b88c39b7adb"
)

var ultrasimObserve = []string{"-trace", "t.json", "-metrics", "m.jsonl",
	"-reqtrace", "1", "-spans", "s.jsonl", "-prof-out", "p.jsonl"}

func TestUltrasimPinned(t *testing.T) {
	want := map[string]string{
		"stdout":  "f09e88c2bd0d1a470c3a56923693068d62ebc79e9acf949cdf86067ce4e1e25d",
		"t.json":  queueTrace,
		"m.jsonl": queueMetrics,
		"s.jsonl": queueSpans,
		"p.jsonl": "06493a3a5a864dfc243a06dd8335be8876316d24d0199ff223dcc1c6dd3d6698",
	}
	dir, _ := workdir(t)
	args := append([]string{"-pes", "8", "-sample-every", "32"}, ultrasimObserve...)
	pin(t, mustRun(t, dir, "ultrasim", append(args, "queue.s")...), want)
	// cmd/tables renders the span dump and the profile.
	pin(t, mustRun(t, dir, "tables", "-spans", "s.jsonl"), map[string]string{
		"stdout": "7eea4dde69b18bb19d67cfe16183f6d425e3d306c1314093cca07a177d453379",
	})
	pin(t, mustRun(t, dir, "tables", "-prof", "p.jsonl"), map[string]string{
		"stdout": "c7c64f00ec792afff73f9a455d8833d30697639c5fb64f681b20dd13f918949f",
	})
}

// The same run described by a config file that says 4 PEs, with -pes 8
// on the command line: the flag beats the file, the file supplies the
// program and the sampling period.
func TestUltrasimConfigFilePinned(t *testing.T) {
	dir, src := workdir(t)
	cfg, err := json.Marshal(map[string]any{
		"k": 2, "stages": 4, "pes": 4, "sample_every": 32, "program": string(src),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c.json"), cfg, 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-config", "c.json", "-pes", "8"}, ultrasimObserve...)
	pin(t, mustRun(t, dir, "ultrasim", args...), map[string]string{
		// The profile and its summary name c.json, not queue.s, as the
		// source file; nothing else differs from the flags run.
		"stdout":  "8c851483e37b53492e58af29d0f9d08d75b8335dbfd26f96647373c122d94dfb",
		"t.json":  queueTrace,
		"m.jsonl": queueMetrics,
		"s.jsonl": queueSpans,
		"p.jsonl": "f8fdd00275d8cc673afc06449d98d22712f7e2e95134632b87552d166fd28618",
	})
}

func TestNetperfPinned(t *testing.T) {
	res := mustRun(t, t.TempDir(), "netperf", "-simports", "64", "-hot", "0.05", "-rate", "0.2",
		"-measure", "2000", "-trace", "t.json", "-metrics", "m.jsonl", "-spans", "s.jsonl")
	pin(t, res, map[string]string{
		"t.json":  "3769ae6c283c6d929f05f53f066148bb4382b72afc9d66702a33cfae7c2ab4cb",
		"m.jsonl": "b2da4b8d876e545fecd234fa2aaaf736e3088b0c50147502c6e45dcf0184fa91",
		"s.jsonl": "387e1f5e4b1babe8ea8360a0fd90a4839c0106987cc5be19b7794ea59dbe7bd2",
	})
}

func TestHotspotPinned(t *testing.T) {
	res := mustRun(t, t.TempDir(), "hotspot", "-trace", "t.json", "-metrics", "m.jsonl", "-spans", "s.jsonl")
	pin(t, res, map[string]string{
		"t.json":        "28b1623c82c9a885f251395c4058e9fd049cf4a721bdf1860ce981897475e556",
		"m.jsonl":       "ce45e44b5888b33b4fd5588baf082874e7647177f0ebece94eb45197348730da",
		"s.jsonl":       "c031b0dee414cec1a9aa35416f790b4f9ead4ebaaa71c296473cbe9ac0bffd8f",
		"s.jsonl.plain": "ff13a194268c690788ed29c2edd41784063f987d1142d53ba999aeff02bb7563",
	})
}

// The paper's Tables 1–3 at -quick sizes. Their rows come from the §4.2
// applications, which run as Go guests (pe.GoCore), so these pin the Go
// guest's cycle accounting as well as the renderers.
func TestTablesPinned(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "1", "-quick"}, "85365ae378669dd54006943c66fc107624d041d88159692c3bd9d29d1d217766"},
		{[]string{"-table", "2", "-quick"}, "6472ad288e38612d42430a8c889a1f0aa71d7a42db2c0e49fb16401af75d458f"},
		{[]string{"-table", "3", "-quick"}, "ec5e96396ae16a0c28f14566e64fe5604d063d4be597e32568bd54415257e030"},
		{[]string{"-table", "1", "-quick", "-json"}, "54cf7a387cc1da2cd3dacd77a818f1a53f922a1d1baa2d6bfb31c965811f8033"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			pin(t, mustRun(t, t.TempDir(), "tables", tc.args...), map[string]string{"stdout": tc.want})
		})
	}
}

// hotSrc makes every PE hammer one shared cell: with combining off, the
// hot spot the conformance monitor exists to catch.
const hotSrc = `
        li   r1, 100
        li   r2, 1
        li   r6, 600
loop:   faa  r3, 0(r1), r2
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`

// -flight-dir alone (no -serve) must still build the monitor and feed
// that trigger the dumps.
func TestUltrasimFlightDirAlone(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "hot.s"), []byte(hotSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	mustRun(t, dir, "ultrasim", "-pes", "64", "-stages", "6", "-combining=false", "-flight-dir", "d", "hot.s")
	dumps, err := filepath.Glob(filepath.Join(dir, "d", "flight-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) == 0 {
		t.Error("a 64-PE uncombined hot spot under -flight-dir wrote no flight-*.jsonl")
	}
}

// Machine flags are validated by the config's rule table, like the
// fields of a -config file: a field error and exit 1, not a panic.
func TestUltrasimBadFlagIsFieldError(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-pes", "64", "pes: 64 PEs but only 16 network ports (k^stages)"},
		{"-k", "1", "k: switch radix k = 1, need >= 2"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			dir, _ := workdir(t)
			res := run(t, dir, "ultrasim", tc.flag, tc.value, "queue.s")
			if res.exit != 1 {
				t.Errorf("exit %d, want 1", res.exit)
			}
			if !bytes.Contains(res.stderr, []byte(tc.want)) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, res.stderr)
			}
			if bytes.Contains(res.stderr, []byte("goroutine")) {
				t.Errorf("stderr carries a goroutine trace:\n%s", res.stderr)
			}
		})
	}
}

// hotspot -serve with request tracing on must hand the tracer to the
// telemetry server: /trace/flight answers with spans, and the server
// stays up after the run until interrupted.
func TestHotspotServesFlight(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "hotspot"), "-serve", "127.0.0.1:0", "-reqtrace", "1")
	cmd.Dir = t.TempDir()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Signal(os.Interrupt)
		_ = cmd.Wait()
	}()
	var url string
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "telemetry: "); ok {
			url = strings.TrimSuffix(rest, "/metrics") + "/trace/flight"
			break
		}
	}
	if url == "" {
		t.Fatal("hotspot -serve printed no telemetry address")
	}
	go io.Copy(io.Discard, stdout) // keep the child from blocking on a full pipe

	// The run is over in milliseconds; afterwards the server must hold.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(`"id"`)) {
				return
			}
			err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
