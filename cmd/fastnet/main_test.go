package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the child process for the re-exec tests below: when
// FASTNET_ARGV is set, the binary behaves as `fastnet <argv>` — including
// main's real exit-status handling — instead of running the test suite.
func TestMain(m *testing.M) {
	if argv := os.Getenv("FASTNET_ARGV"); argv != "" {
		os.Args = append([]string{"fastnet"}, strings.Split(argv, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reexec runs this test binary as the fastnet CLI and returns its combined
// output and exit code.
func reexec(t *testing.T, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "FASTNET_ARGV="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec failed to run: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestSoakViolationExitCodeAndRepro: an invariant violation must turn into a
// non-zero process exit status and a one-line repro command that reproduces
// the identical violation when replayed.
func TestSoakViolationExitCodeAndRepro(t *testing.T) {
	// -max-rounds 1 on a churned ring cannot converge: deterministic I1
	// violation on the discrete-event runtime.
	out, code := reexec(t, "soak", "-topo", "ring", "-n", "16", "-seed", "1",
		"-epochs", "2", "-flaps", "3", "-partition-every", "0", "-crashes", "0",
		"-calls", "0", "-leader-crash", "0", "-no-election", "-max-rounds", "1")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "invariant I1 violated") {
		t.Fatalf("output misses the violation line:\n%s", out)
	}
	var repro string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "repro: fastnet "); ok {
			repro = rest
			break
		}
	}
	if repro == "" {
		t.Fatalf("output misses the one-line repro:\n%s", out)
	}
	// Replaying the repro command reproduces the violation byte for byte.
	out2, code2 := reexec(t, strings.Fields(repro)...)
	if code2 != 1 {
		t.Fatalf("repro exit code = %d, want 1\n%s", code2, out2)
	}
	want := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "violation:") {
			want = line
			break
		}
	}
	if want == "" || !strings.Contains(out2, want) {
		t.Fatalf("repro run did not reproduce %q:\n%s", want, out2)
	}
}

// TestSoakLossyCLIPasses: the lossy-link flags drive a clean run to exit 0
// with the reliable ledger reported on the result line.
func TestSoakLossyCLIPasses(t *testing.T) {
	out, code := reexec(t, "soak", "-topo", "ring", "-n", "12", "-seed", "3",
		"-epochs", "2", "-flaps", "1", "-partition-every", "0", "-crashes", "0",
		"-loss", "0.2", "-dup", "0.1", "-corrupt", "0.05", "-jitter", "0.1", "-reliable", "4")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "reliable(sent=8") || !strings.Contains(out, "faults(drop=") {
		t.Fatalf("result line misses lossy blocks:\n%s", out)
	}
}

// TestSoakGrayCLIRoundTrip: the gray-failure flags must survive the
// violation → repro → replay loop — a failing soak armed with -slow/-stall
// renders them into the one-line repro, and replaying that line reproduces
// the identical violation.
func TestSoakGrayCLIRoundTrip(t *testing.T) {
	// -max-rounds 1 on a churned ring cannot converge (the same
	// deterministic I1 violation the plain round-trip test uses), with the
	// gray dimensions armed on top.
	out, code := reexec(t, "soak", "-topo", "ring", "-n", "16", "-seed", "1",
		"-epochs", "2", "-flaps", "3", "-partition-every", "0", "-crashes", "0",
		"-calls", "0", "-leader-crash", "0", "-no-election", "-max-rounds", "1",
		"-reliable", "2", "-slow", "0.2", "-slow-factor", "3", "-slow-max", "6",
		"-stall", "1", "-stall-ticks", "5")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	var repro string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "repro: fastnet "); ok {
			repro = rest
			break
		}
	}
	if repro == "" {
		t.Fatalf("output misses the one-line repro:\n%s", out)
	}
	for _, want := range []string{"-slow 0.2", "-slow-factor 3", "-slow-max 6", "-stall 1", "-stall-ticks 5"} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro %q dropped the gray flag %q", repro, want)
		}
	}
	out2, code2 := reexec(t, strings.Fields(repro)...)
	if code2 != 1 {
		t.Fatalf("repro exit code = %d, want 1\n%s", code2, out2)
	}
	want := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "violation:") {
			want = line
			break
		}
	}
	if want == "" || !strings.Contains(out2, want) {
		t.Fatalf("repro run did not reproduce %q:\n%s", want, out2)
	}
}

// TestSoakGrayVerboseCLI: a clean gray soak exits 0, reports the gray block
// on the result line, and -v prints the worst detector snapshot next to the
// scheduler stats.
func TestSoakGrayVerboseCLI(t *testing.T) {
	out, code := reexec(t, "soak", "-topo", "gnp", "-n", "16", "-seed", "2",
		"-epochs", "2", "-flaps", "1", "-partition-every", "0", "-crashes", "1",
		"-calls", "1", "-reliable", "4", "-slow", "0.2", "-stall", "1", "-v")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "gray(elections=") {
		t.Fatalf("result line misses the gray block:\n%s", out)
	}
	if !strings.Contains(out, "detector: leader=") {
		t.Fatalf("-v output misses the detector snapshot:\n%s", out)
	}
}

// TestProfileWrittenOnFailure: -cpuprofile/-memprofile files are complete
// even when the command fails — the early error returns of exp, a single
// soak, and a soak campaign all stop the profiles on the way out.
func TestProfileWrittenOnFailure(t *testing.T) {
	for name, args := range map[string][]string{
		"exp":         {"exp", "zzz"},
		"soak":        {"soak", "-n", "16", "-epochs", "0"},
		"soak-runner": {"soak", "-runtime", "gosim", "-rate", "1", "-n", "8", "-epochs", "1"},
		"campaign":    {"soak", "-n", "16", "-epochs", "0", "-seeds", "2"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
			out, code := reexec(t, append([]string{args[0], "-cpuprofile", cpu, "-memprofile", mem}, args[1:]...)...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1\n%s", code, out)
			}
			for _, p := range []string{cpu, mem} {
				if st, err := os.Stat(p); err != nil {
					t.Errorf("profile missing after a failed run: %v", err)
				} else if st.Size() == 0 {
					t.Errorf("%s is empty after a failed run", filepath.Base(p))
				}
			}
		})
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"exp"},
		{"exp", "E99"},
		{"sim", "-topo", "nosuch"},
		{"sim", "-proto", "nosuch"},
		{"soak", "-topo", "nosuch"},
		{"soak", "-mode", "nosuch"},
		{"soak", "-runtime", "nosuch", "-n", "8", "-epochs", "1"},
		{"soak", "-epochs", "0"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunExpSmall(t *testing.T) {
	if err := run([]string{"exp", "E10"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"exp", "-csv", "E10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimScenarios(t *testing.T) {
	scenarios := [][]string{
		{"sim", "-topo", "ring", "-n", "16", "-proto", "election"},
		{"sim", "-topo", "ring", "-n", "16", "-proto", "election-hs"},
		{"sim", "-topo", "complete", "-n", "8", "-proto", "election-naive"},
		{"sim", "-topo", "path", "-n", "12", "-proto", "broadcast"},
		{"sim", "-topo", "tree", "-n", "20", "-proto", "flood"},
		{"sim", "-topo", "cbt", "-n", "15", "-proto", "layers"},
		{"sim", "-topo", "star", "-n", "10", "-proto", "dfs"},
		{"sim", "-topo", "grid", "-n", "16", "-proto", "broadcast"},
		{"sim", "-topo", "arpanet", "-proto", "broadcast"},
		{"sim", "-proto", "gsf", "-n", "30", "-c", "1", "-p", "2"},
		{"sim", "-topo", "gnp", "-n", "24", "-proto", "election", "-random-delays", "-c", "3", "-p", "4"},
	}
	for _, args := range scenarios {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestRunSoakScenarios(t *testing.T) {
	scenarios := [][]string{
		{"soak", "-topo", "gnp", "-n", "16", "-seed", "2", "-epochs", "3", "-flaps", "1", "-crashes", "1", "-calls", "1"},
		{"soak", "-topo", "ring", "-n", "12", "-seed", "1", "-epochs", "2", "-flaps", "1", "-partition-every", "0", "-crashes", "0", "-calls", "1", "-mode", "flooding", "-no-election"},
		{"soak", "-runtime", "gosim", "-topo", "gnp", "-n", "12", "-seed", "3", "-epochs", "2", "-flaps", "1", "-partition-every", "0", "-crashes", "1", "-calls", "1", "-v"},
	}
	for _, args := range scenarios {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestBuildTopo(t *testing.T) {
	for _, name := range []string{"ring", "path", "star", "grid", "complete", "tree", "cbt", "gnp", "arpanet"} {
		g, err := buildTopo(name, 20, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
	if _, err := buildTopo("nosuch", 10, 0, 1); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestRunSimPIF(t *testing.T) {
	for _, args := range [][]string{
		{"sim", "-topo", "tree", "-n", "40", "-proto", "pif"},
		{"sim", "-topo", "tree", "-n", "40", "-proto", "pif-direct"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}
