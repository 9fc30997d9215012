package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestVetTool builds simlint and drives it the way CI does, through
// `go vet -vettool`, over a fixture module with one gated package that reads
// the wall clock and one clean package. Run any other way, the tool prints
// its usage line and exits 1.
func TestVetTool(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "simlint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building simlint: %v\n%s", err, out)
	}
	mod := filepath.Join(dir, "fixture")
	for name, src := range map[string]string{
		"go.mod":                "module fixture\n\ngo 1.22\n",
		"internal/core/core.go": "package core\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n",
		"ok/ok.go":              "package ok\n\nfunc One() int { return 1 }\n",
	} {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(name string, args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Dir = mod
		cmd.Env = append(os.Environ(), "GOWORK=off")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return string(out), exit.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return string(out), 0
	}

	out, code := run("go", "vet", "-vettool="+tool, "./...")
	findings := regexp.MustCompile(`(?m)^\S+\.go:\d+:\d+: .*$`).FindAllString(out, -1)
	if code != 1 || len(findings) != 1 ||
		!strings.HasPrefix(findings[0], "internal/core/core.go:5:29: call to time.Now reads the wall clock") {
		t.Errorf("go vet ./... exited %d with %d findings, want 1 with one determinism finding at internal/core/core.go:5:29:\n%s",
			code, len(findings), out)
	}
	if out, code := run("go", "vet", "-vettool="+tool, "./ok"); code != 0 || out != "" {
		t.Errorf("go vet ./ok exited %d, want 0 and no output:\n%s", code, out)
	}
	if out, code := run(tool, "./..."); code != 1 || !strings.HasPrefix(out, "usage: go vet -vettool=") {
		t.Errorf("simlint ./... exited %d, want 1 and the usage line:\n%s", code, out)
	}
}
