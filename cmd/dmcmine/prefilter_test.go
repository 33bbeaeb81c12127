package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

const mainHelperEnv = "DMCMINE_MAIN_HELPER"

// TestHelperMain is not a test: TestRunPrefilter re-execs this binary
// to run main with the arguments after "--".
func TestHelperMain(t *testing.T) {
	if os.Getenv(mainHelperEnv) == "" {
		t.Skip("helper process for TestRunPrefilter")
	}
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"dmcmine"}, os.Args[i+1:]...)
			break
		}
	}
	main()
}

// The LSH prefilter is gone; -prefilter is an unknown flag, refused
// before any mining starts.
func TestRunPrefilter(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperMain$", "--",
		"-in", fig2Path(t), "-mode", "sim", "-prefilter")
	cmd.Env = append(os.Environ(), mainHelperEnv+"=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -prefilter") {
		t.Fatalf("dmcmine -prefilter: err %v, want exit 2 for an unknown flag\n%s", err, out)
	}
}
