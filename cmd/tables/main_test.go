package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/expstore"
	"repro/internal/faultinject"
)

// TestMain doubles as the tables binary: when re-executed with
// TABLES_HELPER=1 the test process runs main() with whatever flags the test
// passed, so the drills below exercise the real command — flag parsing,
// store writes, crash injection and process death included.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTables re-executes the test binary as the tables command.
func runTables(t *testing.T, env []string, args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLES_HELPER=1")
	cmd.Env = append(cmd.Env, env...)
	var out, serr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &serr
	err = cmd.Run()
	return out.Bytes(), serr.Bytes(), err
}

func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return 0
}

// killAndRerun runs tables with args uninterrupted, then into a fresh
// -store with a crash armed at the n'th hit of point, then again on the
// same store; the rerun must print the uninterrupted bytes. It returns how
// many results the crashed run left in the store.
func killAndRerun(t *testing.T, point faultinject.CrashPoint, n int, args ...string) int {
	t.Helper()
	baseline, stderr, err := runTables(t, nil, args...)
	if err != nil {
		t.Fatalf("uninterrupted tables %v: %v; stderr:\n%s", args, err, stderr)
	}

	dir := t.TempDir()
	storeArgs := append(args[:len(args):len(args)], "-store", dir)
	crash := []string{fmt.Sprintf("%s=%s:%d", faultinject.CrashEnv, point, n)}
	_, stderr, err = runTables(t, crash, storeArgs...)
	if code := exitCode(err); code != faultinject.CrashExitCode {
		t.Fatalf("%s:%d: crash-armed tables exit code = %d, want %d; stderr:\n%s", point, n, code, faultinject.CrashExitCode, stderr)
	}
	st, err := expstore.Open(dir, expstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := st.Len()

	rerun, stderr, err := runTables(t, nil, storeArgs...)
	if err != nil {
		t.Fatalf("%s:%d: rerun: %v; stderr:\n%s", point, n, err, stderr)
	}
	if !bytes.Equal(rerun, baseline) {
		t.Fatalf("%s:%d: rerun differs from uninterrupted run:\n%s\nvs\n%s", point, n, rerun, baseline)
	}
	return stored
}

// TestKillAndResume kills Table 4.1, Table 3.3 and the claims (every
// table's runs in one store) inside a result-store write, before the
// rename, and reruns each on the same store.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	killAndRerun(t, faultinject.CrashPreRename, 3, "-t", "4.1", "-refs", "60000", "-reps", "2", "-par", "2")
	killAndRerun(t, faultinject.CrashPreRename, 3, "-t", "3.3", "-refs", "60000", "-par", "2")
	killAndRerun(t, faultinject.CrashPreRename, 10, "-t", "claims", "-refs", "60000", "-reps", "2", "-par", "2")
}

// TestKillAndResumeSampled kills the sampled Table 4.1, four (workload,
// rep) groups run one at a time, inside its second group's store write:
// the store holds exactly the groups whose write got past its rename, and
// the rerun prints the uninterrupted table.
func TestKillAndResumeSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	for point, want := range map[faultinject.CrashPoint]int{faultinject.CrashPreRename: 1, faultinject.CrashPreDirSync: 2} {
		if n := killAndRerun(t, point, 2, "-t", "4.1", "-sample", "-refs", "1000000", "-reps", "2", "-par", "1"); n != want {
			t.Errorf("%s: crashed sampled Table 4.1 stored %d groups, want %d", point, n, want)
		}
	}
}

// TestFlagValidation covers the flag combinations that must be rejected
// before anything runs.
func TestFlagValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cases := [][]string{
		{"-t", "4.1", "-store", dir, "-remote", "http://127.0.0.1:1"},
		{"-sample"},
		{"-t", "4.1", "-journal", dir},
		{"-t", "4.1", "-resume", dir},
		{"-t", "claims", "-remote", "http://127.0.0.1:1"}, // the claims are local only
		{"-t", "nosuch"},
	}
	for _, args := range cases {
		_, _, err := runTables(t, nil, args...)
		if code := exitCode(err); code != 2 {
			t.Errorf("tables %v exit code = %d, want 2", args, code)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected -store created its directory (stat: %v)", err)
	}
}
