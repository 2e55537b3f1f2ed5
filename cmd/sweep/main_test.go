package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"repro/internal/expstore"
	"repro/internal/faultinject"
)

// TestMain doubles as the sweep binary: when re-executed with SWEEP_HELPER=1
// the test process runs main() with whatever flags the test passed, so the
// kill-and-rerun drills below exercise the real command — flag parsing,
// store writes, crash injection and process death included.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep re-executes the test binary as the sweep command.
func runSweep(t *testing.T, env []string, args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_HELPER=1")
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

// crashAt is the environment that arms a crash at the n'th hit of point.
func crashAt(point faultinject.CrashPoint, n int) []string {
	return []string{fmt.Sprintf("%s=%s:%d", faultinject.CrashEnv, point, n)}
}

// TestKillAndResume is the crash drill end to end: a sweep subprocess is
// killed at an injected crash point inside a result-store write, then rerun
// with the same -store; the rerun's CSV must be byte-identical to an
// uninterrupted run of the same spec.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	args := []string{"-w", "slc", "-sizes", "5,6", "-refs", "80000", "-seed", "7", "-reps", "2", "-par", "2", "-csv"}

	baseline, _, err := runSweep(t, nil, args...)
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}
	if len(baseline) == 0 {
		t.Fatal("uninterrupted sweep produced no CSV")
	}

	// Crash inside the third store write, before its rename and before
	// its directory sync: the process dies mid-sweep with the store
	// holding a strict partial of the 12 runs.
	for _, point := range []faultinject.CrashPoint{faultinject.CrashPreRename, faultinject.CrashPreDirSync} {
		dir := t.TempDir()
		storeArgs := append(args[:len(args):len(args)], "-store", dir)
		_, stderr, err := runSweep(t, crashAt(point, 3), storeArgs...)
		if code := exitCode(err); code != faultinject.CrashExitCode {
			t.Fatalf("%s: crash-armed sweep exit code = %d, want %d; stderr:\n%s", point, code, faultinject.CrashExitCode, stderr)
		}
		st, err := expstore.Open(dir, expstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := st.Len(); n < 1 || n > 11 {
			t.Fatalf("%s: crashed sweep stored %d runs, want a strict partial of 12", point, n)
		}

		// Rerun: the stored runs are reused, the rest recomputed, and the
		// CSV matches the uninterrupted run byte for byte.
		rerun, stderr, err := runSweep(t, nil, storeArgs...)
		if err != nil {
			t.Fatalf("%s: rerun: %v; stderr:\n%s", point, err, stderr)
		}
		if !bytes.Equal(rerun, baseline) {
			t.Fatalf("%s: rerun CSV differs from uninterrupted run:\n%s\nvs\n%s", point, rerun, baseline)
		}
	}
}

// TestKillAndResumeSampled is the crash drill for a stored sampled sweep of
// four (workload, rep) groups, run one at a time: killed inside the second
// group's store write, the store holds exactly the groups whose write got
// past its rename, and the rerun prints the uninterrupted CSV.
func TestKillAndResumeSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	args := []string{"-sample", "-refs", "1000000", "-sizes", "5", "-reps", "2", "-par", "1"}
	baseline, stderr, err := runSweep(t, nil, args...)
	if err != nil {
		t.Fatalf("uninterrupted sampled sweep: %v; stderr:\n%s", err, stderr)
	}

	for point, want := range map[faultinject.CrashPoint]int{faultinject.CrashPreRename: 1, faultinject.CrashPreDirSync: 2} {
		dir := t.TempDir()
		storeArgs := append(args[:len(args):len(args)], "-store", dir)
		_, stderr, err = runSweep(t, crashAt(point, 2), storeArgs...)
		if code := exitCode(err); code != faultinject.CrashExitCode {
			t.Fatalf("%s: crash-armed sampled sweep exit code = %d, want %d; stderr:\n%s", point, code, faultinject.CrashExitCode, stderr)
		}
		st, err := expstore.Open(dir, expstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := st.Len(); n != want {
			t.Fatalf("%s: crashed sampled sweep stored %d groups, want %d", point, n, want)
		}

		rerun, stderr, err := runSweep(t, nil, storeArgs...)
		if err != nil {
			t.Fatalf("%s: rerun: %v; stderr:\n%s", point, err, stderr)
		}
		if !bytes.Equal(rerun, baseline) {
			t.Fatalf("%s: rerun CSV differs from uninterrupted run:\n%s\nvs\n%s", point, rerun, baseline)
		}
	}
}

// TestResumeSpecMismatch: a sweep with another seed shares the store of an
// earlier sweep but is never served its runs; it prints exactly what a
// fresh sweep of its own spec prints.
func TestResumeSpecMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drill")
	}
	dir := t.TempDir()
	args := []string{"-w", "slc", "-sizes", "5", "-refs", "50000", "-csv"}
	if _, stderr, err := runSweep(t, nil, append(args, "-seed", "7", "-store", dir)...); err != nil {
		t.Fatalf("stored sweep: %v; stderr:\n%s", err, stderr)
	}

	other := append(args[:len(args):len(args)], "-seed", "8")
	want, stderr, err := runSweep(t, nil, other...)
	if err != nil {
		t.Fatalf("fresh seed-8 sweep: %v; stderr:\n%s", err, stderr)
	}
	got, stderr, err := runSweep(t, nil, append(other, "-store", dir)...)
	if err != nil {
		t.Fatalf("seed-8 sweep over the seed-7 store: %v; stderr:\n%s", err, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed-8 sweep over the seed-7 store differs from a fresh one:\n%s\nvs\n%s", got, want)
	}
}

// TestFlagValidation covers the flag combinations that must be rejected
// before any simulation starts.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-store", dir, "-remote", "http://127.0.0.1:1"},
		{"-store", dir, "-validate-sample"},
		{"-journal", dir},
		{"-resume", dir},
		{"-sizes", "5,zero"},
		{"-sizes", "0"},
	}
	for _, args := range cases {
		_, _, err := runSweep(t, nil, args...)
		if code := exitCode(err); code != 2 {
			t.Errorf("sweep %v exit code = %d, want 2", args, code)
		}
	}
	// A malformed SPUR_CRASH value must be rejected, not ignored.
	_, stderr, err := runSweep(t, []string{faultinject.CrashEnv + "=bogus"}, "-csv")
	if code := exitCode(err); code != 2 {
		t.Errorf("sweep with bad %s exit code = %d, want 2; stderr:\n%s", faultinject.CrashEnv, code, stderr)
	}
}
