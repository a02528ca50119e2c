package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunCheapExperiments(t *testing.T) {
	// The cheap experiments exercise the dispatcher end to end; the full
	// figure sweeps are covered by the root benchmark harness.
	for _, name := range []string{"table1", "sec44", "lemma23", "fig5"} {
		if err := run(name, 1, "", 1, false); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("sec44", 1, dir, 1, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "sec44.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if err := run("bogus", 1, "", 1, false); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run("fig99", 1, "", 1, false); err == nil {
		t.Error("fig99 accepted")
	}
	if err := run("figx", 1, "", 1, false); err == nil {
		t.Error("figx accepted")
	}
}

func TestRunBadCSVDir(t *testing.T) {
	// A file path (not a dir) must fail MkdirAll or Create.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("sec44", 1, f, 1, false); err == nil {
		t.Error("file-as-dir accepted")
	}
}

func TestProfileWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := profile(cpu, mem, func() error { return run("sec44", 1, "", 1, false) }); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: missing or empty profile (%v)", p, err)
		}
	}
	if err := profile(filepath.Join(dir, "no", "cpu"), "", func() error { return nil }); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
}
