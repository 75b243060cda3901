package main

import "testing"

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-exp", "F1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllWithCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	if err := run([]string{"-check"}); err != nil {
		t.Fatal(err)
	}
}
