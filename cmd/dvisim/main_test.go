package main

import (
	"strings"
	"testing"
)

// TestFlagValidation pins the CLI's usage-error surface: every bad flag
// must exit 2 with a message naming the flag and the accepted values,
// before any simulation work starts.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"unknown pipetrace format", []string{"-pipetrace-format", "xml"}, "bad -pipetrace-format \"xml\""},
		{"negative pipetrace limit", []string{"-pipetrace-limit", "-5"}, "bad -pipetrace-limit -5"},
		{"zero contexts", []string{"-contexts", "0"}, "bad -contexts 0"},
		{"negative contexts", []string{"-contexts", "-2"}, "bad -contexts -2"},
		{"unknown fetch policy", []string{"-contexts", "2", "-fetch-policy", "priority"}, "bad -fetch-policy \"priority\""},
		{"unknown benchmark", []string{"-bench", "spice"}, "unknown benchmark \"spice\""},
		{"unknown dvi level", []string{"-dvi", "max"}, "bad -dvi \"max\""},
		{"unknown scheme", []string{"-scheme", "magic"}, "bad -scheme \"magic\""},
		{"regfile too small for contexts", []string{"-contexts", "4"}, "4 contexts need at least 129 physical registers"},
		// Machine flags the simulator cannot run fail as usage errors
		// before any simulation, not as a deadlocked run.
		{"zero ports", []string{"-ports", "0"}, "cache ports 0 < 1"},
		{"negative ports", []string{"-ports", "-1"}, "cache ports -1 < 1"},
		{"zero width", []string{"-width", "0"}, "issue width 0 < 1"},
		{"negative width", []string{"-width", "-1"}, "issue width -1 < 1"},
		{"unparseable flag", []string{"-contexts", "two"}, "invalid value"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(c.args, &out, &errb); code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), c.want) {
				t.Errorf("stderr %q does not contain %q", errb.String(), c.want)
			}
		})
	}
}

// TestRunMultiContext drives a real 2-context simulation through the CLI
// path and checks the per-context breakdown: one line per context, both
// making progress, absent on a single-context run.
func TestRunMultiContext(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-bench", "li", "-maxinsts", "20000",
		"-contexts", "2", "-fetch-policy", "icount"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "contexts         2 (icount fetch)") {
		t.Errorf("missing contexts line:\n%s", s)
	}
	for _, want := range []string{"context 0", "context 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing per-context line %q:\n%s", want, s)
		}
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-bench", "li", "-maxinsts", "20000"}, &out, &errb); code != 0 {
		t.Fatalf("single-context exit code %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "context 0") {
		t.Errorf("single-context run printed a per-context breakdown:\n%s", out.String())
	}
}
