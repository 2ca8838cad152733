package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSuiteCleanOnRepo is the acceptance smoke test: the full analyzer
// suite must exit 0 on the repo's own tree. go vet is skipped here (the
// Makefile runs it); everything else runs exactly as `make lint` does.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	var out bytes.Buffer
	code := run("../..", []string{"-vet=false", "./..."}, &out, &out)
	if code != 0 {
		t.Fatalf("fpvalint is not clean on the repo tree (exit %d):\n%s", code, out.String())
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	var out bytes.Buffer
	if code := run("../..", []string{"-list"}, &out, &out); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"fpva/detorder", "fpva/allocfree", "fpva/ctxflow", "fpva/apiboundary", "fpva/nilness"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %s:\n%s", want, out.String())
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out bytes.Buffer
	if code := run("../..", []string{"-only", "nosuch"}, &out, &out); code != 2 {
		t.Fatalf("-only nosuch exited %d, want 2", code)
	}
}
