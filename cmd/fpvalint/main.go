// Command fpvalint is the repo's static-analysis driver: one command that
// machine-checks the conventions the test suite can only sample —
// deterministic iteration in solver packages (fpva/detorder), annotated
// allocation-free hot paths (fpva/allocfree), context plumbing
// (fpva/ctxflow), the cmd/+examples/ public-API import boundary
// (fpva/apiboundary) — plus a stdlib port of the stock nilness check.
// With -vet (default) it also runs `go vet` (whose CFG-based lostcancel
// covers context leaks), so `go run ./cmd/fpvalint ./...` is the whole
// static story.
//
// Diagnostics print as file:line:col: message [fpva/analyzer]; the exit
// status is 1 when anything is found, 2 on usage or load errors.
// Suppress a finding with a positioned comment:
//
//	//lint:ignore fpva/<analyzer> <reason>
//
// See DESIGN.md, "Static invariants", for the rule catalog.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/allocfree"
	"repro/internal/analysis/apiboundary"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/detorder"
	"repro/internal/analysis/load"
	"repro/internal/analysis/nilness"
)

// registry lists every analyzer the driver knows, in report order.
var registry = []*analysis.Analyzer{
	apiboundary.Analyzer,
	detorder.Analyzer,
	allocfree.Analyzer,
	ctxflow.Analyzer,
	nilness.Analyzer,
}

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpvalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	vet := fs.Bool("vet", true, "also run `go vet` on the same patterns")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fpvalint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range registry {
			status := ""
			if a.Disabled != "" {
				status = " (disabled: " + a.Disabled + ")"
			}
			fmt.Fprintf(stdout, "fpva/%s%s\n    %s\n", a.Name, status, a.Doc)
		}
		return 0
	}

	analyzers := registry
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(registry))
		for _, a := range registry {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimPrefix(strings.TrimSpace(name), "fpva/")
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "fpvalint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Dir = dir
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "fpvalint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "fpvalint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		failed = true
		fset := pkgs[0].Fset
		cwd, _ := os.Getwd()
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			name := pos.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
					name = rel
				}
			}
			fmt.Fprintf(stdout, "%s:%d:%d: %s [fpva/%s]\n", name, pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	}
	if failed {
		return 1
	}
	return 0
}
