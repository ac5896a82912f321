// Command dittolint is Ditto's project-invariant analyzer suite
// (simdet, verbplan, lockverb, hotalloc, typederr) behind one binary.
// The stock correctness passes (atomic, copylocks, printf, ...) stay
// with `go vet ./...`, which the standalone mode runs first.
//
// It runs two ways:
//
//	dittolint [./...]                   standalone: type-check the module
//	                                    from source and report findings
//	                                    (also runs stock `go vet ./...`
//	                                    first unless -novet is given)
//	go vet -vettool=$(which dittolint) ./...
//	                                    vettool mode: cmd/go drives one
//	                                    invocation per package with gc
//	                                    export data (fast, exact, CI's
//	                                    gating configuration)
//
// Exit status: 0 clean, 1 findings, 2 driver failure. Findings print as
//
//	file:line:col: analyzer: message
//
// and are suppressed only by a reasoned annotation on the offending
// line: //dittolint:allow <analyzer> (reason). See docs/TESTING.md
// ("Static analysis") for the catalog of analyzers and the invariant
// each one encodes.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"ditto/internal/analysis"
	"ditto/internal/analysis/hotalloc"
	"ditto/internal/analysis/lockverb"
	"ditto/internal/analysis/simdet"
	"ditto/internal/analysis/typederr"
	"ditto/internal/analysis/verbplan"
)

// suite is every analyzer dittolint runs.
var suite = []*analysis.Analyzer{
	simdet.Analyzer,
	verbplan.Analyzer,
	lockverb.Analyzer,
	hotalloc.Analyzer,
	typederr.Analyzer,
}

func main() {
	// Vettool protocol, step 1: version stamp for cmd/go's build cache.
	// The phrasing mirrors x/tools: a "devel" version line must end in a
	// buildID= field (cmd/go rejects it otherwise), and hashing the tool
	// binary itself makes the vet cache invalidate whenever the analyzer
	// suite changes.
	progname := filepath.Base(os.Args[0])
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		fmt.Printf("%s version devel comments-go-here buildID=%x\n", progname, selfHash())
		return
	}
	// Step 2: analyzer-flag discovery. Dittolint exposes no per-analyzer
	// flags, so the set is empty.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Step 3: one package unit, described by a JSON .cfg file.
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		analysis.RunVettool(os.Args[1], suite)
		return
	}

	standalone()
}

// standalone type-checks the module from source and runs the suite over
// every package (or the packages named as directory arguments).
func standalone() {
	fs := flag.NewFlagSet("dittolint", flag.ExitOnError)
	novet := fs.Bool("novet", false, "skip running stock `go vet ./...` first")
	list := fs.Bool("list", false, "list the analyzer suite and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dittolint [-novet] [-list] [./... | pkgdir...]\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	if *list {
		for _, a := range suite {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-10s %s\n", a.Name, doc)
		}
		return
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}

	// Stock go vet first (printf, unreachable, stdlib atomic/copylocks,
	// ...): dittolint is the single entry point, and the stock passes
	// fail it exactly like the project analyzers do.
	if !*novet {
		cmd := exec.Command("go", "vet", "./...")
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "dittolint: stock `go vet ./...` failed")
			os.Exit(1)
		}
	}

	var paths []string
	args := fs.Args()
	wholeModule := len(args) == 0
	for _, a := range args {
		if a == "./..." || a == "..." {
			wholeModule = true
			continue
		}
		abs, err := filepath.Abs(a)
		if err != nil {
			fatal(err)
		}
		rel, err := filepath.Rel(mustModuleRoot(loader), abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			fatal(fmt.Errorf("package %s is outside the module", a))
		}
		if rel == "." {
			paths = append(paths, loader.ModulePath())
		} else {
			paths = append(paths, loader.ModulePath()+"/"+filepath.ToSlash(rel))
		}
	}
	if wholeModule {
		all, err := loader.ListPackages()
		if err != nil {
			fatal(err)
		}
		paths = append(paths, all...)
	}

	findings := 0
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		diags, err := analysis.Run(pkg, suite)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "dittolint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// selfHash returns a sha256 of the running binary — the vettool's
// content ID for cmd/go's vet result cache.
func selfHash() []byte {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		fatal(err)
	}
	h := sha256.Sum256(data)
	return h[:]
}

// mustModuleRoot recovers the loader's module root (the directory
// holding go.mod) for resolving directory arguments.
func mustModuleRoot(l *analysis.Loader) string {
	dir, err := filepath.Abs(".")
	if err != nil {
		fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			fatal(fmt.Errorf("no go.mod found"))
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dittolint: %v\n", err)
	os.Exit(2)
}
