package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"
)

// This file implements the `go vet -vettool` protocol (the same contract
// golang.org/x/tools/go/analysis/unitchecker satisfies) on the standard
// library alone. cmd/go drives a vettool in three ways:
//
//	tool -V=full          → print a version line for the build cache
//	tool -flags           → print supported flags as JSON
//	tool <flags> foo.cfg  → analyze one package described by the cfg
//
// The cfg is JSON with the fields of cmd/go/internal/work.vetConfig;
// dependency type information comes from the compiled export data listed
// in PackageFile, read through the gc importer's lookup hook.

// vetConfig mirrors the JSON written by cmd/go for each vet action. Only
// the fields fbufvet consumes are listed; unknown fields are ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
	GoVersion                 string
}

// vetFlag is one entry of the -flags JSON handshake.
type vetFlag struct {
	Name  string
	Bool  bool
	Usage string
}

// VetMain is the entry point for cmd/fbufvet. It never returns.
func VetMain() {
	progName := "fbufvet"
	args := os.Args[1:]

	// Handshake 1: version for the build cache. cmd/go requires
	// `<name> version <ver>` (three fields; a "devel" version must end
	// in buildID=...). The tool name check is waived for vettools.
	for _, a := range args {
		if a == "-V=full" || a == "-V" {
			fmt.Printf("%s version 1.0.0\n", progName)
			os.Exit(0)
		}
	}

	fs := flag.NewFlagSet(progName, flag.ExitOnError)
	enabled := map[string]*bool{}
	for _, a := range All() {
		enabled[a.Name] = fs.Bool(a.Name, true, firstLine(a.Doc))
	}
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 on stdout")

	// Handshake 2: advertise flags so `go vet -fbuflife=false` works.
	for _, a := range args {
		if a == "-flags" {
			var out []vetFlag
			for _, an := range All() {
				out = append(out, vetFlag{Name: an.Name, Bool: true, Usage: firstLine(an.Doc)})
			}
			out = append(out, vetFlag{Name: "json", Bool: true, Usage: "emit diagnostics as JSON"})
			out = append(out, vetFlag{Name: "sarif", Bool: true, Usage: "emit diagnostics as SARIF 2.1.0 on stdout"})
			sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
			if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}

	if err := fs.Parse(args); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var run []*Analyzer
	for _, a := range All() {
		if *enabled[a.Name] {
			run = append(run, a)
		}
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		os.Exit(runUnitChecker(rest[0], run, *jsonOut, *sarifOut))
	}
	// Standalone mode: fbufvet [patterns] run from inside the module.
	os.Exit(runStandalone(rest, run, *jsonOut, *sarifOut))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// runUnitChecker analyzes the single package described by cfgPath,
// printing findings in file:line:col form. Exit 0 on clean, 2 on
// findings, 1 on internal error — the codes cmd/go expects.
func runUnitChecker(cfgPath string, analyzers []*Analyzer, jsonOut, sarifOut bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cfgPath, err)
		return 1
	}

	// cmd/go treats the vetx facts file as the action's output and
	// requires it to exist even when we have no facts to share.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("fbufvet-no-facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: facts only, no diagnostics wanted
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := NewTypesInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(compiler, build.Default.GOARCH),
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "%s: typecheck: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, err := RunAnalyzers(fset, files, pkg, info, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if sarifOut {
		if err := WriteSARIF(os.Stdout, fset, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(diags) == 0 {
			return 0
		}
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	printDiagnostics(os.Stderr, fset, diags, jsonOut, cfg.ImportPath)
	return 2
}

// runStandalone analyzes module packages from the working directory —
// the direct `fbufvet ./...` mode used outside go vet. Findings across
// all packages are combined into one report, so -sarif (and -json)
// yield a single document suitable for archiving as a CI artifact.
func runStandalone(patterns []string, analyzers []*Analyzer, jsonOut, sarifOut bool) int {
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	loader, err := NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	paths, err := resolvePatterns(loader, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exit := 0
	var all []Diagnostic
	for _, importPath := range paths {
		p, err := loader.Load(importPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		diags, err := RunAnalyzers(loader.Fset, p.Files, p.Pkg, p.Info, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		all = append(all, diags...)
		if len(diags) > 0 {
			if !sarifOut && !jsonOut {
				printDiagnostics(os.Stderr, loader.Fset, diags, false, importPath)
			}
			exit = 2
		}
	}
	if sarifOut {
		if err := WriteSARIF(os.Stdout, loader.Fset, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else if jsonOut {
		printDiagnostics(os.Stderr, loader.Fset, all, true, loader.ModulePath)
	}
	return exit
}

func resolvePatterns(loader *Loader, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	var out []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all" || pat == loader.ModulePath+"/...":
			for _, p := range all {
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		default:
			p := strings.TrimPrefix(pat, "./")
			if !strings.HasPrefix(p, loader.ModulePath) {
				p = loader.ModulePath + "/" + p
			}
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out, nil
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir, nil
		}
		parent := dir[:strings.LastIndexByte(dir, '/')+1]
		parent = strings.TrimSuffix(parent, "/")
		if parent == dir || parent == "" {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// jsonDiagnostic is the -json output shape, close enough to x/tools'
// for editor integrations.
type jsonDiagnostic struct {
	Category string `json:"category"`
	Posn     string `json:"posn"`
	Message  string `json:"message"`
}

func printDiagnostics(w io.Writer, fset *token.FileSet, diags []Diagnostic, jsonOut bool, importPath string) {
	if jsonOut {
		byCat := map[string][]jsonDiagnostic{}
		for _, d := range diags {
			byCat[d.Category] = append(byCat[d.Category], jsonDiagnostic{
				Category: d.Category,
				Posn:     fset.Position(d.Pos).String(),
				Message:  d.Message,
			})
		}
		out := map[string]map[string][]jsonDiagnostic{importPath: byCat}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		enc.Encode(out)
		return
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Category, d.Message)
	}
}
