package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// vetConfig mirrors the JSON configuration file cmd/go writes for each
// package when it invokes a vet tool (the x/tools unitchecker.Config). Only
// the fields this driver consumes are listed; unknown fields are ignored by
// encoding/json.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a multichecker binary. It implements the
// protocol cmd/go speaks to `go vet -vettool` binaries:
//
//	tool -V=full        print a versioned identity line (for the build cache)
//	tool -flags         print the JSON flag schema (we expose no flags)
//	tool x.cfg          check one package described by a vet config file
//
// Any other argument list prints a usage line naming the `go vet` invocation
// and exits 1.
func Main(progname string, analyzers ...*Analyzer) {
	args := os.Args[1:]

	// Version probe: cmd/go hashes this line into the action ID so cached
	// vet results are invalidated when the tool binary changes.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V=") {
		printVersion(progname)
		return
	}
	// Flag schema probe: cmd/go asks for it when the user passes analyzer
	// flags on the `go vet` command line. We accept none.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnitchecker(progname, args[0], analyzers)
		return
	}
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which %s) ./...\n", progname)
	os.Exit(1)
}

// printVersion emits the `name version ...` line cmd/go expects, keyed by a
// content hash of the executable so rebuilding the tool invalidates cached
// vet results.
func printVersion(progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}

// runUnitchecker checks the single package described by cfgPath and exits
// with code 0 (clean), 1 (driver error) or 2 (diagnostics found), matching
// vet conventions.
func runUnitchecker(progname, cfgPath string, analyzers []*Analyzer) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "%s: parsing %s: %v\n", progname, cfgPath, err)
		os.Exit(1)
	}

	// cmd/go requires the facts (vetx) output file to exist after a
	// successful run, even though this suite defines no facts.
	writeFacts := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte("simlint: no facts\n"), 0o666); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
				os.Exit(1)
			}
		}
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeFacts()
			return
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}

	// Imports resolve through the export-data files cmd/go already built
	// for the package's dependency closure.
	compilerImporter := importer.ForCompiler(fset, compilerFor(cfg.Compiler), func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := mappedImporter{m: cfg.ImportMap, under: compilerImporter}

	pkg, info, err := typecheck(fset, files, cfg.ImportPath, imp, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeFacts()
			return
		}
		fmt.Fprintf(os.Stderr, "%s: typechecking %s: %v\n", progname, cfg.ImportPath, err)
		os.Exit(1)
	}

	diags, err := run(fset, files, pkg, info, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	writeFacts()
	if cfg.VetxOnly || len(diags) == 0 {
		return
	}
	printDiagnostics(os.Stderr, fset, diags)
	os.Exit(2)
}

// compilerFor maps a vet config compiler name onto one go/importer accepts.
func compilerFor(name string) string {
	if name == "" {
		return "gc"
	}
	return name
}

// mappedImporter applies the vet config's ImportMap (source import path ->
// canonical package path) before delegating to an export-data importer.
type mappedImporter struct {
	m     map[string]string
	under types.Importer
}

func (m mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.m[path]; ok {
		path = mapped
	}
	return m.under.Import(path)
}

// parseFiles parses the package's Go files (resolving relative names against
// dir) with comments retained, since simlint annotations live in comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		if dir != "" && !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typecheck runs the go/types checker over one package's files.
func typecheck(fset *token.FileSet, files []*ast.File, path string, imp types.Importer, goVersion string) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := newInfo()
	pkg, err := conf.Check(path, fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// printDiagnostics renders diagnostics in the plain `file:line:col: message`
// form.
func printDiagnostics(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
}
