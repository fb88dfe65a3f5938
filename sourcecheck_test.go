package atlarge

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported declarations that production code
// does not reach but that stay, each with its reason. A key is
// "<import path>.<Name>" for a function, type or value and
// "<import path>.<Type>.<Method>" for a method.
// An entry is a root of the reachability walk, so what it calls stays too.
// An entry that no longer exists, or that production code now reaches by
// itself, fails the check: delete it.
var testOnlyAllowlist = map[string]string{
	"atlarge/internal/sched.Simulator.RunSource": "the streamed sched cell is its pending caller (ROADMAP: sched cells stream their jobs); it keeps feedBatch",
	"atlarge/internal/trace.WriteJobs":           "reference encoder of FuzzReadJobs' and TestJobsRoundTripProperty's round trip and fixture writer of the scenario import tests; it keeps formatF",
	"atlarge/internal/api.statusWriter.Unwrap":   "http.ResponseController unwraps the response writer through this method without naming it",
	"atlarge/internal/api.Server.ServeHTTP":      "net/http calls the server through http.Handler",
	"atlarge.RunExperiment":                      "README's library example runs one artifact with it",
	"atlarge.Runner.RunAll":                      "README's library example runs the catalog with it",
	"atlarge.RunAll":                             "the package doc offers it to library users as the one-call catalog run",

	"atlarge.Challenge":                   publicAPI,
	"atlarge.Challenges":                  publicAPI,
	"atlarge.ClassifyProblem":             publicAPI,
	"atlarge.CoEvolving":                  publicAPI,
	"atlarge.Deduction":                   publicAPI,
	"atlarge.Design":                      publicAPI,
	"atlarge.DesignAbduction":             publicAPI,
	"atlarge.DesignReview":                publicAPI,
	"atlarge.Element":                     publicAPI,
	"atlarge.Explorer":                    publicAPI,
	"atlarge.Figure4StudentDesign":        publicAPI,
	"atlarge.FrameworkOverview":           publicAPI,
	"atlarge.IllStructured":               publicAPI,
	"atlarge.Induction":                   publicAPI,
	"atlarge.Maturity":                    publicAPI,
	"atlarge.MaturityBelievable":          publicAPI,
	"atlarge.MaturityCompetent":           publicAPI,
	"atlarge.MaturityStudentLike":         publicAPI,
	"atlarge.NormalAbduction":             publicAPI,
	"atlarge.Overview":                    publicAPI,
	"atlarge.Problem":                     publicAPI,
	"atlarge.ProblemArchetype":            publicAPI,
	"atlarge.ProblemArchetypes":           publicAPI,
	"atlarge.ProblemKind":                 publicAPI,
	"atlarge.ProblemTraits":               publicAPI,
	"atlarge.StageBootstrapCreative":      publicAPI,
	"atlarge.StageConceptualAnalysis":     publicAPI,
	"atlarge.StageImplementation":         publicAPI,
	"atlarge.StageReporting":              publicAPI,
	"atlarge.StageUnderstandAlternatives": publicAPI,
	"atlarge.Trace":                       publicAPI,
	"atlarge.Unreasoning":                 publicAPI,
	"atlarge.WellStructured":              publicAPI,
	"atlarge.Wicked":                      publicAPI,
}

// publicAPI is the reason for keeping a framework name that atlarge.go
// re-exports: the package is the library's public API, and its users, not
// this module, are the callers.
const publicAPI = "atlarge.go re-exports it as the library's public API"

// TestNoTestOnlyExports fails on every exported top-level declaration of a
// non-test file that no production code reaches (bench/ and cmd/ count as
// production): code that only tests call is either deleted or listed above
// with a reason.
func TestNoTestOnlyExports(t *testing.T) {
	findings, stale, err := checkTestOnlyExports(".", testOnlyAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s is named only by tests: delete it, give it a production caller, or allowlist it with a reason", f.pos, f.key)
	}
	for _, s := range stale {
		t.Errorf("stale allowlist entry: %s", s)
	}

	t.Run("planted", func(t *testing.T) {
		dir := t.TempDir()
		writeModule(t, dir, map[string]string{
			"go.mod": "module m\n\ngo 1.24\n",
			"cmd/m/main.go": `package main

import (
	"errors"

	"m/lib"
)

func main() {
	err := lib.Used()
	println(err.Error(), errors.Unwrap(err))
}
`,
			"lib/lib.go": `package lib

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped" }
func (w wrapped) Unwrap() error { return w.err }

func Used() error { return wrapped{} }

func Planted() int { return 1 }
`,
			"lib/lib_test.go": `package lib

import "testing"

func TestPlanted(t *testing.T) { _ = Planted() }
`,
		})
		allow := map[string]string{"m/lib.wrapped.Unwrap": "errors.Unwrap calls it"}
		findings, stale, err := checkTestOnlyExports(dir, allow)
		if err != nil {
			t.Fatal(err)
		}
		if len(stale) != 0 {
			t.Errorf("stale = %v, want none", stale)
		}
		if len(findings) != 1 || findings[0].key != "m/lib.Planted" || !strings.HasSuffix(findings[0].pos, filepath.Join("lib", "lib.go")+":10:1") {
			t.Errorf("findings = %v, want exactly m/lib.Planted at lib/lib.go:10:1", findings)
		}
	})

	t.Run("stale", func(t *testing.T) {
		dir := t.TempDir()
		writeModule(t, dir, map[string]string{
			"go.mod":  "module m\n\ngo 1.24\n",
			"main.go": "package main\n\nfunc main() { Called() }\n\nfunc Called() {}\n",
		})
		allow := map[string]string{
			"m.Gone":   "deleted since",
			"m.Called": "main calls it now",
		}
		_, stale, err := checkTestOnlyExports(dir, allow)
		if err != nil {
			t.Fatal(err)
		}
		if len(stale) != 2 || !strings.HasPrefix(stale[0], "m.Called:") || !strings.HasPrefix(stale[1], "m.Gone:") {
			t.Errorf("stale = %v, want m.Called and m.Gone", stale)
		}
	})
}

// goStatementAllowlist names the packages of the module whose non-test
// files may start goroutines, each with its reason. Everywhere else,
// independent work is a task of an exec plan, so the executor bounds how
// much of it runs at once, recovers its panics and skips it on
// cancellation.
var goStatementAllowlist = map[string]string{
	"atlarge/internal/exec": "the pool: its workers and the goroutine that closes the event stream",
	"atlarge/internal/dist": "the dispatcher's client streams and the worker's heartbeats",
	"atlarge/internal/api":  "one runner goroutine per job",
}

// TestNoGoStatements fails on every go statement of a non-test file of the
// module outside the allowlisted packages.
func TestNoGoStatements(t *testing.T) {
	findings, stale, err := checkGoStatements(".", goStatementAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: go statement: run the work as exec plan tasks, or allowlist the package with a reason", f)
	}
	for _, pkg := range stale {
		t.Errorf("stale allowlist entry: %s starts no goroutine", pkg)
	}

	t.Run("planted", func(t *testing.T) {
		dir := t.TempDir()
		writeModule(t, dir, map[string]string{
			"go.mod":          "module m\n\ngo 1.24\n",
			"pool/pool.go":    "package pool\n\nfunc Run(f func()) { go f() }\n",
			"lib/lib.go":      "package lib\n\nfunc Fan(f func()) {\n\tgo f()\n}\n",
			"lib/lib_test.go": "package lib\n\nfunc spawn(f func()) { go f() }\n",
			"idle/idle.go":    "package idle\n\nfunc Noop() {}\n",
		})
		allow := map[string]string{"m/pool": "the pool", "m/idle": "no longer"}
		findings, stale, err := checkGoStatements(dir, allow)
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 || !strings.HasSuffix(findings[0], filepath.Join("lib", "lib.go")+":4:2") {
			t.Errorf("findings = %v, want exactly lib/lib.go:4:2", findings)
		}
		if len(stale) != 1 || stale[0] != "m/idle" {
			t.Errorf("stale = %v, want m/idle", stale)
		}
	})
}

// checkGoStatements returns the position of every go statement in a
// non-test file of the module at root whose package allow does not list,
// and the allowlisted packages that start no goroutine.
func checkGoStatements(root string, allow map[string]string) (findings, stale []string, err error) {
	fset, files, err := parseSources(root)
	if err != nil {
		return nil, nil, err
	}
	used := map[string]bool{}
	for _, sf := range files {
		if !sf.mainModule {
			continue
		}
		ast.Inspect(sf.ast, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if _, ok := allow[sf.pkg]; ok {
					used[sf.pkg] = true
				} else {
					findings = append(findings, fset.Position(g.Pos()).String())
				}
			}
			return true
		})
	}
	for pkg := range allow {
		if !used[pkg] {
			stale = append(stale, pkg)
		}
	}
	sort.Strings(stale)
	return findings, stale, nil
}

func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

type testOnlyFinding struct {
	key string // as in testOnlyAllowlist
	pos string // file:line:column of the declaration
}

// srcDecl is one top-level declaration of a non-test file.
type srcDecl struct {
	key        string
	pkg        string // import path
	recv       string // receiver type name of a method, else ""
	name       string
	exported   bool
	mainModule bool // declared in the module at the scan root, not a nested one
	pos        token.Position
	node       ast.Node          // the FuncDecl or the GenDecl spec
	imports    map[string]string // file's import name -> import path
	reached    bool
}

// srcFile is one parsed non-test .go file.
type srcFile struct {
	ast        *ast.File
	pkg        string // import path
	mainModule bool   // in the module at the scan root, not a nested one
}

// parseSources parses every non-test .go file under root: every module
// found there, testdata and dot-directories skipped.
func parseSources(root string) (*token.FileSet, []srcFile, error) {
	modules := map[string]string{} // module dir -> module path
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case name == "go.mod":
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(data), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					modules[filepath.Dir(path)] = strings.TrimSpace(mod)
				}
			}
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	files := make([]srcFile, 0, len(paths))
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		pkg, mdir := packagePath(modules, root, filepath.Dir(path))
		files = append(files, srcFile{ast: f, pkg: pkg, mainModule: mdir == root})
	}
	return fset, files, nil
}

// checkTestOnlyExports walks, over the files parseSources finds under root,
// what production code reaches by name from each main and init function, each
// blank-named value and each allowlisted key. A plain identifier reaches the
// top-level declaration of that name in its own package, pkg.Name reaches
// Name in the imported package, and a method is reached when its type is and
// some reached code selects its name; matching by bare name lets a
// test-only method through when reached code selects a namesake. It returns
// the exported declarations of the root module left unreached and the stale
// allowlist entries: keys that name no declaration or that the walk reaches
// without the allowlist.
func checkTestOnlyExports(root string, allow map[string]string) ([]testOnlyFinding, []string, error) {
	fset, files, err := parseSources(root)
	if err != nil {
		return nil, nil, err
	}
	byKey := map[string]*srcDecl{}
	methodsOf := map[string][]*srcDecl{} // receiver type key -> its methods
	methodsNamed := map[string][]*srcDecl{}
	var roots []*srcDecl
	for _, sf := range files {
		f, pkg := sf.ast, sf.pkg
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ipath
		}
		add := func(recv string, id *ast.Ident, node ast.Node) {
			d := &srcDecl{key: pkg + "." + id.Name, pkg: pkg, recv: recv, name: id.Name,
				exported: id.IsExported(), mainModule: sf.mainModule, pos: fset.Position(node.Pos()), node: node, imports: imports}
			if recv != "" {
				d.key = pkg + "." + recv + "." + id.Name
				methodsOf[pkg+"."+recv] = append(methodsOf[pkg+"."+recv], d)
				methodsNamed[id.Name] = append(methodsNamed[id.Name], d)
			}
			if id.Name == "_" || (recv == "" && (id.Name == "init" || (id.Name == "main" && f.Name.Name == "main"))) {
				roots = append(roots, d)
				return
			}
			byKey[d.key] = d
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(receiverName(decl), decl.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add("", spec.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add("", id, spec)
						}
					}
				}
			}
		}
	}

	walk := func(extra []string) {
		for _, d := range byKey {
			d.reached = false
		}
		usedMethods := map[string]bool{}
		var queue []*srcDecl
		reach := func(d *srcDecl) {
			if d != nil && !d.reached {
				d.reached = true
				queue = append(queue, d)
			}
		}
		useMethod := func(name string) {
			if usedMethods[name] {
				return
			}
			usedMethods[name] = true
			for _, m := range methodsNamed[name] {
				if t := byKey[m.pkg+"."+m.recv]; t != nil && t.reached {
					reach(m)
				}
			}
		}
		queue = append(queue, roots...)
		for _, key := range extra {
			reach(byKey[key])
		}
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			if d.recv == "" {
				// A reached type brings its methods whose names are in use.
				for _, m := range methodsOf[d.key] {
					if usedMethods[m.name] {
						reach(m)
					}
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ipath, ok := d.imports[x.Name]; ok {
							reach(byKey[ipath+"."+n.Sel.Name])
							return false
						}
					}
					useMethod(n.Sel.Name)
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					reach(byKey[d.pkg+"."+n.Name])
				}
				return true
			}
			ast.Inspect(d.node, visit)
		}
	}

	var stale []string
	walk(nil)
	for key := range allow {
		switch d := byKey[key]; {
		case d == nil:
			stale = append(stale, key+": names no declaration")
		case d.reached:
			stale = append(stale, key+": production code reaches it")
		}
	}
	sort.Strings(stale)

	keys := make([]string, 0, len(allow))
	for key := range allow {
		keys = append(keys, key)
	}
	walk(keys)
	var findings []testOnlyFinding
	for _, d := range byKey {
		if d.exported && !d.reached && d.mainModule {
			findings = append(findings, testOnlyFinding{key: d.key, pos: d.pos.String()})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].key < findings[j].key })
	return findings, stale, nil
}

// packagePath is the import path of the package in dir, the path of the
// innermost module above it joined with dir's path inside that module, and
// that module's dir.
func packagePath(modules map[string]string, root, dir string) (string, string) {
	for mdir := dir; ; mdir = filepath.Dir(mdir) {
		if mod, ok := modules[mdir]; ok {
			rel, _ := filepath.Rel(mdir, dir)
			if rel == "." {
				return mod, mdir
			}
			return mod + "/" + filepath.ToSlash(rel), mdir
		}
		if mdir == root || mdir == filepath.Dir(mdir) {
			return filepath.ToSlash(dir), ""
		}
	}
}

// receiverName is the receiver's type name of a method, "" for a function.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
