// Package lint is the repository's Go-source analyzer suite (cobra-lint):
// small syntactic analyzers in the shape of go/analysis, built on the
// standard library only so the suite runs anywhere `go test` does — no
// module downloads, no separate tool install.
//
// Two analyzers ship today:
//
//   - hotpath: flags fmt calls and allocation-prone builtins (make, new,
//     append) inside functions marked //cobra:hotpath — the fastpath
//     executor's per-block loops, whose zero-allocation property the
//     benchmarks and alloc tests depend on.
//   - hotpathpanic: flags panic and log.Fatal* calls inside
//     //cobra:hotpath functions. The hotpath contract is errors-by-return:
//     cobrad serves these loops to network tenants, where a reachable
//     panic is a denial-of-service primitive and log.Fatal kills the whole
//     service.
//
// Analyzers are purely syntactic (go/ast over one file at a time): no type
// checking, so no dependency resolution and no build cache. That costs a
// little precision — a local variable named fmt would be flagged — and
// buys a linter that can never fail for environmental reasons.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

// Finding is one analyzer report at one source position.
type Finding struct {
	Pos  token.Position
	Code string // analyzer name
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Code, f.Msg)
}

// File is one parsed source file handed to each analyzer.
type File struct {
	Fset *token.FileSet
	Path string
	AST  *ast.File
}

// Analyzer is one check over a parsed file.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(f *File) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Hotpath, Hotpathpanic}
}

// hotpathMarker is the magic comment that opts a function into the hotpath
// analyzer, written directly above the declaration like a compiler
// directive: //cobra:hotpath
const hotpathMarker = "//cobra:hotpath"

// allocBuiltins are the builtins that allocate (or may allocate) on every
// call — the calls the fastpath's per-block loops must not make.
var allocBuiltins = map[string]bool{"make": true, "new": true, "append": true}

// Hotpath flags fmt calls and allocation-prone builtins inside functions
// marked //cobra:hotpath.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag fmt and allocation-prone calls inside //cobra:hotpath functions",
	Run: func(f *File) []Finding {
		var fs []Finding
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasHotpathMarker(fn.Doc) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if allocBuiltins[fun.Name] {
						fs = append(fs, Finding{
							Pos:  f.Fset.Position(call.Pos()),
							Code: "hotpath",
							Msg:  fmt.Sprintf("%s call in hotpath function %s", fun.Name, fn.Name.Name),
						})
					}
				case *ast.SelectorExpr:
					if id, ok := fun.X.(*ast.Ident); ok && id.Name == "fmt" {
						fs = append(fs, Finding{
							Pos:  f.Fset.Position(call.Pos()),
							Code: "hotpath",
							Msg:  fmt.Sprintf("fmt.%s call in hotpath function %s", fun.Sel.Name, fn.Name.Name),
						})
					}
				}
				return true
			})
		}
		return fs
	},
}

// logFatalFuncs are the log-package calls that terminate the process.
var logFatalFuncs = map[string]bool{"Fatal": true, "Fatalf": true, "Fatalln": true}

// Hotpathpanic flags panic and log.Fatal* calls inside //cobra:hotpath
// functions: the hotpath contract is errors-by-return, and these loops run
// under cobrad for network tenants, where a data-reachable panic is a
// denial-of-service primitive.
var Hotpathpanic = &Analyzer{
	Name: "hotpathpanic",
	Doc:  "flag panic and log.Fatal* calls inside //cobra:hotpath functions",
	Run: func(f *File) []Finding {
		var fs []Finding
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasHotpathMarker(fn.Doc) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if fun.Name == "panic" {
						fs = append(fs, Finding{
							Pos:  f.Fset.Position(call.Pos()),
							Code: "hotpathpanic",
							Msg:  fmt.Sprintf("panic call in hotpath function %s — return an error instead", fn.Name.Name),
						})
					}
				case *ast.SelectorExpr:
					if id, ok := fun.X.(*ast.Ident); ok && id.Name == "log" && logFatalFuncs[fun.Sel.Name] {
						fs = append(fs, Finding{
							Pos:  f.Fset.Position(call.Pos()),
							Code: "hotpathpanic",
							Msg:  fmt.Sprintf("log.%s call in hotpath function %s — return an error instead", fun.Sel.Name, fn.Name.Name),
						})
					}
				}
				return true
			})
		}
		return fs
	},
}

// hasHotpathMarker reports whether a declaration's doc block carries the
// //cobra:hotpath directive.
func hasHotpathMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == hotpathMarker {
			return true
		}
	}
	return false
}

// CheckSource parses one file's source and runs the whole suite over it —
// the unit the driver and the tests share. Parse errors are returned, not
// reported as findings.
func CheckSource(path string, src []byte) ([]Finding, error) {
	fset := token.NewFileSet()
	astf, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	file := &File{Fset: fset, Path: path, AST: astf}
	var fs []Finding
	for _, an := range Analyzers() {
		fs = append(fs, an.Run(file)...)
	}
	return fs, nil
}

// CheckDir walks root recursively, checking every .go file (vendor-free
// repo: only .git and testdata trees are skipped, testdata because its
// files are fixtures, not code the module builds).
func CheckDir(root string, read func(string) ([]byte, error)) ([]Finding, error) {
	var all []Finding
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := read(path)
		if err != nil {
			return err
		}
		fs, err := CheckSource(path, src)
		if err != nil {
			return err
		}
		all = append(all, fs...)
		return nil
	})
	return all, err
}
