// Command deadnames fails when the module declares a name that no live
// non-test code references: a package-level function, type, variable or
// constant, or a method, declared in a non-test file of the root
// module. Liveness starts at the non-test code outside the module's
// declarations — main and init functions, blank variables, examples
// and scripts run as programs, a nested module such as benchmark/ — and
// follows references transitively, so a name only dead names reference
// is dead too, cycles of them included. A reference from a _test.go
// file does not count: a name only tests reach is deleted with those
// tests, or moves into them. A method is live when its receiver
// implements an interface (declared in non-test code of the module, in a
// package it imports, or written inline in a type assertion) that has
// the method, since calls through the interface name no concrete method.
// Names of the root package are live when the root's README.md shows
// them as gsight.Name, because the README is where library users find
// them.
//
//	go run ./scripts/deadnames ROOT
//
// It type-checks from source with the standard library alone and exits
// 1 when it finds a name, 2 when the tree does not type-check.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: deadnames ROOT")
		os.Exit(2)
	}
	root, err := filepath.Abs(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dead, err := find(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range dead {
		rel, _ := filepath.Rel(root, d.pos.Filename)
		fmt.Printf("%s:%d: %s is referenced by no non-test code in the tree\n", rel, d.pos.Line, d.name)
	}
	if len(dead) > 0 {
		os.Exit(1)
	}
}

// find returns the declarations of the module at root that no live
// non-test code references, in file and line order.
func find(root string) ([]decl, error) {
	l := &loader{fset: token.NewFileSet(), dirs: map[string]*build.Package{}, module: map[string]string{},
		cache: map[string]*types.Package{}, parsed: map[string]*ast.File{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	mainMod, err := l.discover(root)
	if err != nil {
		return nil, err
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return l.check(mainMod, documented(mainMod, readme))
}

type loader struct {
	fset   *token.FileSet
	dirs   map[string]*build.Package // import path -> package dir
	module map[string]string         // import path -> its module path
	cache  map[string]*types.Package // non-test copies, as imported
	std    types.Importer
	parsed map[string]*ast.File
	errs   []string
}

// discover maps every Go package directory under root to its import
// path, following nested go.mod files.
func (l *loader) discover(root string) (string, error) {
	modules := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if data, err := os.ReadFile(filepath.Join(p, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					modules[p] = f[1]
				}
			}
		}
		bp, err := build.Default.ImportDir(p, 0)
		if err != nil {
			return nil // no buildable Go files here
		}
		mod := ""
		for m := range modules {
			if (p == m || strings.HasPrefix(p, m+string(filepath.Separator))) && len(m) > len(mod) {
				mod = m
			}
		}
		rel, _ := filepath.Rel(mod, p)
		path := modules[mod]
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.dirs[path] = bp
		l.module[path] = modules[mod]
		return nil
	})
	if modules[root] == "" {
		return "", fmt.Errorf("deadnames: no go.mod in %s", root)
	}
	return modules[root], err
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	bp, ok := l.dirs[path]
	if !ok {
		p, err := l.std.Import(path)
		if err == nil {
			l.cache[path] = p
		}
		return p, err
	}
	p, _ := l.conf().Check(path, l.fset, l.parse(bp.Dir, bp.GoFiles), nil)
	l.cache[path] = p
	return p, nil
}

func (l *loader) conf() *types.Config {
	return &types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err.Error()) }}
}

func (l *loader) parse(dir string, names []string) []*ast.File {
	var out []*ast.File
	for _, n := range names {
		fn := filepath.Join(dir, n)
		f, ok := l.parsed[fn]
		if !ok {
			var err error
			if f, err = parser.ParseFile(l.fset, fn, nil, 0); err != nil {
				l.errs = append(l.errs, err.Error())
				continue
			}
			l.parsed[fn] = f
		}
		out = append(out, f)
	}
	return out
}

type decl struct {
	key, name string
	pos       token.Position
	body      [2]int // byte offsets of the declaring node: self-references do not count
	method    *types.Func
}

// check type-checks every package with its tests and returns the root
// module's declarations that live non-test code does not use. The keys
// in live are live from the start, as are the methods an interface
// calls and whatever non-test code outside the module's declarations
// uses; a name is live when a live declaration uses it.
func (l *loader) check(mainMod string, live map[string]bool) ([]decl, error) {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var decls []decl
	uses := map[string][]token.Position{}
	ifaces := map[string]*types.Interface{}
	// record keeps what non-test files use and the interfaces they
	// spell; test files are type-checked only so their package compiles.
	record := func(info *types.Info) {
		for id, obj := range info.Uses {
			pos := l.fset.Position(id.Pos())
			if k := key(obj); k != "" && !isTest(pos.Filename) {
				uses[k] = append(uses[k], pos)
			}
		}
		for e, tv := range info.Types {
			if isTest(l.fset.Position(e.Pos()).Filename) {
				continue
			}
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[types.TypeString(it, qualify)] = it
			}
		}
	}
	for _, path := range paths {
		bp := l.dirs[path]
		files := l.parse(bp.Dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...))
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		l.conf().Check(path, l.fset, files, info)
		record(info)
		if l.module[path] == mainMod {
			decls = append(decls, l.declared(files, info)...)
		}
		if len(bp.XTestGoFiles) > 0 {
			xinfo := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
			l.conf().Check(path+"_test", l.fset, l.parse(bp.Dir, bp.XTestGoFiles), xinfo)
			record(xinfo)
		}
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("deadnames: the tree does not type-check:\n%s", strings.Join(l.errs, "\n"))
	}
	for _, p := range l.cache {
		if p == nil {
			continue
		}
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[types.TypeString(it, qualify)] = it
				}
			}
		}
	}
	ifaces["error"] = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

	// Every use of a declared name is an edge from the declaration whose
	// body holds it; a use outside them all makes the name live at once.
	byFile := map[string][]*decl{}
	for i := range decls {
		d := &decls[i]
		byFile[d.pos.Filename] = append(byFile[d.pos.Filename], d)
		if d.method != nil && satisfies(d.method, ifaces) {
			live[d.key] = true
		}
	}
	usedBy := map[string][]string{}
	var queue []string
	for k := range live {
		queue = append(queue, k)
	}
	for _, d := range decls {
		for _, u := range uses[d.key] {
			if from := enclosing(byFile[u.Filename], u.Offset); from == "" {
				if !live[d.key] {
					live[d.key] = true
					queue = append(queue, d.key)
				}
			} else if from != d.key {
				usedBy[from] = append(usedBy[from], d.key)
			}
		}
	}
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, to := range usedBy[k] {
			if !live[to] {
				live[to] = true
				queue = append(queue, to)
			}
		}
	}
	var dead []decl
	for _, d := range decls {
		if !live[d.key] {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].pos.Filename != dead[j].pos.Filename {
			return dead[i].pos.Filename < dead[j].pos.Filename
		}
		return dead[i].pos.Line < dead[j].pos.Line
	})
	return dead, nil
}

// declared lists the package-level names and methods a package's
// non-test files declare.
func (l *loader) declared(files []*ast.File, info *types.Info) []decl {
	var out []decl
	for _, f := range files {
		if isTest(l.fset.Position(f.Pos()).Filename) {
			continue
		}
		add := func(id *ast.Ident, node ast.Node) {
			obj := info.Defs[id]
			k := key(obj)
			if k == "" || id.Name == "_" || id.Name == "main" || id.Name == "init" {
				return
			}
			d := decl{key: k, name: strings.TrimPrefix(k, obj.Pkg().Path()+"."), pos: l.fset.Position(id.Pos()),
				body: [2]int{l.fset.Position(node.Pos()).Offset, l.fset.Position(node.End()).Offset}}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				d.method = fn
			}
			out = append(out, d)
		}
		for _, dcl := range f.Decls {
			switch dcl := dcl.(type) {
			case *ast.FuncDecl:
				add(dcl.Name, dcl)
			case *ast.GenDecl:
				for _, spec := range dcl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(n, spec)
						}
					}
				}
			}
		}
	}
	return out
}

// satisfies reports whether m's receiver type implements some interface
// that has m. Signatures are compared as strings because the same
// package is type-checked more than once (with and without its tests).
func satisfies(m *types.Func, ifaces map[string]*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	have := map[string]bool{}
	ms := types.NewMethodSet(types.NewPointer(recv))
	for i := 0; i < ms.Len(); i++ {
		have[ms.At(i).Obj().Name()+sigKey(ms.At(i).Obj().Type())] = true
	}
	for _, it := range ifaces {
		has, all := false, true
		for i := 0; i < it.NumMethods() && all; i++ {
			im := it.Method(i)
			all = have[im.Name()+sigKey(im.Type())]
			has = has || im.Name() == m.Name()
		}
		if has && all {
			return true
		}
	}
	return false
}

// sigKey renders a method signature without parameter names, and with
// any spelled interface{}, so equal signatures compare equal.
func sigKey(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(anyWord.ReplaceAllString(types.TypeString(tup.At(i).Type(), qualify), "interface{}") + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

var anyWord = regexp.MustCompile(`\bany\b`)

func qualify(p *types.Package) string { return p.Path() }

func isTest(filename string) bool { return strings.HasSuffix(filename, "_test.go") }

// key names an object the same way in every type-checked copy of its
// package; "" for anything not declared at package level.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// enclosing returns the key of the declaration among ds whose body holds
// offset, or "" when none does.
func enclosing(ds []*decl, offset int) string {
	for _, d := range ds {
		if d.body[0] <= offset && offset < d.body[1] {
			return d.key
		}
	}
	return ""
}

// documented returns the keys of the root-package names the README
// mentions as gsight.Name.
func documented(mainMod string, readme []byte) map[string]bool {
	mentioned := map[string]bool{}
	re := regexp.MustCompile(regexp.QuoteMeta(mainMod) + `\.([A-Z]\w*)`)
	for _, m := range re.FindAllSubmatch(readme, -1) {
		mentioned[mainMod+"."+string(m[1])] = true
	}
	return mentioned
}
