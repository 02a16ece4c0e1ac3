package bench

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The migration tables are checked against the code that runs. The check
// type-checks internal/search (the two engines: simcl.go drives the OpenCL
// frontend, simsycl.go the SYCL one), internal/kernels and
// internal/gpu/alloc from source with the standard library alone, and
// resolves every identifier to the object it denotes: a function, a method
// keyed by its receiver type (opencl.Mem.Release is not
// opencl.Kernel.Release), a type or a constant.

// apiUses is what the check reads off the type-checked code.
type apiUses struct {
	// used maps a side to the keys of every package-level object and
	// method its code refers to: "opencl" and "sycl" for the two engine
	// files, "kernel" for internal/kernels and internal/gpu/alloc.
	used map[string]map[string]bool
	// calls maps an engine to the opencl or sycl functions and methods its
	// file refers to.
	calls map[string]map[string]bool
	// teardown maps an engine to the keys its teardown functions refer to.
	teardown map[string]map[string]bool
	// created lists the opencl types the OpenCL engine obtains from a call
	// that have a Release method.
	created []string
}

// engineFiles are the engine file of each frontend.
var engineFiles = map[string]string{"opencl": "simcl.go", "sycl": "simsycl.go"}

// teardownFuncs are the functions on each engine's close and free paths.
var teardownFuncs = map[string][]string{
	"opencl": {"clOps.close", "clOps.free"},
	"sycl":   {"syclOps.close", "syclOps.free", "syclMem.free"},
}

// apiKey names obj as the migration rows spell it, or "" for an object
// that is not a package-level declaration or a method of a named type.
func apiKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok {
				return "" // an interface method
			}
			return fn.Pkg().Name() + "." + n.Origin().Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a field, a local
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// isFrontendFunc reports whether obj is a function or method of the opencl
// or sycl package.
func isFrontendFunc(obj types.Object) bool {
	_, ok := obj.(*types.Func)
	return ok && (obj.Pkg().Name() == "opencl" || obj.Pkg().Name() == "sycl")
}

// typeCheck parses the non-test files of the package in dir and
// type-checks it.
func typeCheck(t *testing.T, fset *token.FileSet, imp types.Importer, dir string) ([]*ast.File, *types.Info) {
	t.Helper()
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(bp.ImportPath, fset, files, info); err != nil {
		t.Fatal(err)
	}
	return files, info
}

// funcName names a declaration the way teardownFuncs does.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	rt := fd.Recv.List[0].Type
	if s, ok := rt.(*ast.StarExpr); ok {
		rt = s.X
	}
	if x, ok := rt.(*ast.IndexExpr); ok { // a generic receiver: syclMem[T]
		rt = x.X
	}
	return rt.(*ast.Ident).Name + "." + fd.Name.Name
}

var (
	loadOnce   sync.Once
	loadedUses *apiUses
)

// loadUses type-checks the engines and the kernel packages once per test
// binary and returns what they use.
func loadUses(t *testing.T) *apiUses {
	t.Helper()
	loadOnce.Do(func() {
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "source", nil)
		u := &apiUses{
			used:     map[string]map[string]bool{"opencl": {}, "sycl": {}, "kernel": {}},
			calls:    map[string]map[string]bool{"opencl": {}, "sycl": {}},
			teardown: map[string]map[string]bool{"opencl": {}, "sycl": {}},
		}
		created := map[string]bool{}

		files, info := typeCheck(t, fset, imp, "../search")
		for _, f := range files {
			base := filepath.Base(fset.Position(f.Pos()).Filename)
			for side, file := range engineFiles {
				if base != file {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := info.Uses[id]
					if obj == nil {
						return true
					}
					key := apiKey(obj)
					if key == "" {
						return true
					}
					u.used[side][key] = true
					if isFrontendFunc(obj) {
						u.calls[side][key] = true
						if side == "opencl" {
							for _, name := range releasable(obj.(*types.Func)) {
								created[name] = true
							}
						}
					}
					return true
				})
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || !slices.Contains(teardownFuncs[side], funcName(fd)) {
						continue
					}
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
							if key := apiKey(info.Uses[id]); key != "" {
								u.teardown[side][key] = true
							}
						}
						return true
					})
				}
			}
		}
		for _, dir := range []string{"../kernels", "../gpu/alloc"} {
			_, info := typeCheck(t, fset, imp, dir)
			for _, obj := range info.Uses {
				if key := apiKey(obj); key != "" {
					u.used["kernel"][key] = true
				}
			}
		}
		for name := range created {
			u.created = append(u.created, name)
		}
		sort.Strings(u.created)
		loadedUses = u
	})
	if loadedUses == nil {
		t.Fatal("type-checking the engines failed in an earlier test")
	}
	return loadedUses
}

// releasable returns the opencl types among fn's results that have a
// Release method, as "opencl.Type".
func releasable(fn *types.Func) []string {
	var out []string
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if s, ok := t.(*types.Slice); ok {
			t = s.Elem()
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() != fn.Pkg() {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), false, n.Obj().Pkg(), "Release")
		if _, ok := obj.(*types.Func); ok {
			out = append(out, fn.Pkg().Name()+"."+n.Obj().Name())
		}
	}
	return out
}

// checkMigration holds rows to the code: every name a row gives is used by
// that side's engine (a kernel-language row's names by the kernel
// packages), and every opencl or sycl function or method an engine refers
// to is named by a row on that engine's side.
func checkMigration(rows []migrationRow, u *apiUses) []error {
	var errs []error
	named := map[string]map[string]bool{"opencl": {}, "sycl": {}}
	for i, r := range rows {
		where := fmt.Sprintf("row %d (table %q)", i, r.table)
		kernelRow := r.table == "IV" || r.table == "V"
		if kernelRow != (len(r.kernel) > 0) || kernelRow && len(r.opencl.api)+len(r.sycl.api) > 0 {
			errs = append(errs, fmt.Errorf("%s: Tables IV and V, and only they, name shared kernel code instead of per-side calls", where))
		}
		for _, name := range r.kernel {
			if !u.used["kernel"][name] {
				errs = append(errs, fmt.Errorf("%s names %s, which internal/kernels and internal/gpu/alloc do not use", where, name))
			}
		}
		for side, s := range map[string]migrationSide{"opencl": r.opencl, "sycl": r.sycl} {
			for _, name := range s.api {
				named[side][name] = true
				if !u.used[side][name] {
					errs = append(errs, fmt.Errorf("%s names %s, which %s does not use", where, name, engineFiles[side]))
				}
			}
		}
	}
	for _, side := range []string{"opencl", "sycl"} {
		var missing []string
		for key := range u.calls[side] {
			if !named[side][key] {
				missing = append(missing, key)
			}
		}
		sort.Strings(missing)
		for _, key := range missing {
			errs = append(errs, fmt.Errorf("%s calls %s, which no row names", engineFiles[side], key))
		}
	}
	return errs
}

func TestMigrationRowsNameTheCodeThatRuns(t *testing.T) {
	u := loadUses(t)
	for _, err := range checkMigration(migrationRows, u) {
		t.Error(err)
	}
	// The check saw the engines at all: each calls a good many functions.
	for side, c := range u.calls {
		if len(c) < 10 {
			t.Errorf("%s: only %d %s calls resolved", engineFiles[side], len(c), side)
		}
	}
}

// TestMigrationCheckFails shows the check refusing rows that drift from the
// code: a name nothing calls, a misspelt one, a name on the wrong side, a
// test-only kernel name, and an engine call that no row names.
func TestMigrationCheckFails(t *testing.T) {
	u := loadUses(t)
	withRow := func(r migrationRow) []migrationRow {
		return append(slices.Clone(migrationRows), r)
	}
	without := func(name string) []migrationRow {
		rows := slices.Clone(migrationRows)
		for i := range rows {
			for _, s := range []*migrationSide{&rows[i].opencl, &rows[i].sycl} {
				s.api = slices.DeleteFunc(slices.Clone(s.api), func(n string) bool { return n == name })
			}
		}
		return rows
	}
	for _, tc := range []struct {
		name string
		rows []migrationRow
		want string
	}{
		{"uncalled function", withRow(migrationRow{table: "III", opencl: migrationSide{"x", []string{"opencl.Slice"}}}),
			"names opencl.Slice, which simcl.go does not use"},
		{"misspelt method", withRow(migrationRow{table: "II", sycl: migrationSide{"x", []string{"sycl.Buffer.Destory"}}}),
			"names sycl.Buffer.Destory, which simsycl.go does not use"},
		{"method keyed by receiver", withRow(migrationRow{table: "I", opencl: migrationSide{"x", []string{"opencl.Event.Release"}}}),
			"names opencl.Event.Release, which simcl.go does not use"},
		{"wrong side", withRow(migrationRow{table: "VI", opencl: migrationSide{"x", []string{"sycl.Queue.Submit"}}}),
			"names sycl.Queue.Submit, which simcl.go does not use"},
		{"test-only kernel name", withRow(migrationRow{table: "IV", kernel: []string{"gpu.Device.AllocatedBytes"}}),
			"names gpu.Device.AllocatedBytes, which internal/kernels and internal/gpu/alloc do not use"},
		{"unnamed engine call", without("opencl.Kernel.SetArgLocal"),
			"simcl.go calls opencl.Kernel.SetArgLocal, which no row names"},
		{"unnamed method of a generic type", without("sycl.Buffer.SnapshotRange"),
			"simsycl.go calls sycl.Buffer.SnapshotRange, which no row names"},
	} {
		var got []string
		for _, err := range checkMigration(tc.rows, u) {
			got = append(got, err.Error())
		}
		if len(got) != 1 || !strings.Contains(got[0], tc.want) {
			t.Errorf("%s: check reported %q, want one error containing %q", tc.name, got, tc.want)
		}
	}
}

// TestTableIReleaseStep checks step 13 of Table I and its SYCL
// counterpart: every opencl object type the OpenCL engine obtains that has
// a Release method is released on its close or free path, while the SYCL
// engine releases nothing — its one teardown call is Buffer.Destroy, the
// stand-in for scope exit that Table II names.
func TestTableIReleaseStep(t *testing.T) {
	u := loadUses(t)
	want := []string{"opencl.CommandQueue", "opencl.Context", "opencl.Kernel", "opencl.Mem", "opencl.Program"}
	if !slices.Equal(u.created, want) {
		t.Errorf("releasable objects the OpenCL engine creates = %v, want %v", u.created, want)
	}
	for _, typ := range u.created {
		if !u.teardown["opencl"][typ+".Release"] {
			t.Errorf("%s: %s.Release is never called on the close or free path", engineFiles["opencl"], typ)
		}
	}
	for key := range u.used["sycl"] {
		if strings.HasSuffix(key, ".Release") {
			t.Errorf("%s calls %s; SYCL releases nothing explicitly", engineFiles["sycl"], key)
		}
	}
	var syclTeardown []string
	for key := range u.teardown["sycl"] {
		if strings.HasPrefix(key, "sycl.") {
			syclTeardown = append(syclTeardown, key)
		}
	}
	if !slices.Equal(syclTeardown, []string{"sycl.Buffer.Destroy"}) {
		t.Errorf("%s teardown calls %v, want only sycl.Buffer.Destroy", engineFiles["sycl"], syclTeardown)
	}
}
