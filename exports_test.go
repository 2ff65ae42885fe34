package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that
// no program code references, each with the benchmark, test or document
// that keeps it. A test seam that only its own package's tests need
// belongs in that package's export_test.go instead.
var exportAllowlist = map[string]string{
	// Seams that gated benchmarks and Example_fabricTopology call.
	"dns.NewStatic":              "BenchmarkDNS64Synthesis builds its upstream with it",
	"dns.Cache.Len":              "BenchmarkScaleThousandClients checks the cache's LRU bound with it",
	"netsim.Network.Run":         "BenchmarkHeavyTraffic's 0-allocs loop drains the fabric with it",
	"hoststack.Host.V6Addresses": "BenchmarkGatewayRenumber checks the renumbered addresses with it",
	"testbed.Fabric.ActiveCount": "Example_fabricTopology prints it; BenchmarkFabricScale checks it",
	"testbed.Fabric.DomainOf":    "Example_fabricTopology prints it",

	// Seams that tests in other packages call.
	"dhcp4.Server.LeaseCount":            "hoststack and gateway5g tests count server leases with it",
	"dhcp4.Server.LeaseFor":              "hoststack's renewal test reads the server-side lease with it",
	"hoststack.Host.RDNSS":               "gateway5g and testbed tests read the RA-learned resolvers",
	"hoststack.Host.V4DNS":               "gateway5g and testbed tests read the DHCP-learned resolvers",
	"hoststack.Host.PreloadNeighbor":     "gateway5g tests seed a client's neighbor cache with it",
	"hoststack.TCPConn.Peek":             "testbed's failure tests read a receive buffer without draining it",
	"netsim.NIC.Impaired":                "testbed's chaos tests check which NICs carry an impairment",
	"netsim.NIC.SetHandler":              "gateway5g tests tap a client NIC with it",
	"netsim.NIC.Stats":                   "testbed tests read a NIC's frame counters",
	"netsim.Network.Stopped":             "scenario's stream tests check that Close stopped the world",
	"netsim.Network.SetUnicastRings":     "the rings-off reference path the ring oracle tests compare against",
	"netsim.Network.UnicastRingsEnabled": "the rings-off reference path the ring oracle tests compare against",

	// Documented capabilities.
	"pathology.Decoder.DecodePartial":       "PATHOLOGIES.md documents partial decoding",
	"testbed.Testbed.RollBackIntervention":  "the paper's §VII contingency; testbed's rollback tests",
	"testbed.Testbed.ReinstateIntervention": "the paper's §VII contingency; testbed's rollback tests",
	"hoststack.Host.DiscoverNAT64Prefix":    "RFC 7050 prefix discovery; testbed's discovery tests",
	"hoststack.Host.NAT64Prefix":            "RFC 7050/8781 prefix discovery; testbed's discovery tests",

	// Wire constants.
	"dhcp4.Decline":                    "RFC 2131 message type",
	"packet.ICMPv4CodeNetUnreachable":  "RFC 792 code; nat64's ICMP error tests",
	"packet.ICMPv4CodeHostUnreachable": "RFC 792 code; nat64's ICMP error tests",
	"packet.ICMPv4CodePortUnreachable": "RFC 792 code; nat64's ICMP error tests",
	"packet.ICMPv4CodeAdminProhibited": "RFC 1812 code; nat64's ICMP error tests",
}

// TestInternalExportsHaveProductionUses type-checks every package of
// the module and of perfbench/, test files excluded, and fails when an
// exported identifier declared under internal/ — a package-level name
// or a method of a package-level type — has no reference from that
// code and is not in exportAllowlist, or when an allowlist entry names
// an identifier that is gone or now referenced. References inside the
// identifier's own declaration (a function's body, a type's methods) do
// not count; a method that implements an interface declared in a loaded
// package (error, fmt.Stringer, dns.Resolver, …) counts as referenced.
func TestInternalExportsHaveProductionUses(t *testing.T) {
	l := loadProgram(t)

	var ifaces []*types.Interface
	for _, p := range l.pkgs {
		for _, imp := range append(p.Imports(), p) {
			for _, n := range imp.Scope().Names() {
				if it, ok := imp.Scope().Lookup(n).Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	// own maps each exported candidate to the declarations whose
	// references to it do not count.
	own := map[types.Object][]ast.Node{}
	for pkgPath, files := range l.files {
		if !strings.HasPrefix(pkgPath, "repro/internal/") {
			continue
		}
		scope := l.pkgs[pkgPath].Scope()
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if o := scope.Lookup(d.Name.Name); o != nil { // init is not in scope
							own[o] = append(own[o], d)
						}
						continue
					}
					tn := scope.Lookup(recvTypeName(d.Recv.List[0].Type))
					own[tn] = append(own[tn], d)
					m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), d.Name.Name)
					if !implementsAny(tn.Type(), m.Name(), ifaces) {
						own[m] = append(own[m], d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							o := scope.Lookup(s.Name.Name)
							own[o] = append(own[o], s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if o := scope.Lookup(n.Name); o != nil {
									own[o] = append(own[o], s)
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		inside := false
		for _, n := range own[obj] {
			inside = inside || (n.Pos() <= id.Pos() && id.Pos() < n.End())
		}
		used[obj] = used[obj] || !inside
	}

	unused := map[string]bool{}
	for obj := range own {
		if obj.Exported() && !used[obj] {
			unused[qualifiedName(obj)] = true
		}
	}
	var bad []string
	for name := range unused {
		if _, ok := exportAllowlist[name]; !ok {
			bad = append(bad, name+": exported under internal/ with no reference outside tests; delete it or move it into export_test.go")
		}
	}
	for name := range exportAllowlist {
		if !unused[name] {
			bad = append(bad, name+": allowlisted, but it is gone or has a program reference now; drop the entry")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// fieldAllowlist names the exported fields of exported struct types
// under internal/ that program code reads but never sets, each with the
// reason it stays.
var fieldAllowlist = map[string]string{
	"dns.Cache.MaxEntries":             "BenchmarkScaleThousandClients sets the LRU bound",
	"netsim.Impairment.FlapEvery":      "perfbench reports FramesImpairFlapDropped, so the flap model stays until the benchmark changes, as ChaosSpec's jitter does",
	"netsim.Impairment.FlapDown":       "perfbench reports FramesImpairFlapDropped, so the flap model stays until the benchmark changes, as ChaosSpec's jitter does",
	"gateway5g.Config.AdvertisePREF64": "the RFC 8781 PREF64 option behind the allowlisted hoststack.Host.DiscoverNAT64Prefix",
}

// TestInternalReadFieldsAreSet fails when program code (the module and
// perfbench/, test files excluded) reads an exported field of an
// exported struct type under internal/ but never sets it, unless
// fieldAllowlist gives the reason; a setting that only tests change
// belongs in a constant. A stale allowlist entry fails too. A field
// counts as set when it is a composite-literal key or position, the
// target of an assignment or ++/-- (directly or through an index
// expression), or has its address taken.
func TestInternalReadFieldsAreSet(t *testing.T) {
	l := loadProgram(t)

	names := map[*types.Var]string{}
	for pkgPath, p := range l.pkgs {
		if !strings.HasPrefix(pkgPath, "repro/internal/") {
			continue
		}
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					names[f] = qualifiedName(tn) + "." + f.Name()
				}
			}
		}
	}

	read, set := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, sel := range l.info.Selections {
		if sel.Kind() == types.FieldVal {
			read[sel.Obj().(*types.Var).Origin()] = true
		}
	}
	// target marks the field that an assignment to x, or &x, sets.
	target := func(x ast.Expr) {
		for {
			switch e := x.(type) {
			case *ast.ParenExpr:
				x = e.X
			case *ast.IndexExpr:
				x = e.X
			case *ast.SelectorExpr:
				if sel := l.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
					set[sel.Obj().(*types.Var).Origin()] = true
				}
				return
			default:
				return
			}
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := l.info.Types[n].Type
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem() // an elided &T{…} in a slice or map literal
					}
					st, _ := typ.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
									set[v.Origin()] = true
								}
							}
						} else if st != nil {
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				}
				return true
			})
		}
	}

	unset := map[string]bool{}
	for f, name := range names {
		if read[f] && !set[f] {
			unset[name] = true
		}
	}
	var bad []string
	for name := range unset {
		if _, ok := fieldAllowlist[name]; !ok {
			bad = append(bad, name+": read by program code that never sets it; make it a constant or delete it")
		}
	}
	for name := range fieldAllowlist {
		if !unset[name] {
			bad = append(bad, name+": allowlisted, but it is gone, unread or set by program code now; drop the entry")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

var (
	programOnce sync.Once
	program     *loader
	programErr  error
)

// loadProgram type-checks every package of the module and of
// perfbench/, test files excluded, once per test binary.
func loadProgram(t *testing.T) *loader {
	programOnce.Do(func() {
		l := &loader{
			fset:  token.NewFileSet(),
			std:   importer.Default(),
			pkgs:  map[string]*types.Package{},
			files: map[string][]*ast.File{},
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		}
		for _, root := range []string{".", "perfbench"} {
			err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
				if err != nil || !d.IsDir() {
					return err
				}
				if n := d.Name(); dir != root && (n == "testdata" || n == "perfbench" || strings.HasPrefix(n, ".")) {
					return filepath.SkipDir
				}
				if _, err := build.ImportDir(dir, 0); err != nil {
					return nil // no non-test Go files here
				}
				_, err = l.Import(path.Join("repro", filepath.ToSlash(dir)))
				return err
			})
			if err != nil {
				programErr = err
				return
			}
		}
		program = l
	})
	if programErr != nil {
		t.Fatal(programErr)
	}
	return program
}

// loader type-checks the module's packages from source on demand, test
// files excluded, and imports the standard library from export data.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (l *loader) Import(importPath string) (*types.Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	rel, ok := strings.CutPrefix(importPath, "repro")
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(importPath)
	}
	dir := "." + rel
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath], l.files[importPath] = p, files
	return p, nil
}

// recvTypeName returns the type name of a method receiver expression
// (T, *T, T[P] or *T[P]).
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// implementsAny reports whether t or *t implements an interface that
// declares a method called name.
func implementsAny(t types.Type, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// qualifiedName renders obj as pkg.Name or pkg.Type.Method, with pkg
// the path below internal/.
func qualifiedName(obj types.Object) string {
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		name = recv.(*types.Named).Obj().Name() + "." + name
	}
	return strings.TrimPrefix(obj.Pkg().Path(), "repro/internal/") + "." + name
}
