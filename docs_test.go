package structmine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// codeSpan is one inline code span of Markdown; fenced blocks are cut
// out before spans are matched (fencedBlock).
var (
	codeSpan    = regexp.MustCompile("`[^`\n]+`")
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	// docRef is pkg.Name or pkg.Type.Name, not preceded by an
	// identifier character, a dot or a slash (a path or a selector on a
	// variable is no package reference).
	docRef = regexp.MustCompile(`(^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// pkgDecls is what a doc reference may name in one package: top-level
// declarations (tests and fuzz targets included), and the members of
// each type — its methods, interface methods and struct fields.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool // type → member names
}

func (d pkgDecls) resolves(name, member string) bool {
	if member != "" {
		return d.members[name][member]
	}
	if d.top[name] {
		return true
	}
	for _, ms := range d.members { // the pkg.Method shorthand, as in fd.MVDHolds
		if ms[name] {
			return true
		}
	}
	return false
}

// modulePackages parses every non-main package of the module under root,
// keyed by package name; an external test package (pkg_test) counts as
// pkg.
func modulePackages(t *testing.T, root string) map[string]pkgDecls {
	t.Helper()
	pkgs, dirOf := map[string]pkgDecls{}, map[string]string{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() {
			return nil
		}
		if name := e.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		parsed, err := parser.ParseDir(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for name, p := range parsed {
			name = strings.TrimSuffix(name, "_test")
			if name == "main" {
				continue
			}
			if dir, seen := dirOf[name]; !seen {
				dirOf[name] = path
				pkgs[name] = pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
			} else if dir != path {
				t.Fatalf("%s and %s are both package %s: doc references to it are ambiguous", dir, path, name)
			}
			pkgs[name].add(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func (d pkgDecls) add(p *ast.Package) {
	addMember := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
				} else {
					addMember(receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						var members *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.InterfaceType:
							members = typ.Methods
						case *ast.StructType:
							members = typ.Fields
						}
						if members != nil {
							for _, m := range members.List {
								for _, n := range m.Names {
									addMember(spec.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					}
				}
			}
		}
	}
}

// receiverType strips the pointer and type parameters off a receiver.
func receiverType(x ast.Expr) string {
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

// docRefs returns the pkg.Name and pkg.Type.Name references in the
// inline code spans of a Markdown text whose pkg is one of pkgs.
func docRefs(text string, pkgs map[string]pkgDecls) [][3]string {
	var refs [][3]string
	for _, span := range codeSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1) {
		for _, m := range docRef.FindAllStringSubmatch(span, -1) {
			if _, ok := pkgs[m[2]]; ok {
				refs = append(refs, [3]string{m[2], m[3], m[4]})
			}
		}
	}
	return refs
}

// TestDocsReferToCode holds README.md and DESIGN.md to the code: every
// `pkg.Name` or `pkg.Type.Name` in an inline code span whose pkg is a
// package of this module names a top-level declaration of that package
// or a member of one of its types, so a rename or a deletion that leaves the prose behind
// fails here.
func TestDocsReferToCode(t *testing.T) {
	pkgs := modulePackages(t, ".")
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		refs := docRefs(string(text), pkgs)
		checked += len(refs)
		for _, r := range refs {
			if !pkgs[r[0]].resolves(r[1], r[2]) {
				ref := r[0] + "." + r[1]
				if r[2] != "" {
					ref += "." + r[2]
				}
				t.Errorf("%s names `%s`, which %s does not declare", doc, ref, r[0])
			}
		}
	}
	if checked == 0 {
		t.Error("no package references found in the docs; the matcher is broken")
	}
}
