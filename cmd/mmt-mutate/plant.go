package main

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// A mutant is one planted fault, switched on when MMT_MUT equals its id.
type mutant struct {
	id                 int
	file, fn, op, rule string // fn is (*T).m or f; op says how the fault is planted
	line, count        int    // count is -test.count: a shuffled map order may pass once by luck
	race               bool   // a fault that shares memory between goroutines, run under -race
	killer             string // the first test that failed, "" while it survives
}

func (m *mutant) site() string { return m.file + " " + m.fn + " " + m.op }

// edit inserts text at a byte offset: mutants only insert, so every line
// keeps its number. An opening and a closing edit wrap span bytes; spans
// that start or end at one offset nest by length, and a statement put
// ahead of another (span MaxInt) stays outside all of them.
type edit struct {
	off, span, id int
	open          bool
	text          string
}

func (e edit) key() []int {
	if e.open {
		return []int{e.off, 1, -e.span, e.id}
	}
	return []int{e.off, 0, e.span, -e.id}
}

// Sites by callee name, with the rule each fault belongs to.
var (
	boolChecks = map[string]string{"TagEqual": "mac", "VerifyDigest": "checkverify", "ecdsa.Verify": "checkverify"}
	errChecks  = map[string]string{"VerifyPath": "checkverify", "VerifyAll": "checkverify", "VerifyReport": "checkverify",
		"VerifyCertificate": "checkverify", "Unseal": "checkverify", "Open": "checkverify", "Complete": "ack", "readAck": "ack"}
	dropChecks = map[string]string{"settle": "settle", "flush": "settle", "flushAll": "settle", "flushBatch": "settle", "wait": "pipe"}
	sorts      = regexp.MustCompile(`^(sort\.(Strings|Ints|Slice|SliceStable)|slices\.Sort(Func|StableFunc)?)$`)
	decoder    = regexp.MustCompile(`^(?i:parse|decode|unmarshal|deserialize|read|load)`)
)

type planter struct {
	pkg      *listed
	fset     *token.FileSet
	file, fn string
	src      []byte
	muts     []*mutant
	edits    map[string][]edit // by module-relative file
}

func (p *planter) off(pos token.Pos) int  { return p.fset.Position(pos).Offset }
func (p *planter) text(n ast.Node) string { return string(p.src[p.off(n.Pos()):p.off(n.End())]) }

// around wraps n in pre and post; ahead puts a statement before pos.
func (p *planter) around(n ast.Node, pre, post string) []edit {
	a, b := p.off(n.Pos()), p.off(n.End())
	return []edit{{a, b - a, 0, true, pre}, {b, b - a, 0, false, post}}
}
func (p *planter) ahead(pos token.Pos, stmt string) []edit {
	return []edit{{p.off(pos), math.MaxInt, 0, true, stmt + "; "}}
}

var nextID = 1

// mut plants one mutant at n from edits whose text names its id "@".
func (p *planter) mut(n ast.Node, op, rule string, edits ...[]edit) *mutant {
	m := &mutant{id: nextID, file: p.file, fn: p.fn, op: op, rule: rule, line: p.fset.Position(n.Pos()).Line, count: 1}
	for _, e := range slices.Concat(edits...) {
		e.id, e.text = m.id, strings.ReplaceAll(e.text, "@", strconv.Itoa(m.id))
		p.edits[p.file] = append(p.edits[p.file], e)
	}
	nextID, p.muts = nextID+1, append(p.muts, m)
	return m
}

// plant parses a package's non-test files and returns its mutants and the
// overlay holding them: each mutated file, and a support file with the
// switch and the helpers the mutants call.
func plant(pk *listed, root string) ([]*mutant, map[string]string, error) {
	p := &planter{pkg: pk, fset: token.NewFileSet(), edits: map[string][]edit{}}
	srcs := map[string][]byte{}
	for _, name := range pk.GoFiles {
		src, err := os.ReadFile(pk.Dir + "/" + name)
		f, err2 := parser.ParseFile(p.fset, pk.Dir+"/"+name, src, parser.SkipObjectResolution)
		if err = errors.Join(err, err2); err != nil {
			return nil, nil, err
		}
		p.src, p.file = src, strings.TrimPrefix(pk.Dir+"/"+name, root+"/")
		srcs[p.file] = src
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				p.fn = fd.Name.Name
				if fd.Recv != nil {
					p.fn = "(" + p.text(fd.Recv.List[0].Type) + ")." + p.fn
				}
				p.plantRejects(fd)
				var stack []ast.Node
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
					} else if stack = append(stack, n); len(stack) > 1 {
						if call, ok := n.(*ast.CallExpr); ok {
							p.plantCall(fd, call, stack)
						}
					}
					return true
				})
			}
		}
	}
	overlay, inserted := map[string]string{}, ""
	for file, es := range p.edits {
		slices.SortFunc(es, func(a, b edit) int { return slices.Compare(a.key(), b.key()) })
		src, out, at := srcs[file], []byte{}, 0
		for _, e := range es {
			out, at, inserted = append(append(out, src[at:e.off]...), e.text...), e.off, inserted+e.text
		}
		overlay[root+"/"+file] = string(append(out, src[at:]...))
	}
	overlay[pk.Dir+"/zz_mmt_mutate.go"] = support(pk.Name, inserted)
	return p.muts, overlay, nil
}

func (p *planter) plantCall(fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	name, q := "", ""
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name, q = f.Name, f.Name
	case *ast.SelectorExpr:
		name, q = f.Sel.Name, p.text(f)
	}
	parent := stack[len(stack)-2]
	switch {
	case cmp.Or(boolChecks[q], boolChecks[name]) != "":
		p.mut(call, "pass", cmp.Or(boolChecks[q], boolChecks[name]), p.around(call, "(", " || mmtMut(@))"))
		if name == "TagEqual" {
			p.mut(call, "tageq", "cryptocompare", p.around(call.Fun, "mmtTagEq(@, ", ")"))
		}
	case errChecks[name] != "" && (name != "Open" || len(call.Args) == 4): // AEAD Open takes four
		p.plantErrCheck(errChecks[name], call, stack)
	case name == "await":
		p.mut(call, "pass", "pipe", p.around(call, "mmtNeg(", ", @)"))
	case dropChecks[name] != "":
		switch parent.(type) {
		case *ast.ExprStmt, *ast.DeferStmt:
			p.mut(call, "drop", dropChecks[name], p.around(parent, "if !mmtMut(@) { ", " }")).race = name == "wait" // a helper outlives the call
		}
	case name == "Charge" && len(call.Args) == 3 && p.pkg.Name != "trace":
		if _, ok := parent.(*ast.ExprStmt); ok {
			p.mut(call, "stray", "simclock", p.ahead(call.Pos(), "if mmtMut(@) { "+p.text(call.Args[0])+".AdvanceCycles(1) }"))
		}
		p.mut(call, "wallclock", "simclock", p.around(call.Args[2], "mmtWall(", ", @)"))
	case q == "rand.New":
		p.mut(call, "globalrand", "simclock", p.around(call, "mmtRand(", ", @)"))
	case name == "Event" && len(call.Args) == 4:
		p.mut(call, "kind", "eventkind", p.around(call.Args[0], "mmtBump(", ", @)"))
	case q == "slices.Sorted" && regexp.MustCompile(`^maps\.(Keys|Values)\(`).MatchString(p.text(call.Args[0])):
		p.mut(call, "unsort", "maporder", p.around(call, "mmtShuffle(", ", @)")).count = 5
	case sorts.MatchString(q) && p.collectsInRange(fd.Body, p.text(call.Args[0])):
		if _, ok := parent.(*ast.ExprStmt); ok {
			p.mut(call, "unsort", "maporder", p.around(parent, "if !mmtMut(@) { ", " }")).count = 5
		}
	case (q == "par.Map" || q == "par.ForEach") && len(call.Args) == 3:
		lit, ok := call.Args[2].(*ast.FuncLit)
		var st ast.Node // the statement holding the call
		for i := len(stack) - 2; ok && st == nil; i-- {
			switch stack[i].(type) {
			case *ast.BlockStmt, *ast.CaseClause:
				st = stack[i+1]
			}
		}
		for _, c := range [][4]string{{"clock", "parclock", "mmtClock", ".AdvanceCycles(1)"}, {"context", "tracectx", "mmtContext", ".Span++"}} {
			if ok {
				p.mut(call, c[0], c[1], p.ahead(st.Pos(), "mmtShared@ := "+c[2]+"(@)"),
					p.ahead(lit.Body.Lbrace+1, "if mmtShared@ != nil { mmtShared@"+c[3]+" }")).race = true
			}
		}
	}
}

// plantErrCheck drops the verdict of a check that returns an error: a
// lone result becomes nil, and of several the guard testing the error
// next is never taken.
func (p *planter) plantErrCheck(rule string, call *ast.CallExpr, stack []ast.Node) {
	as, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || len(as.Lhs) == 1 {
		p.mut(call, "drop", rule, p.around(call, "mmtNil(", ", @)"))
		return
	}
	var guard *ast.IfStmt
	switch outer := stack[len(stack)-3].(type) {
	case *ast.IfStmt:
		guard = outer
	case *ast.BlockStmt:
		if i := slices.Index(outer.List, ast.Stmt(as)); i+1 < len(outer.List) {
			guard, _ = outer.List[i+1].(*ast.IfStmt)
		}
	}
	if errVar := p.text(as.Lhs[len(as.Lhs)-1]); guard != nil && errVar != "_" && strings.Contains(p.text(guard.Cond), errVar) {
		p.mut(call, "drop", rule, p.around(guard.Cond, "(", ") && !mmtMut(@)"))
	}
}

// collectsInRange reports whether body appends to v in a range loop: the
// collect half of collect-then-sort.
func (p *planter) collectsInRange(body *ast.BlockStmt, v string) (found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			found = found || regexp.MustCompile(`\b`+regexp.QuoteMeta(v)+` = append\(`+regexp.QuoteMeta(v)+`\b`).MatchString(p.text(r.Body))
		}
		return !found
	})
	return found
}

// plantRejects puts a panic ahead of each reject of a decoder: a function
// named for decoding, with a parameter holding its input (a []byte or
// io.Reader, not a destination dst or p) and a verdict as its last
// result. A reject returns a verdict that is not nil, or false.
func (p *planter) plantRejects(fd *ast.FuncDecl) {
	input := func(f *ast.Field) bool {
		t := p.text(f.Type)
		return (t == "[]byte" || t == "io.Reader") && !slices.ContainsFunc(f.Names, func(id *ast.Ident) bool { return id.Name == "dst" || id.Name == "p" })
	}
	if rs := fd.Type.Results; rs != nil && decoder.MatchString(fd.Name.Name) && slices.ContainsFunc(fd.Type.Params.List, input) {
		verdict := p.text(rs.List[len(rs.List)-1].Type)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) > 0 {
				last := p.text(ret.Results[len(ret.Results)-1])
				if verdict == "error" && last != "nil" || verdict == "bool" && last == "false" {
					p.mut(ret, "panic", "nopanic", p.ahead(ret.Pos(), `if mmtMut(@) { panic("mmt-mutate") }`))
				}
			}
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
	}
}

// helpers are the functions mutants call, each with the imports it needs.
var helpers = []struct{ name, imports, code string }{
	{"mmtNil", "", "func mmtNil(err error, k int) error {\n\tif mmtMut(k) {\n\t\treturn nil\n\t}\n\treturn err\n}"},
	{"mmtNeg", "", "func mmtNeg(bad, k int) int {\n\tif mmtMut(k) {\n\t\treturn -1\n\t}\n\treturn bad\n}"},
	{"mmtTagEq", "", "func mmtTagEq(k int, eq func(a, b uint64) bool) func(a, b uint64) bool {\n\tif mmtMut(k) {\n\t\treturn func(a, b uint64) bool { return a == b }\n\t}\n\treturn eq\n}"},
	{"mmtWall", "time", "func mmtWall[T ~float64 | ~int64 | ~uint64 | ~int](n T, k int) T {\n\tif mmtMut(k) {\n\t\treturn n + T(1+time.Now().UnixNano()%1000)\n\t}\n\treturn n\n}"},
	{"mmtRand", "math/rand time", "func mmtRand(r *rand.Rand, k int) *rand.Rand {\n\tif mmtMut(k) {\n\t\treturn rand.New(rand.NewSource(time.Now().UnixNano()))\n\t}\n\treturn r\n}"},
	{"mmtBump", "", "func mmtBump[T ~uint8 | ~uint16 | ~uint32 | ~int](kind T, k int) T {\n\tif mmtMut(k) {\n\t\treturn kind + 1\n\t}\n\treturn kind\n}"},
	{"mmtShuffle", "math/rand", "func mmtShuffle[E any](s []E, k int) []E {\n\tif mmtMut(k) {\n\t\trand.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })\n\t}\n\treturn s\n}"},
	{"mmtClock", "mmt/internal/sim", "func mmtClock(k int) *sim.Clock {\n\tif mmtMut(k) {\n\t\treturn new(sim.Clock)\n\t}\n\treturn nil\n}"},
	{"mmtContext", "mmt/internal/trace", "func mmtContext(k int) *trace.Context {\n\tif mmtMut(k) {\n\t\treturn new(trace.Context)\n\t}\n\treturn nil\n}"},
}

// support is the file added to a mutated package: the switch, and each
// helper the inserted text calls.
func support(pkg, inserted string) string {
	imports, code := []string{"os", "strconv"}, ""
	for _, h := range helpers {
		if strings.Contains(inserted, h.name+"(") {
			imports, code = append(imports, strings.Fields(h.imports)...), code+"\n"+h.code+"\n"
		}
	}
	slices.Sort(imports)
	return fmt.Sprintf("package %s\n\nimport (\n\t\"%s\"\n)\n\nvar mmtMutID, _ = strconv.Atoi(os.Getenv(\"MMT_MUT\"))\n\nfunc mmtMut(k int) bool { return mmtMutID == k }\n%s",
		pkg, strings.Join(slices.Compact(imports), "\"\n\t\""), code)
}
