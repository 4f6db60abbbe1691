// Command mmt-mutate plants faults in the module's library code, one
// mutant per site, and reports each one `go test` lets through: the
// evidence for what the tests hold. DESIGN.md §7 lists the faults.
//
//	mmt-mutate [packages]    (default ./...; tags from GOFLAGS, e.g. -tags=purego)
//
// A package's mutants share one overlay (go test -overlay; the tree is
// never written), each on when MMT_MUT is its id, so a test binary is
// built once and must pass with none on. A mutant runs against its
// package's tests, then those of each package whose tests reach it; the
// first failing test kills it. survivors.txt lists the expected
// survivors as "file func op: reason". The exit status is 1 if a mutant
// survives unlisted or every mutant at a listed site dies, 2 on errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// listed is what the mutator reads of `go list -json`.
type listed struct {
	ImportPath, Dir, Name              string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Deps, TestImports, XTestImports    []string
}

func main() {
	flag.Usage = func() { fmt.Fprintln(flag.CommandLine.Output(), "usage: mmt-mutate [packages]") }
	flag.Parse()
	gomod, err := goOut("", "env", "GOMOD")
	root := filepath.Dir(strings.TrimSpace(gomod))
	known, err2 := readSurvivors(filepath.Join(root, "cmd/mmt-mutate/survivors.txt"))
	bad := 0
	if err = errors.Join(err, err2); err == nil {
		bad, err = mutate(root, flag.Args(), known, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmt-mutate:", err)
		os.Exit(2)
	} else if bad > 0 {
		os.Exit(1)
	}
}

func goOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		err = fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
	}
	return string(out), err
}

func goList(root string, patterns ...string) ([]*listed, error) {
	out, err := goOut(root, append([]string{"list", "-e", "-json"}, patterns...)...)
	var pkgs []*listed
	for dec := json.NewDecoder(strings.NewReader(out)); err == nil && dec.More(); {
		pkgs = append(pkgs, new(listed))
		err = dec.Decode(pkgs[len(pkgs)-1])
	}
	return pkgs, err
}

func readSurvivors(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	known := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		site, reason, _ := strings.Cut(line, ": ")
		if len(strings.Fields(site)) != 3 || reason == "" {
			return nil, fmt.Errorf("%s: want \"file func op: reason\", got %q", path, line)
		}
		known[strings.Join(strings.Fields(site), " ")] = reason
	}
	return known, err
}

// mutate plants and runs the mutants of the packages patterns match,
// prints one line per mutant, then the survivors and the kills per rule,
// and returns how many outcomes disagree with the known survivors.
func mutate(root string, patterns []string, known map[string]string, out io.Writer) (int, error) {
	all, err := goList(root, "./...")
	targets, err2 := goList(root, patterns...)
	work, err3 := os.MkdirTemp("", "mmt-mutate")
	if err = errors.Join(err, err2, err3); err != nil {
		return 0, err
	}
	defer os.RemoveAll(work)
	var muts []*mutant
	for _, pk := range targets {
		if pk.Name == "main" {
			continue
		}
		ms, overlay, err := plant(pk, root)
		if err != nil {
			return 0, err
		} else if len(ms) == 0 {
			continue
		}
		r := &runner{root: root, work: filepath.Join(work, fmt.Sprint(ms[0].id)), bins: map[string]string{}}
		if err := r.writeOverlay(overlay); err != nil {
			return 0, err
		}
		order := []*listed{pk}
		for _, q := range all { // then each package whose tests import pk
			for _, imp := range slices.Concat(q.Deps, q.TestImports, q.XTestImports) {
				i := slices.IndexFunc(all, func(d *listed) bool { return d.ImportPath == imp })
				if q != pk && (imp == pk.ImportPath || i >= 0 && slices.Contains(all[i].Deps, pk.ImportPath)) {
					order = append(order, q)
					break
				}
			}
		}
		for _, m := range ms {
			if err := r.run(m, order); err != nil {
				return 0, err
			}
			fmt.Fprintf(out, "%s %s:%d %s %s [%s] %s\n", map[bool]string{true: "killed  ", false: "SURVIVED"}[m.killer != ""],
				m.file, m.line, m.fn, m.op, m.rule, m.killer)
		}
		muts = append(muts, ms...)
	}
	return report(muts, known, out), nil
}

func report(muts []*mutant, known map[string]string, out io.Writer) (bad int) {
	planted, killed, survived, stale := map[string]int{}, map[string]int{}, map[string]bool{}, map[string]bool{}
	fmt.Fprintln(out)
	for _, m := range muts {
		planted[m.rule]++
		if _, ok := known[m.site()]; m.killer != "" {
			killed[m.rule]++
			stale[m.site()] = ok && !survived[m.site()]
		} else if ok {
			survived[m.site()], stale[m.site()] = true, false
			fmt.Fprintf(out, "expected survivor %s:%d %s %s: %s\n", m.file, m.line, m.fn, m.op, known[m.site()])
		} else {
			fmt.Fprintf(out, "UNEXPECTED survivor %s:%d %s %s [%s]\n", m.file, m.line, m.fn, m.op, m.rule)
			bad++
		}
	}
	for _, site := range slices.Sorted(maps.Keys(stale)) {
		if stale[site] {
			fmt.Fprintf(out, "STALE survivors.txt entry, every mutant killed: %s\n", site)
			bad++
		}
	}
	fmt.Fprintf(out, "\n%-14s %8s %7s\n", "rule", "planted", "killed")
	for _, r := range slices.Sorted(maps.Keys(planted)) {
		fmt.Fprintf(out, "%-14s %8d %7d\n", r, planted[r], killed[r])
	}
	return bad
}

// runner builds and runs the test binaries of one package's overlay.
type runner struct {
	root, work, overlay string
	bins                map[string]string // by "path race"; "" for a package with no tests
}

func (r *runner) writeOverlay(files map[string]string) error {
	replace := map[string]string{}
	err := os.MkdirAll(r.work, 0o755)
	for path, src := range files {
		replace[path] = filepath.Join(r.work, fmt.Sprintf("f%d.go", len(replace)))
		err = errors.Join(err, os.WriteFile(replace[path], []byte(src), 0o644))
	}
	data, _ := json.Marshal(map[string]any{"Replace": replace})
	r.overlay = filepath.Join(r.work, "overlay.json")
	return errors.Join(err, os.WriteFile(r.overlay, data, 0o644))
}

// run runs m against each package of order until a test fails, building
// each test binary the first time it is needed.
func (r *runner) run(m *mutant, order []*listed) error {
	for _, q := range order {
		key := fmt.Sprint(q.ImportPath, " ", m.race)
		bin, built := r.bins[key]
		if !built && len(q.TestGoFiles)+len(q.XTestGoFiles) > 0 {
			bin = filepath.Join(r.work, fmt.Sprintf("t%d.test", len(r.bins)))
			if _, err := goOut(r.root, "test", "-c", "-o", bin, "-overlay", r.overlay, fmt.Sprintf("-race=%t", m.race), q.ImportPath); err != nil {
				return err
			}
			if failed, log := runTest(bin, q.Dir, 0, m.count); failed != "" {
				return fmt.Errorf("%s fails with no mutant switched on (%s):\n%s", q.ImportPath, failed, log)
			}
		}
		if r.bins[key] = bin; bin != "" {
			if failed, _ := runTest(bin, q.Dir, m.id, m.count); failed != "" {
				m.killer = q.ImportPath + "." + failed
				return nil
			}
		}
	}
	return nil
}

var failLine = regexp.MustCompile(`(?m)^--- FAIL: ([^/\s]+)`)

// runTest runs a test binary in its package directory with mutant id
// switched on, and names the first test that failed ("" if all passed).
func runTest(bin, dir string, id, count int) (failed string, log []byte) {
	cmd := exec.Command(bin, "-test.failfast", "-test.timeout=20m", fmt.Sprintf("-test.count=%d", count))
	cmd.Dir, cmd.Env = dir, append(os.Environ(), fmt.Sprintf("MMT_MUT=%d", id))
	log, err := cmd.CombinedOutput()
	if m := failLine.FindSubmatch(log); err != nil && m != nil {
		return string(m[1]), log
	} else if err != nil {
		return "(" + err.Error() + ")", log // a panic or the timeout ended the binary
	}
	return "", log
}
