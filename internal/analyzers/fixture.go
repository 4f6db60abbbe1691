package analyzers

import (
	"go/token"
	"sort"
	"strconv"
)

// RunFiles is the analysistest entry point: the driver's parse ->
// typecheck -> analyze -> suppress pipeline over the named files of a
// fixture directory, typechecked as the single package pkgPath, instead
// of over go-list packages. Fixture imports (stdlib and mmt packages
// alike) resolve from compiled export data, exactly as in Run. The
// //mmt:allow audit is left out: fixtures exercise one rule at a time.
func RunFiles(dir string, names []string, pkgPath string, as []*Analyzer) ([]Finding, error) {
	fset := token.NewFileSet()
	files, err := parsePackage(fset, dir, names)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			if p, _ := strconv.Unquote(spec.Path.Value); p != "" && !seen[p] {
				seen[p] = true
				imports = append(imports, p)
			}
		}
	}
	sort.Strings(imports)
	exports := map[string]exportEntry{}
	if len(imports) > 0 {
		if exports, err = exportData("", imports); err != nil {
			return nil, err
		}
	}
	unit, err := checkPackage(fset, files, pkgPath, newExportImporter(fset, exports))
	if err != nil {
		return nil, err
	}
	allow := newAllowIndex()
	allow.collect(fset, files)
	findings := analyze(fset, []*PackageUnit{unit}, as, allow)
	sortFindings(findings)
	return dedupeFindings(findings), nil
}
