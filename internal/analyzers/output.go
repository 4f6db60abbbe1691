package analyzers

// Machine-readable findings output: the compact mmt-vet/v1 JSON document
// CI uploads as an artifact. The writer is deterministic byte-for-byte
// for a given finding list and module root (golden-tested): findings
// arrive sorted from the driver, keys are emitted in fixed order, and
// paths are normalized to forward-slash module-relative form.

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// jsonFinding is one finding in mmt-vet -json output.
type jsonFinding struct {
	ID       string `json:"id"`
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonReport is the top-level mmt-vet -json document.
type jsonReport struct {
	Schema   string        `json:"schema"`
	Count    int           `json:"count"`
	Findings []jsonFinding `json:"findings"`
}

// relPath normalizes a finding path to forward-slash form relative to
// root, so output does not depend on the checkout location.
func relPath(root, path string) string {
	if root != "" {
		if r, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(r, "..") {
			path = r
		}
	}
	return filepath.ToSlash(path)
}

func toJSONFindings(findings []Finding, root string) []jsonFinding {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			ID:       f.ID(),
			Analyzer: f.Analyzer,
			File:     relPath(root, f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}
	return out
}

// WriteJSON writes the mmt-vet/v1 findings document. Output is
// byte-stable: same findings and root, same bytes.
func WriteJSON(w io.Writer, findings []Finding, root string) error {
	rep := jsonReport{Schema: "mmt-vet/v1", Count: len(findings), Findings: toJSONFindings(findings, root)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
