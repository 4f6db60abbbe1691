package trace

import (
	"strings"
	"testing"
)

// TestDecodeStrict: required-ness comes from the writer's tags — a key
// without omitempty must be there even when its value is the zero one,
// at any depth; omitempty keys may be absent; nothing undeclared, null
// or trailing is let through.
func TestDecodeStrict(t *testing.T) {
	type row struct {
		Name string `json:"name"`
		N    uint64 `json:"n"`
		Note string `json:"note,omitempty"`
	}
	type doc struct {
		Title string `json:"title"`
		Rows  []row  `json:"rows"`
		Extra *row   `json:"extra,omitempty"`
	}
	for data, want := range map[string]string{
		`{"title": "", "rows": []}`:                                    "",
		`{"title": "t", "rows": [{"name": "a", "n": 0}]}`:              "",
		`{"title": "t", "rows": [{"name": "a", "n": 0, "note": "x"}]}`: "",
		`{"title": "t", "rows": [], "extra": {"name": "", "n": 0}}`:    "",
		`{"rows": []}`: `document: missing key "title"`,
		`{"title": "t", "rows": [{"name": "a", "n": 1}, {"name": "b"}]}`:   `document.rows[1]: missing key "n"`,
		`{"title": "t", "rows": [], "extra": {"n": 1}}`:                    `document.extra: missing key "name"`,
		`{"title": null, "rows": []}`:                                      `"title" is null`,
		`{"title": "t", "rows": null}`:                                     `"rows" is null`,
		`{"title": "t", "rows": [], "more": 1}`:                            `document: unknown key "more"`,
		`{"title": "t", "rows": [{"name": "a", "n": 1, "colour": "red"}]}`: `document.rows[0]: unknown key "colour"`,
		`{"title": "t", "rows": [{"name": "a", "n": -1}]}`:                 `bad "n"`,
		`{"title": "t", "rows": []} {}`:                                    "after top-level value",
	} {
		var d doc
		err := DecodeStrict("test doc", []byte(data), &d)
		if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: got %v, want %q", data, err, want)
		}
	}
}
