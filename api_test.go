package mmt

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestAPIGolden holds the public surface, as `go doc -all .` prints it, to
// testdata/api.golden: a change that grows or reshapes Cluster, Buffer,
// Link or anything else exported shows it in its own diff, as loc-gate
// shows a change in size. It names the first line that differs. After a
// deliberate change, regenerate with `go doc -all . > testdata/api.golden`.
func TestAPIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	got, err := exec.Command("go", "doc", "-all", ".").Output()
	if err != nil {
		t.Fatalf("go doc -all .: %v", err)
	}
	want, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("public surface differs from testdata/api.golden at line %d:\n go doc: %q\n golden: %q\nregenerate with `go doc -all . > testdata/api.golden` if the change is deliberate", i+1, gl, wl)
		}
	}
}
