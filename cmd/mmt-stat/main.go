// Command mmt-stat reads every JSON artefact the repository writes,
// each through the strict parser that lives next to its writer, and
// renders it as text tables. It owns no schema: it tells the kinds apart
// by shape and reports what the parser says.
//
//	JSON array                  Chrome trace-event file   trace.ParseChromeTrace   spans per proc and phase
//	"schema": "mmt-hist/v1"     latency histograms        trace.ParseHist          quantiles per proc and op
//	"schema": "mmt-events/v1"   security-event ledger     trace.ParseEvents        one row per entry
//	"schema": "mmt-causal/v1"   per-migration span trees  trace.ParseCausal        ASCII trees
//	"schema": "mmt-series/v1"   windowed time series      trace.ParseSeries        sparklines
//	"schema": "mmt-manifest/v1" snapshot manifest         mmt.ParseManifest        machines table
//	object without "schema"     BENCH_fig<N>.json sidecar bench.ParseSidecar       totals and histograms
//
// Each parser rejects a key its writer does not emit, the absence of one
// it always emits, and every document that breaks an invariant the
// writer promises (see the parser's comment for the list), so a file
// that renders is a file that validates. mmt-stat reads files, stdin
// ("-"), or a live cluster started with mmt.WithDebugServer:
//
//	mmt-stat trace.json hist.json events.jsonl BENCH_fig11.json ...
//	quickstart -stats /dev/stdout | mmt-stat -
//	mmt-stat -addr 127.0.0.1:6060        # fetch /debug/mmt/{hist,events}
//	mmt-stat -tail 20 events.jsonl       # newest 20 ledger entries
//
// Exit status 0 means every input rendered, 1 that at least one did not
// (the others still render), 2 a usage error. All numbers are simulated
// cycles and microseconds read off the deterministic run; rendering the
// same export twice prints the same bytes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"mmt"
	"mmt/internal/bench"
	"mmt/internal/sim"
	"mmt/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmt-stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "fetch live stats from a /debug server at this address")
	tail := fs.Int("tail", 0, "show only the newest N ledger events (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" && fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: mmt-stat [-tail N] <export.json|-> ...\n       mmt-stat [-tail N] -addr <host:port>")
		return 2
	}
	status := 0
	show := func(name string, data []byte, err error) {
		if err == nil {
			err = render(stdout, data, *tail)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mmt-stat: %s: %v\n", name, err)
			status = 1
		}
	}
	if *addr != "" {
		for _, path := range []string{"/debug/mmt/hist", "/debug/mmt/events"} {
			url := "http://" + *addr + path
			data, err := fetch(url)
			show(url, data, err)
		}
	}
	for _, path := range fs.Args() {
		var data []byte
		var err error
		if path == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(path)
		}
		show(path, data, err)
	}
	return status
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// render tells the artefact kind from the JSON shape, reads it with
// that kind's strict parser and prints the matching table; nothing is
// printed for a document the parser rejects. The schema probe decodes
// only the first JSON value, so a JSON Lines ledger still identifies.
func render(w io.Writer, data []byte, tail int) error {
	switch first := bytes.TrimLeft(data, " \t\r\n"); {
	case len(first) == 0:
		return fmt.Errorf("empty file")
	case first[0] == '[':
		t, err := trace.ParseChromeTrace(data)
		if err != nil {
			return err
		}
		renderChrome(w, t)
		return nil
	case first[0] != '{':
		return fmt.Errorf("neither a JSON array (Chrome trace) nor a JSON object")
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err != nil {
		return fmt.Errorf("not a JSON object: %w", err)
	}
	switch probe.Schema {
	case trace.HistSchema:
		doc, err := trace.ParseHist(data)
		if err != nil {
			return err
		}
		var rows [][]string
		for _, p := range doc.Procs {
			for _, h := range p.Ops {
				rows = append(rows, histRow(p.Proc, h.Op.String(), h.Count, h.P50, h.P90, h.P99, h.Max, h.Mean))
			}
		}
		renderHists(w, rows)
	case trace.EventsSchema:
		doc, err := trace.ParseEvents(data)
		if err != nil {
			return err
		}
		renderEvents(w, doc, tail)
	case trace.CausalSchema:
		doc, err := trace.ParseCausal(data)
		if err != nil {
			return err
		}
		renderCausal(w, doc.Traces)
	case trace.SeriesSchema:
		v, err := trace.ParseSeries(data)
		if err != nil {
			return err
		}
		renderSeries(w, &v)
	case "mmt-manifest/v1":
		m, err := mmt.ParseManifest(data)
		if err != nil {
			return err
		}
		renderManifest(w, m)
	case "":
		sc, err := bench.ParseSidecar(data)
		if err != nil {
			return err
		}
		renderSidecar(w, sc)
	default:
		return fmt.Errorf("unknown schema %q", probe.Schema)
	}
	return nil
}

// renderChrome counts a Chrome trace's spans per process and phase (in
// name, then phase order) with their summed and longest durations.
func renderChrome(w io.Writer, t trace.ChromeTrace) {
	type span struct {
		proc  string
		phase trace.Phase
		dur   float64 // microseconds
	}
	procs := map[int]string{}
	var spans []span
	for _, r := range t {
		switch r := r.(type) {
		case *trace.ChromeProc:
			procs[r.Pid] = r.Args.Name
		case *trace.ChromeSpan:
			phase, _ := trace.Lookup(r.Name, trace.NumPhases)
			spans = append(spans, span{procs[r.Pid], phase, float64(r.Dur)})
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		return a.proc < b.proc || a.proc == b.proc && a.phase < b.phase
	})
	fmt.Fprintf(w, "chrome trace: %d spans\n", len(spans))
	rows := [][]string{{"proc", "phase", "spans", "total_us", "max_us"}}
	for i, j := 0, 0; i < len(spans); i = j {
		var sum, longest float64
		for ; j < len(spans) && spans[j].proc == spans[i].proc && spans[j].phase == spans[i].phase; j++ {
			sum += spans[j].dur
			longest = max(longest, spans[j].dur)
		}
		rows = append(rows, []string{spans[i].proc, spans[i].phase.String(), fmt.Sprintf("%d", j-i),
			fmt.Sprintf("%.3f", sum), fmt.Sprintf("%.3f", longest)})
	}
	if len(rows) > 1 {
		table(w, rows)
	}
}

// renderManifest prints a snapshot manifest's header line and its
// machines table.
func renderManifest(w io.Writer, m *mmt.Manifest) {
	fmt.Fprintf(w, "snapshot manifest: epoch %d, %d bytes, %d tree levels, %d regions, profile %s, %d links\n  root %s\n",
		m.Epoch, m.SnapshotBytes, m.TreeLevels, m.Regions, m.Profile, len(m.Links), m.RootHash)
	rows := [][]string{{"machine", "node_id", "clock_s", "live_regions"}}
	for _, mc := range m.Machines {
		rows = append(rows, []string{mc.Name, fmt.Sprintf("%d", mc.NodeID), fmt.Sprintf("%g", mc.Clock), fmt.Sprintf("%d", mc.LiveRegions)})
	}
	table(w, rows)
}

func histRow(proc, op string, count uint64, p50, p90, p99, max, mean sim.Cycles) []string {
	return []string{proc, op, fmt.Sprintf("%d", count),
		cyc(float64(p50)), cyc(float64(p90)), cyc(float64(p99)), cyc(float64(max)), cyc(float64(mean))}
}

func renderHists(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		fmt.Fprintln(w, "latency histograms (cycles): no samples")
		return
	}
	fmt.Fprintln(w, "latency histograms (cycles):")
	table(w, append([][]string{{"proc", "op", "count", "p50", "p90", "p99", "max", "mean"}}, rows...))
}

func renderEvents(w io.Writer, doc *trace.EventsDoc, tail int) {
	shown := doc.Events
	if tail > 0 && len(shown) > tail {
		shown = shown[len(shown)-tail:]
	}
	fmt.Fprintf(w, "security-event ledger: %d events (%d dropped, showing %d):\n",
		len(doc.Events), doc.Header.Dropped, len(shown))
	rows := [][]string{{"seq", "time_us", "proc", "kind", "addr", "detail"}}
	for _, ev := range shown {
		rows = append(rows, []string{
			fmt.Sprintf("%d", ev.Seq), fmt.Sprintf("%.3f", float64(ev.Time)),
			ev.Proc, ev.Kind.String(), fmt.Sprintf("%#x", uint64(ev.Addr)), ev.Detail,
		})
	}
	if len(rows) > 1 {
		table(w, rows)
	}
}

// renderCausal draws each causal trace as an ASCII tree, one line per
// span, children indented under their parent in span-ID order. Spans on
// the critical path are marked with '*'.
func renderCausal(w io.Writer, traces []trace.CausalTrace) {
	fmt.Fprintf(w, "causal traces: %d\n", len(traces))
	for _, tr := range traces {
		fmt.Fprintf(w, "%s  (%s cycles, critical path %.3fus over %d spans)\n",
			tr.ID, cyc(float64(tr.TotalCycles)), float64(tr.CriticalElapsed), len(tr.CriticalPath))
		critical := map[uint32]bool{}
		for _, id := range tr.CriticalPath {
			critical[id] = true
		}
		children := map[uint32][]trace.CausalSpan{}
		for _, sp := range tr.Spans {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
		var draw func(parent uint32, indent string)
		draw = func(parent uint32, indent string) {
			kids := children[parent]
			for i, sp := range kids {
				branch, next := "├─", "│ "
				if i == len(kids)-1 {
					branch, next = "└─", "  "
				}
				mark := " "
				if critical[sp.Span] {
					mark = "*"
				}
				fmt.Fprintf(w, "  %s%s%s %d %s/%s [%.3f..%.3fus] %s cycles\n",
					indent, branch, mark, sp.Span, sp.Proc, sp.Phase, float64(sp.Begin), float64(sp.End), cyc(float64(sp.Cycles)))
				draw(sp.Span, indent+next)
			}
		}
		draw(0, "")
	}
}

func renderSidecar(w io.Writer, sc *bench.Sidecar) {
	fmt.Fprintf(w, "figure %s totals:\n", sc.Figure)
	rows := [][]string{{"name", "value", "unit"}}
	for _, t := range sc.Totals {
		rows = append(rows, []string{t.Name, cyc(t.Value), t.Unit})
	}
	table(w, rows)
	if len(sc.Hists) == 0 {
		return
	}
	rows = nil
	for _, h := range sc.Hists {
		rows = append(rows, histRow(h.Proc, h.Op, h.Count, h.P50, h.P90, h.P99, h.Max, h.Mean))
	}
	renderHists(w, rows)
}

// cyc formats a cycle count the way the exporters do: integers render
// bare, fractional values keep their decimals.
func cyc(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// table prints rows with left-aligned, two-space-padded columns; the
// first row is the header, underlined with dashes.
func table(w io.Writer, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(row []string) {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintln(w, "  "+b.String())
	}
	line(rows[0])
	dashes := make([]string, len(rows[0]))
	for i, n := range widths {
		dashes[i] = strings.Repeat("-", n)
	}
	line(dashes)
	for _, row := range rows[1:] {
		line(row)
	}
}
