// Command mmt-stat renders the observability exports as text tables:
// per-operation latency histograms (schema mmt-hist/v1, from
// TraceSink.WriteHistJSON or `quickstart -stats`), security-event
// ledgers (schema mmt-events/v1, from TraceSink.WriteEventsJSONL or
// `quickstart -events`), causal span trees (schema mmt-causal/v1, from
// TraceSink.WriteCausalJSON or `quickstart -causal`, drawn as ASCII
// trees), and the histogram summaries embedded in `mmt-bench -fig`
// metrics sidecars. It reads files, stdin ("-"), or a live cluster
// started with mmt.WithDebugServer:
//
//	mmt-stat hist.json events.jsonl
//	quickstart -stats /dev/stdout | mmt-stat -
//	mmt-stat -addr 127.0.0.1:6060        # fetch /debug/mmt/{hist,events}
//	mmt-stat -tail 20 events.jsonl       # newest 20 ledger entries
//	mmt-stat BENCH_fig11.series.json     # windowed series as sparklines
//
// All numbers are simulated cycles and microseconds read off the
// deterministic run; rendering the same export twice prints the same
// bytes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"mmt/internal/bench"
	"mmt/internal/sim"
	"mmt/internal/trace"
)

func main() {
	addr := flag.String("addr", "", "fetch live stats from a /debug server at this address")
	tail := flag.Int("tail", 0, "show only the newest N ledger events (0 = all)")
	flag.Parse()

	if *addr == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mmt-stat [-tail N] <export.json|-> ...\n       mmt-stat [-tail N] -addr <host:port>")
		os.Exit(2)
	}
	failed := false
	if *addr != "" {
		for _, path := range []string{"/debug/mmt/hist", "/debug/mmt/events"} {
			url := "http://" + *addr + path
			data, err := fetch(url)
			if err == nil {
				err = render(os.Stdout, data, *tail)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmt-stat: %s: %v\n", url, err)
				failed = true
			}
		}
	}
	for _, path := range flag.Args() {
		var data []byte
		var err error
		if path == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(path)
		}
		if err == nil {
			err = render(os.Stdout, data, *tail)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmt-stat: %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
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

// render detects the export flavour by its schema field, reads it with
// the strict parser that lives next to its writer (so a document
// mmt-tracecheck would reject is not rendered either) and prints the
// matching table. Sidecars (no schema, a "figure" field) render their
// totals and embedded histogram summaries.
func render(w io.Writer, data []byte, tail int) error {
	var probe struct {
		Schema string `json:"schema"`
		Figure string `json:"figure"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err != nil {
		return fmt.Errorf("not a JSON document: %w", err)
	}
	switch {
	case probe.Schema == trace.HistSchema:
		m, err := trace.ParseHist(data)
		if err != nil {
			return err
		}
		var rows [][]string
		for i := range m.Procs {
			p := &m.Procs[i]
			for op := range p.Ops {
				if h := &p.Ops[op]; h.Count != 0 {
					rows = append(rows, histRow(p.Proc, trace.Op(op).String(), h.Count,
						h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max, h.Mean()))
				}
			}
		}
		renderHists(w, rows)
	case probe.Schema == trace.EventsSchema:
		events, dropped, err := trace.ParseEvents(data)
		if err != nil {
			return err
		}
		renderEvents(w, events, dropped, tail)
	case probe.Schema == trace.CausalSchema:
		traces, err := trace.ParseCausal(data)
		if err != nil {
			return err
		}
		renderCausal(w, traces)
	case probe.Schema == trace.SeriesSchema:
		v, err := trace.ParseSeries(data)
		if err != nil {
			return err
		}
		renderSeries(w, &v)
	case probe.Schema == "" && probe.Figure != "":
		sc, err := bench.ParseSidecar(data)
		if err != nil {
			return err
		}
		renderSidecar(w, sc)
	default:
		return fmt.Errorf("unsupported document (schema %q): want mmt-hist/v1, mmt-events/v1, mmt-causal/v1, mmt-series/v1 or a BENCH_fig sidecar", probe.Schema)
	}
	return nil
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

func renderEvents(w io.Writer, events []trace.SecEvent, dropped uint64, tail int) {
	shown := events
	if tail > 0 && len(shown) > tail {
		shown = shown[len(shown)-tail:]
	}
	fmt.Fprintf(w, "security-event ledger: %d events (%d dropped, showing %d):\n",
		len(events), dropped, len(shown))
	rows := [][]string{{"seq", "time_us", "proc", "kind", "addr", "detail"}}
	for _, ev := range shown {
		rows = append(rows, []string{
			fmt.Sprintf("%d", ev.Seq), fmt.Sprintf("%.3f", ev.Time.Microseconds()),
			ev.Proc, ev.Kind.String(), fmt.Sprintf("%#x", ev.Addr), ev.Detail,
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
			tr.ID, cyc(float64(tr.TotalCycles)), tr.CriticalElapsed.Microseconds(), len(tr.CriticalPath))
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
					indent, branch, mark, sp.Span, sp.Proc, sp.Phase, sp.Begin.Microseconds(), sp.End.Microseconds(), cyc(float64(sp.Cycles)))
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
